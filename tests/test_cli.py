import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import render_oracle
from bcabe import analyze, cli, linalg
from bcabe.analyze import classify_abe
from bcabe.cli import main, render_json
from bcabe.construct import RHO_MINUS, RHO_PLUS, STATE_CLASSES, NoisyWeights, noisy_state, projector_direct
from conftest import read_dump


def run(argv):
    return main(argv)


class TestConstruct:
    def test_dump_to_stdout_and_summary_on_stderr(self, capsys):
        assert run(["construct", "--class", "rho+", "--n", "4"]) == 0
        out, err = capsys.readouterr()
        m = read_dump(out)
        assert m.shape == (16, 16)
        assert np.trace(m).real == pytest.approx(1.0)
        assert "rank: 4" in err

    def test_dump_to_file_with_json(self, tmp_path, capsys):
        dump = tmp_path / "state.dump"
        report = tmp_path / "report.json"
        rc = run(
            [
                "construct", "--class", "sigma-", "--n", "6",
                "--dump", str(dump), "--json", str(report),
            ]
        )
        assert rc == 0
        m = read_dump(dump.read_text())
        assert m.shape == (64, 64)
        data = json.loads(report.read_text())
        assert data["rank"] == 16
        assert data["trace"] == pytest.approx(1.0)
        assert data["state"] == "sigma- n=6"

    def test_noisy_uniform_is_maximally_mixed(self, capsys):
        assert run(["construct", "--noisy", "0.25,0.25,0.25,0.25", "--n", "4"]) == 0
        out, _ = capsys.readouterr()
        m = read_dump(out)
        assert np.abs(m - np.eye(16) / 16).max() < 1e-14


class TestVerify:
    def test_n4_passes(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        assert run(["verify", "--n", "4", "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["failed_checks"] == []
        names = {c["check"] for c in data["checks"]}
        assert names == {
            "completeness",
            "mutual-orthogonality",
            "construction-triangle",
            "permutation-invariance",
            "cut-scan",
            "two-vs-rest-certificates",
        }
        assert "tolerances" in data

    def test_n8_passes_within_budget(self, tmp_path, capsys):
        import time

        report = tmp_path / "verify8.json"
        t0 = time.perf_counter()
        assert run(["verify", "--n", "8", "--json", str(report)]) == 0
        elapsed = time.perf_counter() - t0
        data = json.loads(report.read_text())
        assert data["passed"] is True
        scan = [c for c in data["checks"] if c["check"] == "cut-scan"]
        assert all(c["cuts"] == 127 for c in scan)
        assert elapsed < 60.0

    def test_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.COMMANDS, "verify", lambda args: ({"passed": False}, False))
        assert run(["verify", "--n", "4"]) == 1

    def _failed_checks(self, tmp_path):
        path = tmp_path / "verify.json"
        assert run(["verify", "--n", "4", "--json", str(path)]) == 1
        return json.loads(path.read_text())["failed_checks"]

    def test_perturbed_recursion_fails_only_the_triangle(self, monkeypatch, tmp_path, capsys):
        real_family = analyze.recursive_family
        def swapped(n):  # the recursion hands back rho+ and rho- exchanged
            family = dict(real_family(n))
            family[RHO_PLUS], family[RHO_MINUS] = family[RHO_MINUS], family[RHO_PLUS]
            return family
        monkeypatch.setattr(analyze, "recursive_family", swapped)
        assert self._failed_checks(tmp_path) == ["construction-triangle[rho+]", "construction-triangle[rho-]"]

    def test_overlapping_classes_fail_orthogonality(self, monkeypatch, tmp_path, capsys):
        # rho+ and rho- both read as their even mixture: the four still sum to the identity, but two overlap
        real_direct = analyze.projector_direct
        def direct(cls, n):
            mixed = cls in (RHO_PLUS, RHO_MINUS)
            return noisy_state(NoisyWeights(0.5, 0.5, 0, 0), n) if mixed else real_direct(cls, n)
        monkeypatch.setattr(analyze, "projector_direct", direct)
        failed = self._failed_checks(tmp_path)
        assert "mutual-orthogonality[all]" in failed and "completeness[all]" not in failed


class TestUnlock:
    def test_class_state_perfect_branches(self, tmp_path, capsys):
        report = tmp_path / "unlock.json"
        rc = run(
            ["unlock", "--class", "rho+", "--n", "6", "--keep", "1,2", "--json", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert len(data["branches"]) == 16
        agg = data["aggregate"]
        assert agg["min_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert agg["xor_rule_holds"] is True
        assert agg["total_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_keep_2_3(self, tmp_path, capsys):
        report = tmp_path / "unlock23.json"
        rc = run(
            ["unlock", "--class", "rho+", "--n", "4", "--keep", "2,3", "--json", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert len(data["branches"]) == 4
        assert data["aggregate"]["min_fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_noisy_max_fidelity_is_top_weight(self, tmp_path, capsys):
        report = tmp_path / "unlockn.json"
        rc = run(
            [
                "unlock", "--noisy", "0.4,0.2,0.2,0.2", "--n", "4",
                "--keep", "1,2", "--json", str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["aggregate"]["max_fidelity"] == pytest.approx(0.4, abs=1e-12)

    def test_custom_pairing_flag(self, tmp_path, capsys):
        report = tmp_path / "unlockp.json"
        rc = run(
            [
                "unlock", "--class", "sigma+", "--n", "6", "--keep", "1,2",
                "--pairing", "3,6;4,5", "--json", str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["pairing"] == [[3, 6], [4, 5]]
        assert data["aggregate"]["min_fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_every_branch_at_twelve_qubits_is_live(self, monkeypatch, tmp_path, capsys):
        # 1,024 branches of probability 4**-5, under 1e-3 but far above TOL.zero_probability
        monkeypatch.setenv("BCABE_MAX_N", "12")
        path = tmp_path / "unlock12.json"
        assert run(["unlock", "--class", "rho+", "--n", "12", "--keep", "1,3", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["aggregate"]["branch_count"] == len(data["branches"]) == 4**5
        assert all(b["probability"] == pytest.approx(4.0**-5) and b["best_label"] for b in data["branches"])


class TestDiscriminate:
    def test_probabilities_quarter(self, tmp_path, capsys):
        report = tmp_path / "disc.json"
        rc = run(
            ["discriminate", "--class", "rho-", "--n", "4", "--json", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert [o["outcome"] for o in data["outcomes"]] == ["rho+", "rho-", "sigma+", "sigma-"]
        for o in data["outcomes"]:
            assert o["probability"] == pytest.approx(0.25, abs=1e-12)
            assert o["kept_pair_fidelity"] == pytest.approx(1.0, abs=1e-10)


class TestBellCorrelationThroughTheCli:
    """The paper's Bell correlation, read off the JSON reports alone: the kept
    pair ends in the Bell state whose (parity, phase) label is the class label
    XOR every label measured on the other qubits."""

    LABEL = {"phi+": (0, 0), "phi-": (0, 1), "psi+": (1, 0), "psi-": (1, 1),
             "rho+": (0, 0), "rho-": (0, 1), "sigma+": (1, 0), "sigma-": (1, 1)}

    @classmethod
    def _xor(cls, *names):
        return tuple(sum(cls.LABEL[name][i] for name in names) % 2 for i in range(2))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("state", ["rho+", "rho-", "sigma+", "sigma-"])
    def test_kept_pair_label_is_the_xor_of_the_rest(self, state, seed, tmp_path, capsys):
        rng = random.Random(f"{state}:{seed}")
        keep = sorted(rng.sample(range(1, 7), 2))
        rest = [q for q in range(1, 7) if q not in keep]
        rng.shuffle(rest)
        keep_arg = f"{keep[0]},{keep[1]}"
        pairing = ";".join(f"{min(p)},{max(p)}" for p in (rest[:2], rest[2:]))
        path = tmp_path / "report.json"
        assert run(["unlock", "--class", state, "--n", "6", "--keep", keep_arg, "--pairing", pairing,
                    "--json", str(path)]) == 0
        branches = json.loads(path.read_text())["branches"]
        assert len(branches) == 16
        for b in branches:
            assert self.LABEL[b["best_label"]] == self._xor(state, *b["labels"])
        assert run(["discriminate", "--class", state, "--n", "6", "--keep", keep_arg, "--json", str(path)]) == 0
        outcomes = json.loads(path.read_text())["outcomes"]
        assert len(outcomes) == 4
        for o in outcomes:
            assert self.LABEL[o["kept_pair_best_bell"]] == self._xor(state, o["outcome"])


class TestNoisyScan:
    @pytest.mark.parametrize("line", ["two-term", "werner"])
    def test_flip_brackets_half(self, line, tmp_path, capsys):
        report = tmp_path / f"scan-{line}.json"
        rc = run(
            ["noisy-scan", "--n", "4", "--line", line, "--points", "101", "--json", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        s = data["summary"]
        assert s["rule_agrees_with_ppt_everywhere"] is True
        assert s["all_flips_bracket_half"] is True
        assert [0.5, 0.51] in s["flips"]
        at_half = [r for r in data["rows"] if r["w"] == 0.5][0]
        assert at_half["entangled"] is False and at_half["ppt"] is True

    @pytest.mark.parametrize("points", [4, 100])
    @pytest.mark.parametrize("line", ["two-term", "werner"])
    def test_even_grid_passes(self, line, points, tmp_path, capsys):
        # an even grid never lands on w = 1/2, the one separable point of the
        # two-term line, so its rows may hold one verdict only
        report = tmp_path / "scan.json"
        assert run(["noisy-scan", "--line", line, "--points", str(points), "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert all(r["rule_agrees_with_ppt"] for r in data["rows"])
        assert data["summary"]["all_flips_bracket_half"] is True

    def test_werner_single_flip(self, tmp_path, capsys):
        report = tmp_path / "scanw.json"
        run(["noisy-scan", "--line", "werner", "--json", str(report)])
        data = json.loads(report.read_text())
        assert data["summary"]["flips"] == [[0.5, 0.51]]
        uniform = [r for r in data["rows"] if r["w"] == 0.25][0]
        assert uniform["entangled"] is False
        assert uniform["negativity"] == 0.0


class TestReport:
    def test_smolin_report(self, tmp_path, capsys):
        report = tmp_path / "abe.json"
        rc = run(["report", "--class", "rho+", "--n", "4", "--json", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["activable"] is True
        assert data["permutation_invariant"] is True
        assert len(data["cuts"]) == 7
        assert all(len(c["pair"]) == 2 for c in data["certificates"])
        assert "timings" not in data

    def test_timings_opt_in(self, tmp_path, capsys):
        report = tmp_path / "abe-t.json"
        run(["report", "--class", "rho+", "--n", "4", "--timings", "--json", str(report)])
        data = json.loads(report.read_text())
        assert set(data["timings"]) == {"cut_scan", "permutation", "certificates", "activation"}


class TestTimings:
    ARGV = {
        "construct": ["construct", "--class", "rho+", "--n", "4"],
        "verify": ["verify", "--n", "4"],
        "unlock": ["unlock", "--class", "rho+", "--n", "4"],
        "discriminate": ["discriminate", "--class", "rho+", "--n", "4"],
        "noisy-scan": ["noisy-scan", "--n", "4", "--points", "3"],
        "report": ["report", "--class", "rho+", "--n", "4"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_every_command_honours_timings(self, tmp_path, capsys, command):
        assert set(self.ARGV) == set(cli.COMMANDS)
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        run(self.ARGV[command] + ["--json", str(plain)])
        run(self.ARGV[command] + ["--timings", "--json", str(timed)])
        plain_report, timed_report = json.loads(plain.read_text()), json.loads(timed.read_text())
        # main writes the envelope: the command first, the thresholds last, the times after them
        keys = list(plain_report)
        assert keys[0] == "command" and plain_report["command"] == command and keys[-1] == "tolerances"
        assert list(timed_report)[-2:] == ["tolerances", "timings"]
        assert "timings" not in plain_report
        timings = timed_report["timings"]
        assert timings and all(isinstance(v, float) and v >= 0 for v in timings.values())


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["report", "--class", "sigma+", "--n", "4", "--json"]
        run(argv + [str(a)])
        run(argv + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_render_json_float_format(self):
        text = render_json({"x": 0.1, "z": -0.0, "n": 3, "b": True, "s": "rho+"})
        assert '"x": 0.10000000000000001' in text
        assert '"z": 0' in text and "-0" not in text
        assert '"b": true' in text

    def test_full_collections_skip_the_imported_modules(self):
        # a collector that walks numpy's and argparse's objects again pauses an
        # n = 10 unlock for 5-7 ms once every ~130 activation ops
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        code = "import gc, bcabe.cli; print(len(gc.get_objects()))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(done.stdout) < 1000

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_report_exits_2_without_json(self, value, monkeypatch, tmp_path, capsys):
        report = {"command": "discriminate", "outcomes": [{"probability": value}]}
        monkeypatch.setitem(cli.COMMANDS, "discriminate", lambda args: (report, True))
        path = tmp_path / "report.json"
        argv = ["discriminate", "--class", "rho+", "--n", "4", "--json", str(path)]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "not finite" in err
        assert "Traceback" not in err and out == ""
        assert not path.exists()


class TestOutputErrors:
    def test_json_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert run(["verify", "--n", "4", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "Traceback" not in err and out == ""

    def test_dump_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "m.txt"
        assert run(["construct", "--class", "rho+", "--n", "4", "--dump", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_construct_json_into_missing_directory_prints_no_dump(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert run(["construct", "--class", "rho+", "--n", "4", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("json_name", ["same.txt", "./same.txt", "sub/../same.txt"])
    def test_construct_dump_and_json_to_one_file_exits_2(self, json_name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = ["construct", "--class", "rho+", "--n", "4", "--dump", "same.txt", "--json", json_name]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --dump and --json name the same file: 'same.txt'\n"
        assert not (tmp_path / "same.txt").exists()

    def test_construct_dump_and_json_as_hard_links_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.txt").write_text("kept\n")
        os.link(tmp_path / "a.txt", tmp_path / "b.txt")
        argv = ["construct", "--class", "rho+", "--n", "4", "--dump", "a.txt", "--json", "b.txt"]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --dump and --json name the same file: 'a.txt'\n"
        assert (tmp_path / "a.txt").read_text() == "kept\n"

    def test_construct_json_into_missing_directory_writes_no_dump_file(self, tmp_path, capsys):
        dump, path = tmp_path / "m.txt", tmp_path / "missing" / "x.json"
        argv = ["construct", "--class", "rho+", "--n", "4", "--dump", str(dump), "--json", str(path)]
        assert run(argv) == 2
        assert not dump.exists() and capsys.readouterr().out == ""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
    @pytest.mark.parametrize(
        "argv", [["verify", "--n", "4"], ["construct", "--class", "rho-", "--n", "4"]], ids=["verify", "construct"]
    )
    def test_full_stdout_exits_2_without_traceback(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "bcabe", *argv], stdout=full, stderr=subprocess.PIPE, env=env, text=True
            )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
    @pytest.mark.parametrize(
        "argv",
        [["construct", "--class", "rho+", "--n", "4"], ["verify", "--n", "4", "--tol-ppt", "-1"]],
        ids=["construct-summary", "config-error"],
    )
    def test_full_stderr_exits_2(self, argv):
        # exit 1 means "verification failed"; a lost error message is a usage/IO error
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "bcabe", *argv], stdout=subprocess.DEVNULL, stderr=full, env=env
            )
        assert done.returncode == 2

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, "verify", exhausted)
        assert run(["verify", "--n", "4"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestHelp:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_report_flags_documented_alike(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        with pytest.raises(SystemExit):
            run([command, "--help"])
        lines = capsys.readouterr().out.splitlines()
        for flag, text in [
            ("--tol-ppt TOL_PPT", "override the PPT eigenvalue tolerance"),
            ("--json PATH", "write the JSON report to PATH"),
            ("--timings", "include wall-clock timings in the report"),
        ]:
            assert any(ln.strip().startswith(flag) and ln.endswith(text) for ln in lines)


class TestConfigErrors:
    def test_odd_n(self, capsys):
        assert run(["construct", "--class", "rho+", "--n", "5"]) == 2

    def test_no_state(self, capsys):
        assert run(["unlock", "--n", "4"]) == 2

    def test_both_states(self, capsys):
        assert run(["unlock", "--class", "rho+", "--noisy", "1,0,0,0", "--n", "4"]) == 2

    def test_bad_weights(self, capsys):
        assert run(["construct", "--noisy", "0.9,0.2,0,0", "--n", "4"]) == 2

    def test_bad_pairing(self, capsys):
        assert run(
            ["unlock", "--class", "rho+", "--n", "6", "--keep", "1,2", "--pairing", "3,4"]
        ) == 2

    @pytest.mark.parametrize(
        "command, flag, text, named",
        [
            ("unlock", "--keep", "a,b", "a,b"),
            ("unlock", "--keep", "1,2.5", "1,2.5"),
            ("unlock", "--keep", "", ""),
            ("discriminate", "--keep", "a,b", "a,b"),
            ("discriminate", "--keep", "", ""),
            ("unlock", "--pairing", "3,4;5,x", "5,x"),
        ],
    )
    def test_pair_that_is_not_two_integers_names_its_text(self, command, flag, text, named, capsys):
        assert run([command, "--class", "rho+", "--n", "6", flag, text]) == 2
        assert capsys.readouterr() == ("", f"error: expected i,j — got {named!r}\n")

    @pytest.mark.parametrize("keep", ["1,5", "2,2", "0,1"])
    @pytest.mark.parametrize("command", ["unlock", "discriminate"])
    def test_keep_checked_against_n(self, command, keep, capsys):
        assert run([command, "--class", "rho+", "--n", "4", "--keep", keep]) == 2
        assert capsys.readouterr().err == f"error: --keep must be two distinct qubits of 1..4; got '{keep}'\n"

    @pytest.mark.parametrize("command", ["unlock", "discriminate"])
    def test_reversed_keep_reports_as_ascending(self, command, tmp_path, capsys):
        reports = []
        for keep in ("2,1", "1,2"):
            path = tmp_path / f"{keep}.json"
            assert run([command, "--noisy", "1,0,0,0", "--n", "4", "--keep", keep, "--json", str(path)]) == 0
            reports.append((path.read_bytes(), capsys.readouterr()))
        assert json.loads(reports[0][0])["keep"] == [1, 2]
        assert reports[0] == reports[1]

    def test_dense_view_over_budget_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("BCABE_MAX_N", "16")
        # every command runs on entries at n = 16; the dump's 4**n lines stay under the dense budget
        assert run(["construct", "--class", "rho+", "--n", "16"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a dense 16-qubit matrix needs 64 GiB, over the 1 GiB budget\n"

    def test_budget_refuses_before_the_state_is_built(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("BCABE_MAX_N", "64")
        monkeypatch.chdir(tmp_path)
        assert run(["construct", "--class", "rho+", "--n", "64", "--dump", "d.txt", "--json", "c.json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"error: a dense 64-qubit matrix needs \S+ GiB, over the 1 GiB budget\n", err)
        assert list(tmp_path.iterdir()) == []

    def test_bad_tol(self, capsys):
        assert run(["verify", "--n", "4", "--tol-ppt", "-1"]) == 2

    def test_nan_weight(self, capsys):
        argv = ["unlock", "--noisy", "nan,0.5,0.25,0.25", "--n", "4", "--keep", "1,2"]
        assert run(argv) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["verify"], ["report", "--class", "rho+"]])
    def test_non_finite_tol(self, command, value, capsys):
        assert run(command + ["--n", "4", "--tol-ppt", value]) == 2

    @pytest.mark.parametrize("points", ["10002", "1000000000"])
    def test_points_above_cap(self, points, capsys):
        assert run(["noisy-scan", "--n", "4", "--points", points]) == 2
        assert "--points must be between 3 and 10001" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--exhaustive"], ["--sampled"], ["--seed", "3"]], ids=["exhaustive", "sampled", "seed"]
    )
    @pytest.mark.parametrize("command", [["verify"], ["report", "--class", "rho+"]], ids=["verify", "report"])
    def test_exhaustive_and_sampled_conflict(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--n", "4"] + flag)
        assert exc.value.code == 2

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestOneChecklist:
    @pytest.mark.parametrize("n", [4, 6])
    def test_verify_records_match_classify_abe(self, n, tmp_path, capsys):
        path = tmp_path / "verify.json"
        assert run(["verify", "--n", str(n), "--json", str(path)]) == 0
        records = {
            (c["check"], c["state"]): c for c in json.loads(path.read_text())["checks"]
        }
        for cls in STATE_CLASSES:
            rep = classify_abe(projector_direct(cls, n))
            ones = [v for v in rep.cut_verdicts if min(len(v.cut.left), len(v.cut.right)) == 1]
            twos = [v for v in rep.cut_verdicts if min(len(v.cut.left), len(v.cut.right)) == 2]
            scan = records[("cut-scan", cls.descriptor)]
            assert scan["cuts"] == len(rep.cut_verdicts)
            assert scan["two_vs_rest_ppt"] is all(v.ppt for v in twos)
            assert scan["one_vs_rest_npt"] is all(not v.ppt for v in ones)
            assert scan["one_vs_rest_negativity"] == ones[0].negativity
            perm = records[("permutation-invariance", cls.descriptor)]
            assert perm["passed"] is rep.permutation_invariant
            assert perm["max_deviation"] == rep.max_permutation_deviation
            certs = records[("two-vs-rest-certificates", cls.descriptor)]
            assert certs["passed"] is rep.two_vs_rest_separable_certified
            assert certs["pairs"] == len(rep.certificates)
            assert certs["max_reconstruction_error"] == max(
                c.reconstruction_error for c in rep.certificates
            )


README = Path(__file__).parent.parent / "README.md"


class TestReadmeExamples:
    def test_every_example_is_one_command_that_passes(self, tmp_path, monkeypatch, capsys):
        """Each `bcabe ...` line of the README's sh blocks, split as a POSIX shell
        splits it, is one command, and it exits 0."""
        blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("bcabe ")]
        assert len(lines) >= 8
        monkeypatch.chdir(tmp_path)
        for line in lines:
            lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            words = list(lexer)
            assert not [w for w in words if set(w) <= set(lexer.punctuation_chars)], line
            assert main(words[1:]) == 0, line


GOLDEN_CLI = Path(__file__).parent / "goldens" / "cli"


class TestGoldenBytes:
    """CLI output pinned byte for byte; tests/goldens/cli/README.md says where
    the files come from. Each output file is named after its golden, and a
    `<name>.stdout` or `<name>.stderr` golden pins that stream's text. Stderr
    is empty where it has no pin."""

    CASES = {
        "verify_n6": ["verify", "--n", "6"],
        "report_sigma-_n6": ["report", "--class", "sigma-", "--n", "6"],
        "report_noisy_n6": ["report", "--noisy", "0.553,0.2,0.147,0.1", "--n", "6"],
        "report_rho+_n8": ["report", "--class", "rho+", "--n", "8"],
        "report_noisy_n8": ["report", "--noisy", "0.4,0.2,0.2,0.2", "--n", "8"],
        "report_noisy0p553_n8": ["report", "--noisy", "0.553,0.2,0.147,0.1", "--n", "8"],
        "construct_rho-_n4": ["construct", "--class", "rho-", "--n", "4", "--dump", "construct_rho-_n4.dump"],
        "verify_n8": ["verify", "--n", "8"],
        "unlock_noisy_n8": [
            "unlock", "--noisy", "0.553,0.2,0.147,0.1", "--n", "8", "--keep", "1,3", "--pairing", "2,5;4,8;6,7",
        ],
        "verify_n10": ["verify", "--n", "10"],
        "verify_n12": ["verify", "--n", "12"],
        "report_noisy_n6_tol0p1": ["report", "--noisy", "0.553,0.2,0.147,0.1", "--n", "6", "--tol-ppt", "0.1"],
        "verify_n6_tol0p3": ["verify", "--n", "6", "--tol-ppt", "0.3"],
        "noisy-scan_werner_n6_tol0p3": [
            "noisy-scan", "--n", "6", "--line", "werner", "--points", "21", "--tol-ppt", "0.3",
        ],
        "unlock_noisy_n10": [
            "unlock", "--noisy", "0.553,0.2,0.147,0.1", "--n", "10", "--keep", "2,7", "--pairing", "1,4;3,9;5,10;6,8",
        ],
        "discriminate_noisy_n10": ["discriminate", "--noisy", "0.553,0.2,0.147,0.1", "--n", "10", "--keep", "2,7"],
    }
    ENV = {
        "verify_n10": {"BCABE_MAX_N": "10"},
        "verify_n12": {"BCABE_MAX_N": "12"},
        "unlock_noisy_n10": {"BCABE_MAX_N": "10"},
        "discriminate_noisy_n10": {"BCABE_MAX_N": "10"},
    }
    EXIT = {"verify_n6_tol0p3": 1, "noisy-scan_werner_n6_tol0p3": 1}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_matches_golden(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        real_zeros = linalg._dense_zeros
        def small_only(n):  # no command densifies a state above two qubits
            assert n <= 2, f"a dense {n}-qubit array"
            return real_zeros(n)
        monkeypatch.setattr(linalg, "_dense_zeros", small_only)
        for key, value in self.ENV.get(name, {}).items():
            monkeypatch.setenv(key, value)
        assert run(self.CASES[name] + ["--json", f"{name}.json"]) == self.EXIT.get(name, 0)
        captured = dict(zip(("stdout", "stderr"), capsys.readouterr()))
        goldens = {p.name: p for p in GOLDEN_CLI.glob(f"{name}.*")}
        pins = {stream: goldens.pop(f"{name}.{stream}", None) for stream in captured}
        outputs = sorted(p.name for p in tmp_path.iterdir())
        assert outputs == sorted(goldens)
        for out in outputs:
            assert (tmp_path / out).read_bytes() == (GOLDEN_CLI / out).read_bytes(), out
        for stream, pin in pins.items():
            if pin is not None or stream == "stderr":
                assert captured[stream].encode() == (pin.read_bytes() if pin else b""), stream


class TestPairedRoutePin:
    """Every eigensolve of these commands is a direct sum of 1 x 1 and 2 x 2
    blocks, which `linalg._paired` solves by one rotation: with the Jacobi
    sweep made to raise they still exit 0 with their pinned bytes."""

    @pytest.mark.parametrize("name", ["report_rho+_n8", "report_noisy0p553_n8", "verify_n8"])
    def test_no_sweep_runs(self, name, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a Jacobi sweep ran")

        monkeypatch.setattr(linalg, "_sweep", refuse)
        monkeypatch.chdir(tmp_path)
        assert run(TestGoldenBytes.CASES[name] + ["--json", f"{name}.json"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / f"{name}.json").read_bytes() == (GOLDEN_CLI / f"{name}.json").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    FINITE,
    FINITE.map(np.float64),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, np.float64(-0.0)]),
    st.integers(),
    st.integers(min_value=10**30, max_value=10**300),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9", "\u2028", "\U0001f600", 'q"\\/', "\ud800"]),
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(), st.none()), kids, max_size=4),
    ),
    max_leaves=24,
)
REFUSED = [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.bool_(True), {1, 2}, 1 + 2j, 10**5000]


def _outcome(render, obj, indent):
    """The rendered bytes, or the type of the exception the renderer raised."""
    try:
        return render(obj, indent)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _oracle_text(obj, indent):
    return "".join(line + "\n" for line in render_oracle.render_text(obj, indent))


class TestRenderOracle:
    """The one-pass walkers give the bytes of the recursive renderers they
    replaced (tests/render_oracle.py), and refuse what those refuse."""

    @settings(deadline=None, max_examples=300)
    @given(tree=TREES, indent=st.integers(0, 3))
    @example(tree={"a": [], "b": {}, "c": [[], {}, ()], "d": (1, "x")}, indent=0)
    @example(tree=[], indent=0)
    def test_same_bytes_on_drawn_objects(self, tree, indent):
        assert _outcome(cli.render_json, tree, indent) == _outcome(render_oracle.render_json, tree, indent)
        assert _outcome(cli.render_text, tree, indent) == _outcome(_oracle_text, tree, indent)

    @settings(deadline=None, max_examples=100)
    @given(tree=TREES, bad=st.sampled_from(REFUSED), where=st.integers(0, 2))
    def test_same_refusals(self, tree, bad, where):
        obj = [{"ok": tree, "bad": bad}, [tree, (bad,)], bad][where]
        new, old = _outcome(cli.render_json, obj, 0), _outcome(render_oracle.render_json, obj, 0)
        assert new == old and old in (TypeError, ValueError)
        assert _outcome(cli.render_text, obj, 0) == _outcome(_oracle_text, obj, 0)


# the documented grammar, with n capped at 6 so that every drawn call is quick
ARGV_VALUES = {
    "--class": ["rho+", "rho-", "sigma+", "sigma-", "tau"],
    "--noisy": ["0.553,0.2,0.147,0.1", "0.25,0.25,0.25,0.25", "1,0,0,0", "1e-320,1,0,0", "0.9,0.2,0,0", "nan,0.5,0.25,0.25"],
    "--n": ["4", "6", "-2", "0", "3", "x"],
    "--keep": ["1,2", "2,3", "3,6", "1,1", "0,5", "1", "a,b"],
    "--pairing": ["3,4", "3,4;5,6", "1,3;2,4", "3,5;4,6", ";", "x"],
    "--points": ["3", "4", "0", "x"],
    "--tol-ppt": ["1e-10", "0.1", "0.3", "-1", "nan", "1e308"],
    "--timings": [None],
}


def _flag(name):
    return st.sampled_from(ARGV_VALUES[name]).map(lambda v: [name] if v is None else [name, v])


OWN_FLAGS = {"unlock": ["--keep", "--pairing"], "discriminate": ["--keep"], "noisy-scan": ["--points"]}


def _argv(command):
    """Argv for one command, mostly of its own flags, so that most calls get past argparse."""
    state = [_flag("--class"), _flag("--noisy")] if command in ("construct", "unlock", "discriminate", "report") else []
    return st.builds(
        lambda state, n, rest: [command, *state, *n, *(word for flag in rest for word in flag)],
        st.one_of(*state, st.just([])),
        st.one_of(st.sampled_from([["--n", "4"], ["--n", "6"]]), _flag("--n"), st.just([])),
        st.lists(
            # --pairing is foreign to every command but unlock
            st.sampled_from(sorted({*OWN_FLAGS.get(command, []), "--pairing", "--tol-ppt", "--timings"})).flatmap(_flag),
            unique_by=lambda flag: flag[0],
            max_size=3,
        ),
    )


ARGV = st.sampled_from(sorted(cli.COMMANDS)).flatmap(_argv)
# BCABE_MAX_N unset, valid, below the drawn --n, below its own floor of 2, or not an integer
MAX_N = st.sampled_from([None, "4", "6", "10", "3", "1", "x", ""])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _call(argv, json_path):
    """(exit code, stdout, stderr, JSON bytes) of one in-process run."""
    json_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--json", str(json_path)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), json_path.read_bytes() if json_path.exists() else None


class TestArgvFuzz:
    """Many main() calls in one process share the cached parser: each drawn
    call, under a drawn BCABE_MAX_N, ends cleanly, and what ran before it does
    not change its bytes."""

    @settings(deadline=None, max_examples=120)
    @given(argv=ARGV, max_n=MAX_N)
    @example(argv=["report", "--class", "rho+", "--n", "4", "--timings"], max_n=None)
    @example(argv=["unlock", "--noisy", "0.553,0.2,0.147,0.1", "--n", "6", "--keep", "3,6", "--pairing", "1,2;4,5"],
             max_n="6")
    @example(argv=["construct", "--class", "rho+", "--n", "4"], max_n="x")
    def test_drawn_argv_ends_cleanly_and_repeats(self, argv, max_n):
        assert cli.build_parser() is cli.build_parser()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            os.environ.pop("BCABE_MAX_N", None)
            if max_n is not None:
                os.environ["BCABE_MAX_N"] = max_n
            path = Path(tmp) / "report.json"
            first = _call(argv, path)
            code, _, err, payload = first
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if payload is not None:
                json.loads(payload, parse_constant=_reject_constant)
            if "--timings" in argv:
                return
            _call([*argv, "--timings"], path)
            assert _call(argv, path) == first
            assert _call([argv[0], "--frobnicate"], path)[0] == 2
            assert _call(argv, path) == first
