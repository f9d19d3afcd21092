"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def goldens():
    return run.load_goldens()


def tiny_run(cli, goldens, workload, trace, seconds=0.3):
    return run.run_workload(cli, workload, 5, seconds, trace, goldens, tiny=True, launches=1)


def bcabe_bindings() -> dict:
    """Every callable bound in a bcabe namespace, plus the command table and
    the DensityMatrix methods the tracer wraps."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "bcabe" or name.startswith("bcabe."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
    from bcabe import cli as cli_module, linalg

    for key, value in cli_module.COMMANDS.items():
        found[("COMMANDS", key)] = value
    for attr in ("__post_init__", "validate"):
        found[("DensityMatrix", attr)] = linalg.DensityMatrix.__dict__[attr]
    return found


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    for tiny in (False, True):
        assert workloads.ops(workload, 9, 12, tiny) == workloads.ops(workload, 9, 12, tiny)


def test_seed_chooses_the_ops():
    for workload in ("checklist", "activation"):
        assert workloads.ops(workload, 1, 8) != workloads.ops(workload, 2, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_match_benchmark_json(cli, goldens, workload):
    plain, _, _ = tiny_run(cli, goldens, workload, trace=False)
    traced, _, _ = tiny_run(cli, goldens, workload, trace=True)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }


def test_tampered_report_counts_as_failed_op(cli, goldens, monkeypatch):
    render = cli.render_json

    def tampered(obj, indent=0):
        if indent == 0 and "activable" in obj:
            obj = dict(obj, activable=not obj["activable"])
        return render(obj, indent)

    monkeypatch.setattr(cli, "render_json", tampered)
    result, detail, _ = tiny_run(cli, goldens, "checklist", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert any("activable" in p for p in detail["problems"])


TAMPER = {
    "report": lambda r: r["activation"].update(min_fidelity=r["activation"]["min_fidelity"] - 0.1),
    "unlock": lambda r: r["branches"][0].update(probability=2 * r["branches"][0]["probability"]),
    "discriminate": lambda r: r["outcomes"][1].update(kept_pair_best_bell="psi-" if r["outcomes"][1]["kept_pair_best_bell"] != "psi-" else "phi+"),
    "verify": lambda r: r.update(passed=False),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_passes_real_reports_and_rejects_tampered_ones(cli, goldens, workload):
    op = workloads.ops(workload, 3, 1, tiny=True)[0]
    path = run.OUT_DIR / "gate-test.json"
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for argv in op.argvs:
        code = run.invoke(cli, argv, path)
        text = path.read_text()
        assert workloads.check_command(op, argv, code, text, goldens) == []
        report = json.loads(text)
        TAMPER[argv[0]](report)
        assert workloads.check_command(op, argv, code, json.dumps(report), goldens)
        assert workloads.check_command(op, argv, 1, text, goldens)
    with pytest.raises(ValueError):
        workloads.parse_report('{"probability": NaN}')


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_op_wall_time(cli, goldens, workload):
    _, _, tracer = tiny_run(cli, goldens, workload, trace=True)
    name, op_of, own, dur = tracer.self_times()
    op_sid = tracer.names.index("op")
    walls = {op: d for n, op, d in zip(name.tolist(), op_of.tolist(), dur.tolist()) if n == op_sid}
    by_op = tracer.layer_self_by_op()
    assert by_op and set(by_op) <= set(walls)
    for op, layers in by_op.items():
        assert min(layers.values()) >= -1e-9
        assert sum(layers.values()) <= walls[op] + 1e-9


def test_traced_run_pairs_every_op_with_an_untraced_run(cli, goldens):
    result, detail, tracer = tiny_run(cli, goldens, "checklist", trace=True)
    op_spans = tracer.name.tolist().count(tracer.names.index("op"))
    assert op_spans == detail["ops"] >= 1
    assert result["attempted"] == 2 * detail["ops"]
    assert result["metrics"]["trace.untraced_ops_per_s"]["value"] > 0


def test_activation_runs_no_eigensolve(cli, goldens):
    result, _, _ = tiny_run(cli, goldens, "activation", trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["linalg.eigensolve.calls"] == 0
    assert m["protocol.discriminate.calls"] > 0 and m["protocol.unlock.calls"] > 0


def test_untraced_runs_leave_bcabe_unpatched(cli, goldens):
    before = bcabe_bindings()
    tiny_run(cli, goldens, "checklist", trace=False)
    assert bcabe_bindings() == before
    with tracing.Tracer().installed():
        during = bcabe_bindings()
        from bcabe import analyze, linalg

        assert analyze.hermitian_eigenvalues is linalg.hermitian_eigenvalues
    assert during[("COMMANDS", "verify")] is not before[("COMMANDS", "verify")]
    assert during[("bcabe.analyze", "hermitian_eigenvalues")] is not before[("bcabe.analyze", "hermitian_eigenvalues")]
    assert bcabe_bindings() == before
    tiny_run(cli, goldens, "checklist", trace=True)
    assert bcabe_bindings() == before


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(x) for x in range(1, 26)]) == (15.0, 60.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", "checklist", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
