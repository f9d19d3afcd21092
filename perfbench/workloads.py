"""Seeded workloads of the bcabe benchmark and the verdict gate for their reports.

An op is one or more ``bcabe`` command lines that the benchmark hands to
``bcabe.cli.main``.  The seed picks every argument, so the program sees only
the generated inputs.  The verdicts each report must carry are derived here
from the op's inputs by the paper's rules, never by calling bcabe:

* a class state (one-hot weights) is activable; every pair-vs-rest cut is PPT
  and every one-vs-rest cut has minimum partial-transpose eigenvalue
  -2^(1-n) and negativity 1/2 (the frozen goldens give every cut size at
  n <= 8);
* a mixture is activable exactly when its largest weight w_max exceeds 1/2,
  and stays PPT on every cut where the class states are PPT;
* measuring the non-kept qubits pairwise leaves the kept pair in Bell state
  c ^ b_1 ^ ... ^ b_k (Z2 x Z2 labels) with probability 4^-k per branch, so
  its best Bell fidelity is w_max;
* projecting the group onto class subspace k leaves Bell state c ^ k with
  probability 1/4.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

CLASSES = ("rho+", "rho-", "sigma+", "sigma-")
# (parity, phase) label of each class in the Z2 x Z2 group, in CLASSES order;
# the same pair names the Bell state phi+, phi-, psi+, psi-.
LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))
BELL = {label: symbol for label, symbol in zip(LABELS, ("phi+", "phi-", "psi+", "psi-"))}
BELL_LABEL = {symbol: label for label, symbol in BELL.items()}

TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One benchmark op: the argv lists it runs and the inputs they encode."""

    argvs: tuple[tuple[str, ...], ...]
    n: int
    weights: tuple[float, float, float, float] | None = None  # class states are one-hot
    keep: tuple[int, int] | None = None
    pairing: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    max_n: int | None  # BCABE_MAX_N for the run, None leaves the default ceiling
    block: Callable[[random.Random, bool], list[Op]]  # the next balanced block of ops


def _xor(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] ^ b[0], a[1] ^ b[1])


def _class_weights(cls: str) -> tuple[float, float, float, float]:
    return tuple(1.0 if c == cls else 0.0 for c in CLASSES)


def _mixture(rng: random.Random, activable: bool) -> tuple[str, tuple[float, ...]]:
    """Weights in thousandths with one largest weight at least 0.05 above the rest.

    The margin keeps w_max off the 1/2 threshold and the largest class unique,
    so the expected verdicts and Bell labels are unambiguous.
    """
    while True:
        top = rng.randint(550, 900) if activable else rng.randint(320, 450)
        rest = 1000 - top
        a = rng.randint(0, rest)
        b = rng.randint(0, rest - a)
        others = [a, b, rest - a - b]
        if max(others) <= top - 50:
            break
    rng.shuffle(others)
    at = rng.randrange(4)
    millis = others[:at] + [top] + others[at:]
    text = ",".join(f"{m / 1000:.3f}" for m in millis)
    return text, tuple(float(part) for part in text.split(","))


def _state(rng: random.Random, kind: str, cls: str) -> tuple[list[str], tuple[float, ...]]:
    """argv fragment and weights for a class state or a seeded mixture."""
    if kind == "class":
        return ["--class", cls], _class_weights(cls)
    text, weights = _mixture(rng, activable=kind == "activable")
    return ["--noisy", text], weights


def _checklist_block(rng: random.Random, tiny: bool) -> list[Op]:
    # the four classes and one mixture on each side of w_max = 1/2.  A mixture
    # op costs about 1.25x a class op; interleaving keeps every prefix of the
    # stream two-thirds class ops, so the median op is always a class op
    # rather than flipping between the two costs from run to run.
    n = 4 if tiny else 8
    classes = list(CLASSES)
    rng.shuffle(classes)
    kinds = (classes[0], "activable", classes[1], classes[2], "inactive", classes[3])
    ops = []
    for kind in kinds:
        frag, weights = _state(rng, "class" if kind in CLASSES else kind, kind)
        ops.append(Op((("report", *frag, "--n", str(n)),), n, weights))
    return ops


def _activation_block(rng: random.Random, tiny: bool) -> list[Op]:
    n = 6 if tiny else 10
    ops = []
    for kind in ("class", "activable", "class", "inactive"):
        frag, weights = _state(rng, kind, rng.choice(CLASSES))
        keep = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        rest = [q for q in range(1, n + 1) if q not in keep]
        rng.shuffle(rest)
        pairing = tuple(tuple(sorted(rest[i : i + 2])) for i in range(0, len(rest), 2))
        keep_arg = f"{keep[0]},{keep[1]}"
        pairing_arg = ";".join(f"{i},{j}" for i, j in pairing)
        argvs = (
            ("unlock", *frag, "--n", str(n), "--keep", keep_arg, "--pairing", pairing_arg),
            ("discriminate", *frag, "--n", str(n), "--keep", keep_arg),
        )
        ops.append(Op(argvs, n, weights, keep=keep, pairing=pairing))
    return ops


def _verify_block(rng: random.Random, tiny: bool) -> list[Op]:
    n = 4 if tiny else 10
    return [Op((("verify", "--n", str(n)),), n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("checklist", None, _checklist_block),
        Workload("activation", 10, _activation_block),
        Workload("verify-n10", 10, _verify_block),
    )
}


def op_stream(workload: str, seed: int, tiny: bool = False) -> Iterator[Op]:
    """The endless op sequence of one workload; equal seeds give equal ops."""
    rng = random.Random(f"{workload}:{seed}")
    block = WORKLOADS[workload].block
    while True:
        yield from block(rng, tiny)


def ops(workload: str, seed: int, count: int, tiny: bool = False) -> list[Op]:
    return list(itertools.islice(op_stream(workload, seed, tiny), count))


# ---------------------------------------------------------------------------
# verdict gate
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def parse_report(text: str) -> dict:
    """The JSON report; NaN and infinities are not JSON and are refused."""
    return json.loads(text, parse_constant=_reject_constant)


class _Checker:
    def __init__(self):
        self.problems: list[str] = []

    def true(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def close(self, got, want: float, what: str) -> None:
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - want) <= TOL
        self.true(ok, f"{what}: got {got!r}, want {want!r}")


def _dominant(weights: tuple[float, ...]) -> tuple[int, int]:
    return LABELS[max(range(4), key=lambda i: weights[i])]


def _labels_xor(symbols: list[str]) -> tuple[int, int]:
    acc = (0, 0)
    for s in symbols:
        acc = _xor(acc, BELL_LABEL[s])
    return acc


def _check_report(c: _Checker, op: Op, r: dict, goldens: dict) -> None:
    n, weights = op.n, op.weights
    w_max = max(weights)
    activable = w_max > 0.5
    pure = w_max == 1.0
    golden = goldens["per_n"][str(n)]["by_cut_size"]
    c.true(r["qubits"] == n, "qubits")
    c.true(len(r["cuts"]) == 2 ** (n - 1) - 1, "exhaustive cut count")
    for cut in r["cuts"]:
        k = min(len(cut["left"]), n - len(cut["left"]))
        g = golden[str(k)]
        where = f"cut {cut['left']}"
        if pure:
            c.true(cut["ppt"] is g["ppt"], f"{where} ppt")
            c.close(cut["min_eigenvalue"], g["min_eigenvalue"], f"{where} min eigenvalue")
            c.close(cut["negativity"], g["negativity"], f"{where} negativity")
            if k == 1:
                c.close(cut["min_eigenvalue"], -(2.0 ** (1 - n)), f"{where} min eigenvalue rule")
                c.close(cut["negativity"], 0.5, f"{where} negativity rule")
            if k == 2:
                c.true(cut["ppt"] is True, f"{where} pair cut PPT")
        elif g["ppt"]:
            c.true(cut["ppt"] is True, f"{where} PPT like every class state")
        elif k == 1 and activable:
            c.true(cut["ppt"] is False, f"{where} NPT since the state is activable")
    c.true(r["permutation_invariant"] is True, "permutation invariant")
    for cert in r["certificates"]:
        c.true(cert["ok"] is True, f"certificate {cert['pair']}")
        for symbol, lam in cert["weights"].items():
            c.close(lam, 0.25, f"certificate {cert['pair']} weight {symbol}")
    c.true(r["two_vs_rest_separable_certified"] is True, "pair cuts certified")
    act = r["activation"]
    c.true(act["branch_count"] == 4 ** ((n - 2) // 2), "unlock branch count")
    c.close(act["min_fidelity"], w_max, "unlock min fidelity")
    c.true(act["xor_rule_holds"] is True, "unlock XOR rule")
    c.true(act["all_branches_entangled"] is activable, "unlock branches entangled")
    c.true(r["activable"] is activable, f"activable should be {activable}")


def _check_unlock(c: _Checker, op: Op, r: dict, goldens: dict) -> None:
    w_max = max(op.weights)
    base = _dominant(op.weights)
    k = (op.n - 2) // 2
    c.true(r["keep"] == list(op.keep), "keep")
    c.true(r["pairing"] == [list(p) for p in op.pairing], "pairing")
    c.true(len(r["branches"]) == 4**k, "branch count")
    for b in r["branches"]:
        where = f"branch {b['labels']}"
        c.true(len(b["labels"]) == k, f"{where} depth")
        c.close(b["probability"], 4.0**-k, f"{where} probability")
        c.close(b["fidelity"], w_max, f"{where} fidelity")
        want = BELL[_xor(base, _labels_xor(b["labels"]))]
        c.true(b["best_label"] == want, f"{where} XOR rule: got {b['best_label']}, want {want}")
    agg = r["aggregate"]
    c.true(agg["branch_count"] == 4**k, "aggregate branch count")
    c.close(agg["total_probability"], 1.0, "total probability")
    c.close(agg["min_fidelity"], w_max, "min fidelity")
    c.close(agg["max_fidelity"], w_max, "max fidelity")
    c.true(agg["xor_rule_holds"] is True, "xor_rule_holds")


def _check_discriminate(c: _Checker, op: Op, r: dict, goldens: dict) -> None:
    w_max = max(op.weights)
    base = _dominant(op.weights)
    c.true(r["keep"] == list(op.keep), "keep")
    c.true(r["group"] == [q for q in range(1, op.n + 1) if q not in op.keep], "group")
    c.true([o["outcome"] for o in r["outcomes"]] == list(CLASSES), "outcome order")
    for o, label in zip(r["outcomes"], LABELS):
        where = f"outcome {o['outcome']}"
        c.close(o["probability"], 0.25, f"{where} probability")
        c.close(o["kept_pair_fidelity"], w_max, f"{where} fidelity")
        want = BELL[_xor(base, label)]
        c.true(o["kept_pair_best_bell"] == want, f"{where} Bell label: got {o['kept_pair_best_bell']}, want {want}")
    c.close(r["total_probability"], 1.0, "total probability")


def _check_verify(c: _Checker, op: Op, r: dict, goldens: dict) -> None:
    c.true(r["qubits"] == op.n, "qubits")
    c.true(r["passed"] is True and r["failed_checks"] == [], f"verify failed: {r['failed_checks']}")
    scans = [chk for chk in r["checks"] if chk["check"] == "cut-scan"]
    c.true(sorted(chk["state"] for chk in scans) == sorted(CLASSES), "cut scan per class")
    for chk in scans:
        c.true(chk["two_vs_rest_ppt"] is True, f"{chk['state']} pair cuts PPT")
        c.true(chk["one_vs_rest_npt"] is True, f"{chk['state']} one-vs-rest NPT")
        c.close(chk["one_vs_rest_negativity"], 0.5, f"{chk['state']} negativity")


_GATES = {
    "report": _check_report,
    "unlock": _check_unlock,
    "discriminate": _check_discriminate,
    "verify": _check_verify,
}


def check_command(op: Op, argv: tuple[str, ...], exit_code, report_text: str | None, goldens: dict) -> list[str]:
    """Problems with one command's outcome; an empty list means it passed."""
    if exit_code != 0:
        return [f"{argv[0]} exited with {exit_code!r}"]
    if report_text is None:
        return [f"{argv[0]} wrote no JSON report"]
    c = _Checker()
    try:
        report = parse_report(report_text)
        c.true(report.get("command") == argv[0], "command echoed")
        _GATES[argv[0]](c, op, report, goldens)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        c.problems.append(f"malformed report: {exc!r}")
    return [f"{argv[0]}: {p}" for p in c.problems]
