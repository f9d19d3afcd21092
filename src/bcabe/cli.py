"""Command-line front end.

Subcommands: construct, verify, unlock, discriminate, noisy-scan, report.
Every command assembles one report object; JSON is the single structured
output (floats at 17 significant digits, negative zeros normalized, fixed
key order) and the text mode is the same object rendered for a terminal.
Exit codes: 0 pass, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json as _json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import analyze, protocol
from .basis import BELL_LABELS
from .config import MAX_QUBITS_ENV, TOL, max_qubits
from .construct import (
    SCAN_LINES,
    NoisyWeights,
    StateClass,
    noisy_state,
    projector_direct,
)
from .linalg import DensityMatrix, dump_matrix, format_float

gc.freeze()  # the modules above live as long as the process: full collections skip them

USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_POINTS = 10001  # noisy-scan grid: w in steps of 1e-4
DUMP_MATRIX = "dump_matrix"  # report key carrying construct's matrix to main
TIMINGS = "timings"  # report key carrying a command's stage times to main


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


_quote = _json.encoder.encode_basestring_ascii  # the bytes json.dumps gives a str
_PLAIN = frozenset((str, int, bool, type(None)))  # rendered as text by str(v)


def render_json(obj, indent: int = 0) -> str:
    """Byte-stable JSON in one pass: insertion-ordered keys, %.17g floats, no -0.0.

    A non-finite float raises ValueError (JSON has no nan or inf); a value of no JSON type, TypeError."""
    out: list[str] = []
    _json_walk(obj, "\n" + "  " * indent, out.append)
    return "".join(out)


def _json_walk(obj, nl: str, put) -> None:
    t = type(obj)  # the exact types a report holds come first
    if t is str:
        put(_quote(obj))
    elif t is float:
        if not math.isfinite(obj):
            raise ValueError(f"report value {obj!r} is not finite and has no JSON form")
        put(format_float(obj))
    elif t is dict or t is list or t is tuple:
        inner, (opening, closing) = nl + "  ", "{}" if t is dict else "[]"
        sep = opening + inner
        for k, v in obj.items() if t is dict else enumerate(obj):
            put(f"{sep}{_quote(str(k))}: " if t is dict else sep)
            _json_walk(v, inner, put)
            sep = "," + inner
        put(nl + closing if obj else opening + closing)
    elif t is int:
        put(str(obj))
    elif t is bool or obj is None:
        put("null" if obj is None else "true" if obj else "false")
    else:  # a subclass, such as np.float64 or np.int64, renders as its built-in base
        base = next((b for b in (dict, list, tuple, float, int, np.integer, str) if isinstance(obj, b)), None)
        if base is None:
            raise TypeError(f"cannot serialize {type(obj)!r}")
        _json_walk(int(obj) if base is np.integer else base(obj), nl, put)


def render_text(obj, indent: int = 0) -> str:
    """Terminal rendering of the same report object, one newline-ended line per entry."""
    pad = "  " * indent
    if not isinstance(obj, (dict, list, tuple)):
        return f"{pad}{_scalar_text(obj)}\n"
    out: list[str] = []
    _text_walk(obj, pad, out.append)
    return "".join(out)


def _text_walk(obj, pad: str, put) -> None:
    is_dict = isinstance(obj, dict)
    for k, v in obj.items() if is_dict else enumerate(obj):
        head = f"{pad}{k}:" if is_dict else f"{pad}-"
        t = type(v)
        if t in _PLAIN:
            put(f"{head} {v}\n")
        elif t is not float and isinstance(v, (dict, list, tuple)) and (v or not is_dict):
            put(f"{head}\n")  # a list shows an empty container as a bare "-"
            _text_walk(v, pad + "  ", put)
        else:
            put(f"{head} {format_float(v) if t is float else _scalar_text(v)}\n")


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (dict, list, tuple)) and not v:
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    command: str
    state_class: StateClass | None
    weights: NoisyWeights | None
    n: int
    keep: tuple[int, int] | None
    pairing: tuple[tuple[int, int], ...] | None
    ppt: float
    json_path: str | None
    dump_path: str | None
    line: str | None  # noisy-scan only
    points: int | None  # noisy-scan only
    include_timings: bool

    @property
    def descriptor(self) -> str:  # read only once state() has found a state
        return f"{(self.state_class or self.weights).descriptor} n={self.n}"

    def state(self) -> DensityMatrix:
        if self.state_class is not None:
            return projector_direct(self.state_class, self.n)
        if self.weights is not None:
            return noisy_state(self.weights, self.n)
        raise ConfigError("no state given: use --class or --noisy")


def _parse_pair(text: str) -> tuple[int, int]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ConfigError(f"expected i,j — got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _parse_pairing(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(_parse_pair(chunk) for chunk in text.split(";") if chunk.strip())


def _same_file(a: str, b: str) -> bool:
    """One path, or two existing names (hard links included) of one file."""
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet names no other file
        return False


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # every subcommand defines --n, --json, --timings and --tol-ppt; only some define the rest
    state_class = StateClass.parse(args.state_class) if getattr(args, "state_class", None) else None
    weights = NoisyWeights.parse(args.noisy) if getattr(args, "noisy", None) else None
    if state_class is not None and weights is not None:
        raise ConfigError("--class and --noisy are mutually exclusive")
    n, ceiling = args.n, max_qubits()
    if n % 2 or not 4 <= n <= ceiling:
        raise ConfigError(
            f"--n must be even with 4 <= n <= {ceiling} "
            f"(set {MAX_QUBITS_ENV} to raise the ceiling); got {n}"
        )
    keep = _parse_pair(args.keep) if getattr(args, "keep", None) else None
    if keep is not None and (keep[0] == keep[1] or not set(keep) <= set(range(1, n + 1))):
        raise ConfigError(f"--keep must be two distinct qubits of 1..{n}; got {args.keep!r}")
    ppt = args.tol_ppt
    if not (math.isfinite(ppt) and ppt > 0):
        raise ConfigError("--tol-ppt must be finite and positive")
    dump = getattr(args, "dump", None)
    if args.json and dump and _same_file(args.json, dump):
        raise ConfigError(f"--dump and --json name the same file: {dump!r}")
    points = getattr(args, "points", None)
    if points is not None and not 3 <= points <= MAX_POINTS:
        raise ConfigError(f"--points must be between 3 and {MAX_POINTS}; got {points}")
    return RunConfig(
        command=args.command,
        state_class=state_class,
        weights=weights,
        n=n,
        keep=keep,
        pairing=_parse_pairing(args.pairing) if getattr(args, "pairing", None) else None,
        ppt=ppt,
        json_path=args.json,
        dump_path=dump,
        line=getattr(args, "line", None),
        points=points,
        include_timings=args.timings,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(cfg: RunConfig) -> tuple[dict, bool]:
    state = cfg.state()
    matrix = state.matrix  # refused over the dense budget, before any output
    state.validate()
    eigs = state.eigenvalues()
    rank = int((eigs > 1e-8).sum())
    report = {
        "state": cfg.descriptor,
        "qubits": cfg.n,
        "dim": state.dim,
        "trace": state.trace(),
        "rank": rank,
        "max_eigenvalue": float(eigs[-1]),
        "dump": cfg.dump_path or "stdout",
        "checks": ["trace-normalization", "rank"],
        # dumped by main once the JSON report is out, then dropped from it
        DUMP_MATRIX: matrix,
    }
    return report, True


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    states, checks = analyze.check_family(cfg.n)
    # one state's evidence at a time: it holds every certificate's factor states
    per_state = [analyze.gather_evidence(rho, cfg.ppt).checks(cls.descriptor) for cls, rho in states.items()]
    checks += [c for lines in zip(*per_state) for c in lines]
    failed = [c for c in checks if not c.passed]
    report = {
        "qubits": cfg.n,
        "passed": not failed,
        "failed_checks": [f"{c.name}[{c.state}]" for c in failed],
        "checks": [
            {"check": c.name, "state": c.state, "passed": c.passed, **c.detail} for c in checks
        ],
    }
    return report, not failed


def cmd_unlock(cfg: RunConfig) -> tuple[dict, bool]:
    state = cfg.state()
    result = protocol.unlock_sequential(state, cfg.keep, cfg.pairing)
    branches = [
        {
            "labels": [lb.symbol for lb in b.labels],
            "probability": b.probability,
            "fidelity": b.fidelity,
            "best_label": b.best_label.symbol if b.best_label else None,
        }
        for b in result.branches
    ]
    ok = cfg.state_class is None or result.min_fidelity >= 1 - TOL.fidelity
    report = {
        "state": cfg.descriptor,
        "keep": list(result.keep),
        "pairing": [list(p) for p in result.pairing],
        "branches": branches,
        "aggregate": {
            "branch_count": len(result.branches),
            "total_probability": result.total_probability,
            "min_fidelity": result.min_fidelity,
            "max_fidelity": max((b.fidelity for b in result.branches if b.fidelity is not None), default=0.0),
            "xor_rule_holds": result.xor_rule_holds,
        },
        "checks": ["branch-enumeration", "bell-fidelity", "xor-label-rule"],
    }
    return report, ok


def cmd_discriminate(cfg: RunConfig) -> tuple[dict, bool]:
    state = cfg.state()
    group = tuple(q for q in range(1, cfg.n + 1) if q not in cfg.keep)
    outcomes = protocol.discriminate_subspace(state, group)
    live = [o.post_state.matrix for o in outcomes if o.post_state is not None]
    found = zip(*(a.tolist() for a in protocol.best_bell(np.array(live).reshape(-1, 4, 4))))
    rows = []
    total = 0.0
    for o in outcomes:
        total += o.probability
        best, fid = next(found) if o.post_state is not None else (None, None)
        rows.append({
            "outcome": o.label.descriptor,
            "probability": o.probability,
            "kept_pair_best_bell": None if best is None else BELL_LABELS[best].symbol,
            "kept_pair_fidelity": fid,
        })
    ok = abs(total - 1.0) < TOL.probability
    report = {
        "state": cfg.descriptor,
        "keep": list(cfg.keep),
        "group": list(group),
        "outcomes": rows,
        "total_probability": total,
        "checks": ["subspace-discrimination", "bell-fidelity"],
    }
    return report, ok


def cmd_noisy_scan(cfg: RunConfig) -> tuple[dict, bool]:
    rows = []
    agree_everywhere = True
    for i in range(cfg.points):
        w = i / (cfg.points - 1)
        weights = SCAN_LINES[cfg.line](w)
        verdict = analyze.bell_diagonal_entangled(weights, cfg.ppt)
        ppt_rows = verdict.ppt_verdicts
        agree = all((not v.ppt) == verdict.entangled for v in ppt_rows)
        agree_everywhere = agree_everywhere and agree
        unlocked = protocol.unlock_sequential(noisy_state(weights, cfg.n), (1, 2))
        best = max((b.fidelity for b in unlocked.branches if b.fidelity is not None), default=0.0)
        rows.append(
            {
                "w": w,
                "w_max": verdict.w_max,
                "entangled": verdict.entangled,
                "ppt": ppt_rows[0].ppt,
                "min_pt_eigenvalue": ppt_rows[0].min_eigenvalue,
                "negativity": ppt_rows[0].negativity,
                "unlocked_pair_fidelity": best,
                "rule_agrees_with_ppt": agree,
            }
        )
    flips = [[a["w"], b["w"]] for a, b in zip(rows, rows[1:]) if a["entangled"] != b["entangled"]]
    # no flip is a pass too: an even grid misses w = 1/2, the two-term line's one separable point
    flips_at_half = all(a <= 0.5 <= b for a, b in flips)
    ok = agree_everywhere and flips_at_half
    report = {
        "qubits": cfg.n,
        "line": cfg.line,
        "points": cfg.points,
        "rows": rows,
        "summary": {
            "flips": flips,
            "all_flips_bracket_half": flips_at_half,
            "rule_agrees_with_ppt_everywhere": agree_everywhere,
        },
        "checks": ["largest-weight-rule", "ppt-cross-check", "unlock-fidelity"],
    }
    return report, ok


def cmd_report(cfg: RunConfig) -> tuple[dict, bool]:
    state = cfg.state()
    rep = analyze.classify_abe(state, cfg.descriptor, cfg.ppt)
    cuts = [
        {
            "left": list(v.cut.left),
            "min_eigenvalue": v.min_eigenvalue,
            "negativity": v.negativity,
            "ppt": v.ppt,
        }
        for v in rep.cut_verdicts
    ]
    certs = [
        {
            "pair": list(c.pair),
            "weights": {lb.symbol: w for lb, w in c.weights.items()},  # in BELL_LABELS order
            "reconstruction_error": c.reconstruction_error,
            "ok": c.ok,
        }
        for c in rep.certificates
    ]
    report = {
        "state": rep.descriptor,
        "qubits": rep.qubits,
        "cuts": cuts,
        "permutation_invariant": rep.permutation_invariant,
        "max_permutation_deviation": rep.max_permutation_deviation,
        "certificates": certs,
        "two_vs_rest_separable_certified": rep.two_vs_rest_separable_certified,
        "activation": asdict(rep.activation),
        "activable": rep.activable,
        "checks": ["cut-scan", "permutation-invariance", "two-vs-rest-certificates", "activation-protocol"],
        TIMINGS: rep.timings,  # the stage split main reports under --timings
    }
    return report, True


COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "unlock": cmd_unlock,
    "discriminate": cmd_discriminate,
    "noisy-scan": cmd_noisy_scan,
    "report": cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache  # one tree per process: main() only parses with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcabe",
        description="Construct, verify, and activate the four bound-entangled projector states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_args = argparse.ArgumentParser(add_help=False)  # every command takes these three
    report_args.add_argument("--tol-ppt", type=float, default=TOL.ppt, help="override the PPT eigenvalue tolerance")
    report_args.add_argument("--json", metavar="PATH", help="write the JSON report to PATH")
    report_args.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")

    state_args = argparse.ArgumentParser(add_help=False, parents=[report_args])
    state_args.add_argument("--class", dest="state_class", metavar="CLS", help="rho+ | rho- | sigma+ | sigma-")
    state_args.add_argument("--noisy", metavar="W", help="x+,x-,y+,y- convex weights")
    state_args.add_argument("--n", type=int, required=True, help="even qubit count (4..ceiling)")

    p = sub.add_parser("construct", parents=[state_args], help="build a state and dump its matrix")
    p.add_argument("--dump", metavar="PATH", help="write the matrix dump here instead of stdout")

    p = sub.add_parser("verify", parents=[report_args], help="run the full verification checklist at one size")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("unlock", parents=[state_args], help="sequential pairwise Bell measurements")
    p.add_argument("--keep", metavar="i,j", default="1,2", help="pair left untouched (default 1,2)")
    p.add_argument("--pairing", metavar="i,j;k,l", help="explicit measured pairing")

    p = sub.add_parser("discriminate", parents=[state_args],
                       help="joint subspace discrimination by the grouped qubits")
    p.add_argument("--keep", metavar="i,j", default="1,2", help="pair left out of the group (default 1,2)")

    p = sub.add_parser("noisy-scan", parents=[report_args],
                       help="sweep mixture weights and locate the w>1/2 transition")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--line", choices=tuple(SCAN_LINES), default="two-term")
    p.add_argument("--points", type=int, default=101)

    sub.add_parser("report", parents=[state_args], help="full classification report for one state")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        t0 = time.perf_counter()
        body, ok = COMMANDS[cfg.command](cfg)
        timings = body.pop(TIMINGS, None) or {"total": time.perf_counter() - t0}
        matrix = body.pop(DUMP_MATRIX, None)
        # every report opens with its command and closes with the thresholds in use
        report = {"command": cfg.command, **body, "tolerances": {**TOL.as_dict(), "ppt": cfg.ppt}}
        if cfg.include_timings:
            report[TIMINGS] = timings
        payload = render_json(report) + "\n"
        if cfg.json_path:
            with open(cfg.json_path, "w") as fh:
                fh.write(payload)
        if matrix is not None and cfg.dump_path:
            with open(cfg.dump_path, "w") as fh:
                fh.writelines(dump_matrix(matrix))
        text = render_text(report)
        if matrix is not None and not cfg.dump_path:
            sys.stdout.writelines(dump_matrix(matrix))
        stream = sys.stderr if cfg.command == "construct" and not cfg.dump_path else sys.stdout
        stream.write(text)
        sys.stdout.flush()
    except (ValueError, OSError, MemoryError) as exc:
        # the interpreter flushes both streams again at exit; that must not fail a second time
        for stream, text in ((sys.stdout, ""), (sys.stderr, f"error: {str(exc) or type(exc).__name__}\n")):
            try:
                stream.write(text)
                stream.flush()
            except OSError:  # the stream cannot take what it holds: let the null device have it
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return USAGE_ERROR
    return 0 if ok else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
