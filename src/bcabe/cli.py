"""Command-line front end.

Subcommands: construct, verify, unlock, discriminate, noisy-scan, report.
Every command assembles one report object; JSON is the single structured
output (floats at 17 significant digits, negative zeros normalized, fixed
key order) and the text mode is the same object rendered for a terminal.
Exit codes: 0 pass, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json as _json
import math
import os
import sys
import time
from dataclasses import asdict

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
from .linalg import DensityMatrix, check_dense_budget, dump_matrix, format_float

gc.freeze()  # the modules above live as long as the process: full collections skip them

USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_POINTS = 10001  # noisy-scan grid: w in steps of 1e-4
DUMP_STATE = "dump_state"  # report key carrying construct's state to main
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


def _state(args: argparse.Namespace) -> DensityMatrix:
    if args.state_class:
        return projector_direct(args.state_class, args.n)
    if args.noisy:
        return noisy_state(args.noisy, args.n)
    raise ConfigError("no state given: use --class or --noisy")


def _descriptor(args: argparse.Namespace) -> str:  # read only once _state() has found a state
    return f"{(args.state_class or args.noisy).descriptor} n={args.n}"


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(p) for p in text.split(",") if p.strip())
    except ValueError:  # not two parts, or a part that is not an integer
        raise ConfigError(f"expected i,j — got {text!r}") from None
    return (i, j)


def _same_file(a: str, b: str) -> bool:
    """One path, or two existing names (hard links included) of one file."""
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet names no other file
        return False


def _check_args(args: argparse.Namespace) -> None:
    """Check the parsed options and convert them in place, each under its argv name."""
    args.state_class = StateClass.parse(args.state_class) if args.state_class else None
    args.noisy = NoisyWeights.parse(args.noisy) if args.noisy else None
    if args.state_class and args.noisy:
        raise ConfigError("--class and --noisy are mutually exclusive")
    n, ceiling = args.n, max_qubits()
    if n % 2 or not 4 <= n <= ceiling:
        raise ConfigError(
            f"--n must be even with 4 <= n <= {ceiling} "
            f"(set {MAX_QUBITS_ENV} to raise the ceiling); got {n}"
        )
    if args.keep is not None:
        text, args.keep = args.keep, _parse_pair(args.keep)
        if args.keep[0] == args.keep[1] or not set(args.keep) <= set(range(1, n + 1)):
            raise ConfigError(f"--keep must be two distinct qubits of 1..{n}; got {text!r}")
        args.keep = tuple(sorted(args.keep))
    if not (math.isfinite(args.tol_ppt) and args.tol_ppt > 0):
        raise ConfigError("--tol-ppt must be finite and positive")
    if args.json and args.dump and _same_file(args.json, args.dump):
        raise ConfigError(f"--dump and --json name the same file: {args.dump!r}")
    if args.points is not None and not 3 <= args.points <= MAX_POINTS:
        raise ConfigError(f"--points must be between 3 and {MAX_POINTS}; got {args.points}")
    # an empty --pairing means the default one
    args.pairing = tuple(_parse_pair(c) for c in args.pairing.split(";") if c.strip()) if args.pairing else None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> tuple[dict, bool]:
    check_dense_budget(args.n)  # the dump has 4**n lines: refused before the state is built
    state = _state(args)
    state.validate()
    eigs = state.eigenvalues()
    rank = int((eigs > 1e-8).sum())
    report = {
        "state": _descriptor(args),
        "qubits": args.n,
        "dim": state.dim,
        "trace": state.trace(),
        "rank": rank,
        "max_eigenvalue": float(eigs[-1]),
        "dump": args.dump or "stdout",
        "checks": ["trace-normalization", "rank"],
        DUMP_STATE: state,  # dumped by main once the JSON report is out, then dropped from it
    }
    return report, True


def cmd_verify(args: argparse.Namespace) -> tuple[dict, bool]:
    states, checks = analyze.check_family(args.n)
    # one state's evidence at a time: it holds every certificate's factor states
    per_state = [analyze.gather_evidence(rho, args.tol_ppt).checks(cls.descriptor) for cls, rho in states.items()]
    checks += [c for lines in zip(*per_state) for c in lines]
    failed = [c for c in checks if not c.passed]
    report = {
        "qubits": args.n,
        "passed": not failed,
        "failed_checks": [f"{c.name}[{c.state}]" for c in failed],
        "checks": [
            {"check": c.name, "state": c.state, "passed": c.passed, **c.detail} for c in checks
        ],
    }
    return report, not failed


def cmd_unlock(args: argparse.Namespace) -> tuple[dict, bool]:
    result = protocol.unlock_sequential(_state(args), args.keep, args.pairing)
    branches = [
        {
            "labels": [lb.symbol for lb in b.labels],
            "probability": b.probability,
            "fidelity": b.fidelity,
            "best_label": b.best_label.symbol if b.best_label else None,
        }
        for b in result.branches
    ]
    ok = args.state_class is None or result.min_fidelity >= 1 - TOL.fidelity
    report = {
        "state": _descriptor(args),
        "keep": list(result.keep),
        "pairing": [list(p) for p in result.pairing],
        "branches": branches,
        "aggregate": {
            "branch_count": len(result.branches),
            "total_probability": result.total_probability,
            "min_fidelity": result.min_fidelity,
            "max_fidelity": result.max_fidelity,
            "xor_rule_holds": result.xor_rule_holds,
        },
        "checks": ["branch-enumeration", "bell-fidelity", "xor-label-rule"],
    }
    return report, ok


def cmd_discriminate(args: argparse.Namespace) -> tuple[dict, bool]:
    group = tuple(q for q in range(1, args.n + 1) if q not in args.keep)
    outcomes = protocol.discriminate_subspace(_state(args), group)
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
        "state": _descriptor(args),
        "keep": list(args.keep),
        "group": list(group),
        "outcomes": rows,
        "total_probability": total,
        "checks": ["subspace-discrimination", "bell-fidelity"],
    }
    return report, ok


def cmd_noisy_scan(args: argparse.Namespace) -> tuple[dict, bool]:
    rows = []
    agree_everywhere = True
    for i in range(args.points):
        w = i / (args.points - 1)
        weights = SCAN_LINES[args.line](w)
        verdict = analyze.bell_diagonal_entangled(weights, args.tol_ppt)
        ppt_rows = verdict.ppt_verdicts
        agree = all((not v.ppt) == verdict.entangled for v in ppt_rows)
        agree_everywhere = agree_everywhere and agree
        unlocked = protocol.unlock_sequential(noisy_state(weights, args.n), (1, 2))
        rows.append(
            {
                "w": w,
                "w_max": verdict.w_max,
                "entangled": verdict.entangled,
                "ppt": ppt_rows[0].ppt,
                "min_pt_eigenvalue": ppt_rows[0].min_eigenvalue,
                "negativity": ppt_rows[0].negativity,
                "unlocked_pair_fidelity": unlocked.max_fidelity,
                "rule_agrees_with_ppt": agree,
            }
        )
    flips = [[a["w"], b["w"]] for a, b in zip(rows, rows[1:]) if a["entangled"] != b["entangled"]]
    # no flip is a pass too: an even grid misses w = 1/2, the two-term line's one separable point
    flips_at_half = all(a <= 0.5 <= b for a, b in flips)
    ok = agree_everywhere and flips_at_half
    report = {
        "qubits": args.n,
        "line": args.line,
        "points": args.points,
        "rows": rows,
        "summary": {
            "flips": flips,
            "all_flips_bracket_half": flips_at_half,
            "rule_agrees_with_ppt_everywhere": agree_everywhere,
        },
        "checks": ["largest-weight-rule", "ppt-cross-check", "unlock-fidelity"],
    }
    return report, ok


def cmd_report(args: argparse.Namespace) -> tuple[dict, bool]:
    rep = analyze.classify_abe(_state(args), args.tol_ppt)
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
        "state": _descriptor(args),
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
    # every subcommand's namespace holds every option: None where it takes none
    parser.set_defaults(state_class=None, noisy=None, keep=None, pairing=None, dump=None, line=None, points=None)
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
        _check_args(args)
        t0 = time.perf_counter()
        body, ok = COMMANDS[args.command](args)
        timings = body.pop(TIMINGS, None) or {"total": time.perf_counter() - t0}
        state = body.pop(DUMP_STATE, None)
        # every report opens with its command and closes with the thresholds in use
        report = {"command": args.command, **body, "tolerances": {**TOL.as_dict(), "ppt": args.tol_ppt}}
        if args.timings:
            report[TIMINGS] = timings
        payload = render_json(report) + "\n"
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(payload)
        if state is not None:
            with open(args.dump, "w") if args.dump else contextlib.nullcontext(sys.stdout) as fh:
                fh.writelines(dump_matrix(state.dim, *state.entries()))
        stream = sys.stderr if args.command == "construct" and not args.dump else sys.stdout
        stream.write(render_text(report))
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
