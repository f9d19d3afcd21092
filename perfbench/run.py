"""bcabe benchmark: run one seeded workload through ``bcabe.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload checklist --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json and perfbench/README.md.  The run
measures for --seconds seconds in one closed loop (one client, one process),
checks every op's report against the verdicts its inputs predict, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
runs every op twice, untraced and with every public bcabe function wrapped,
and reports the per-layer metrics and the tracing overhead.  The
line before it holds the environment record and run details, which are also
written with the spans under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
GOLDENS = ROOT / "tests" / "goldens" / "goldens.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_N_VAR = "BCABE_MAX_N"
SETUP_LAUNCHES = 21
TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile
SETUP_CODE = (
    "import time, bcabe.cli as c; c.build_parser(); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def pin_environment(workload: str) -> None:
    """One BLAS thread and the workload's size ceiling; call before numpy loads.

    On a 2-vCPU Xeon VM with OpenBLAS 0.3.31, discriminate at n = 10 ran
    0.64-0.93 s on 2 BLAS threads against 1.27-1.32 s on one, and at n = 6
    0.12 s against 0.004 s, so an unpinned thread count makes every figure
    noise.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    max_n = workloads.WORKLOADS[workload].max_n
    if max_n is None:
        os.environ.pop(MAX_N_VAR, None)
    else:
        os.environ[MAX_N_VAR] = str(max_n)


def load_cli():
    """bcabe.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "bcabe" / "cli.py").is_file():
        raise BenchError(f"no bcabe sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("bcabe.cli")
    if Path(cli.__file__).resolve().parent != src / "bcabe":
        raise BenchError(f"imported bcabe from {cli.__file__}, not from {src}")
    return cli


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree or without git."""
    # the ceiling stops git from reporting an enclosing repository's HEAD
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}" + ("" if kind == "Unified" else f"-{kind.lower()}")] = size
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": _read(Path("/sys/fs/cgroup/cpu.max")),
        "cpu0_caches": caches,
        MAX_N_VAR: os.environ.get(MAX_N_VAR),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def launch_setup() -> float:
    """Seconds from launching a fresh interpreter to build_parser() returning.

    The child prints CLOCK_MONOTONIC, which is system-wide, when it is done.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.split()[-1]) - t0


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def invoke(cli, argv: tuple[str, ...], json_path: Path):
    """Run one command as the console script would; returns its exit code."""
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main([*argv, "--json", str(json_path)])
        except SystemExit as exc:  # argparse usage errors
            return exc.code
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            return f"raised {exc!r}"


def run_op(cli, op, goldens: dict, tracer: tracing.Tracer | None = None, index: int = 0):
    """Run every command of one op and gate its reports; (wall seconds, problems).

    With a tracer, the op runs inside one "op" span; the tracer must be
    installed around the call.
    """
    paths = [OUT_DIR / f"report-{k}.json" for k in range(len(op.argvs))]
    for p in paths:
        p.unlink(missing_ok=True)
    if tracer:
        tracer.begin_op(index)
        span = tracer.open(tracer.span_id("op"))
    t0 = time.perf_counter()
    codes = [invoke(cli, argv, path) for argv, path in zip(op.argvs, paths)]
    latency = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    problems = []
    for argv, code, path in zip(op.argvs, codes, paths):
        text = path.read_text() if path.is_file() else None
        problems += workloads.check_command(op, argv, code, text, goldens)
    return latency, problems


def run_phase(
    cli, stream, seconds: float, goldens: dict, tracer: tracing.Tracer | None = None, launches: int = 0
) -> dict:
    """Closed loop over `stream` for about `seconds`; at least one op.

    The next op starts only if the median op so far would still end before
    the deadline, so long ops do not overrun the run.  `launches` set-up
    launches run between ops, spread evenly over the phase: the machine's
    speed drifts over tens of seconds, and set-up should sample the same
    stretch of time as the ops rather than only its first second.

    With a tracer, every op runs twice, untraced and traced, in an order that
    alternates from op to op, so the two rates compare the same ops over the
    same stretch of machine time.  "latencies" holds the untraced runs and
    "traced" the traced ones.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    latencies: list[float] = []
    traced: list[float] = []
    steps: list[float] = []
    problems: list[str] = []
    setup: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    for i, op in enumerate(stream):
        step = time.perf_counter()
        order = (False,) if tracer is None else (False, True) if i % 2 == 0 else (True, False)
        for with_tracer in order:
            if with_tracer:
                with tracer.installed():
                    latency, op_problems = run_op(cli, op, goldens, tracer, i)
                traced.append(latency)
            else:
                latency, op_problems = run_op(cli, op, goldens)
                latencies.append(latency)
            attempted += 1
            if op_problems:
                failed += 1
                problems += [f"op {i} {' '.join(op.argvs[0])}: {p}" for p in op_problems[:3]]
        steps.append(time.perf_counter() - step)
        while len(setup) < launches * min(1.0, (time.perf_counter() - start) / seconds):
            setup.append(launch_setup())
        if time.perf_counter() + statistics.median(steps) > start + seconds:
            break
    setup += [launch_setup() for _ in range(launches - len(setup))]
    return {
        "latencies": latencies,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "setup": setup,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond it) at the highest percentile with
    TAIL_BEYOND ops above it; the maximum when the run has too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(phase: dict) -> tuple[dict, dict]:
    lat, setup = phase["latencies"], phase["setup"]
    tail_s, tail_pct, beyond = tail(lat)
    # The fastest launch, not the median: on a host whose speed swings for
    # seconds at a time the median of launches follows the slow stretches,
    # while work added to set-up slows every launch, the fastest too.
    metrics = {
        "setup_s": (min(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((phase["attempted"] - phase["failed"]) / phase["attempted"], "ratio"),
    }
    detail = {
        "ops": len(lat),
        "tail_percentile": tail_pct,
        "tail_ops_beyond": beyond,
        "setup_samples_s": setup,
        "latencies_s": lat,
    }
    return metrics, detail


def run_workload(
    cli,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    goldens: dict,
    tiny: bool = False,
    launches: int = SETUP_LAUNCHES,
):
    """One benchmark run; returns (result object, detail record, tracer or None)."""
    # one tiny op warms imports; one untimed launch compiles bytecode in a fresh checkout
    warmup = next(workloads.op_stream(workload, seed, tiny=True))
    run_phase(cli, iter([warmup]), 1.0, goldens)
    stream = workloads.op_stream(workload, seed, tiny)
    if not trace:
        launch_setup()
        phase = run_phase(cli, stream, seconds, goldens, launches=launches)
        metrics, detail = end_to_end(phase)
        tracer = None
    else:
        tracer = tracing.Tracer()
        phase = run_phase(cli, stream, seconds, goldens, tracer)
        metrics = tracer.metrics(len(phase["traced"]))
        rates = [len(lat) / sum(lat) for lat in (phase["latencies"], phase["traced"])]
        metrics["trace.untraced_ops_per_s"] = (rates[0], "1/s")
        metrics["trace.traced_ops_per_s"] = (rates[1], "1/s")
        metrics["trace.overhead_share"] = (1.0 - rates[1] / rates[0], "ratio")
        detail = {"ops": len(phase["traced"]), "spans": len(tracer.start)}
    detail["problems"] = phase["problems"]
    result = {
        "correct": phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        pin_environment(args.workload)
        cli = load_cli()
        goldens = load_goldens()
        result, detail, tracer = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), goldens)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(), "detail": detail, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT_DIR / f"{stem}.spans.npz")
    print(json.dumps({k: record[k] for k in ("environment", "detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
