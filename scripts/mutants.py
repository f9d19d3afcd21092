#!/usr/bin/env python3
"""Mutation probe of the verdict logic: does some test fail on each mutant?

Each mutant is one exact string replacement in one file under src/bcabe/. For
each, the repository (without .git) is copied to a temporary directory, the
replacement is applied there, and `pytest -q -x tests` runs in that copy; the
working tree is never touched. A mutant is killed when the suite fails on it.
The unmutated copy runs first, so a suite that already fails is reported
instead of counting every mutant as killed.

Standard library only. Not part of the test suite or of CI; a full run takes
several minutes (a surviving mutant costs one whole suite run).

Run:  python scripts/mutants.py            # every mutant
      python scripts/mutants.py NAME ...   # only these
Exit status: 0 if every mutant run was killed, 1 if one survived, 2 on a bad
mutant (its text not found exactly once) or a failing unmutated suite.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/bcabe, text, replacement)
MUTANTS = [
    # analyze.classify_abe: each conjunct of the ABE verdict
    ("activable-without-certificates", "analyze.py",
     "and evidence.two_vs_rest_separable_certified and all_entangled",
     "and all_entangled"),
    ("activable-without-permutation-invariance", "analyze.py",
     "evidence.two_vs_rest_ppt and evidence.permutation_invariant\n",
     "evidence.two_vs_rest_ppt\n"),
    ("branches-entangled-any-not-all", "analyze.py",
     "all_entangled = not any(v.ppt for v in",
     "all_entangled = any(not v.ppt for v in"),
    # protocol: the XOR rule and the live-branch floors
    ("xor-rule-always-holds", "protocol.py",
     "xor_rule = implied.size > 0 and bool((implied == implied[0]).all())",
     "xor_rule = implied.size > 0"),
    ("bell-measure-floor-1e-3", "protocol.py",
     "post = DensityMatrix(rest, (rows, cols, vals / p)) if p > TOL.zero_probability else None",
     "post = DensityMatrix(rest, (rows, cols, vals / p)) if p > 1e-3 else None"),
    ("unlock-floor-1e-3", "protocol.py",
     "live = probs > TOL.zero_probability",
     "live = probs > 1e-3"),
    # analyze.check_family: the family checks
    ("orthogonality-always-passes", "analyze.py",
     'Check("mutual-orthogonality", "all", overlap < TOL.equality,',
     'Check("mutual-orthogonality", "all", True,'),
    ("triangle-only-direct-vs-pauli", "analyze.py",
     "max(d.values()) < TOL.equality",
     'd["direct_vs_pauli"] < TOL.equality'),
    # analyze.gather_evidence: a certificate may not contradict an NPT verdict
    ("certificate-contradiction-unchecked", "analyze.py",
     "if cert.ok and frozenset(cert.pair) in npt_sides:",
     "if False:"),
    # PPT verdicts and the cut scan
    ("ppt-threshold-10x-looser", "analyze.py",
     "threshold = ppt * max(1.0, float(one_norm))",
     "threshold = 10 * ppt * max(1.0, float(one_norm))"),
    ("scan-without-half-half-cut", "analyze.py",
     "for k in range(1, n // 2 + 1)]",
     "for k in range(1, n // 2)]"),
    ("cut-scan-line-ignores-one-vs-rest", "analyze.py",
     "self.two_vs_rest_ppt and one_npt, scan)",
     "self.two_vs_rest_ppt, scan)"),
    ("bell-diagonal-rule-ge", "analyze.py",
     "rule = w > 0.5",
     "rule = w >= 0.5"),
    # permutation invariance
    ("permutation-check-always-passes", "analyze.py",
     "return worst < TOL.invariance, worst",
     "return True, worst"),
    ("permutation-check-skips-transposition-1-n", "analyze.py",
     "for j in range(2, n + 1):",
     "for j in range(2, n):"),
    # pair certificates
    ("certificate-psd-floor-disabled", "analyze.py",
     "(lo := next(floors)) < -TOL.psd",
     "(lo := next(floors)) < -1e300"),
    ("certificate-residual-bound-disabled", "analyze.py",
     "if err > TOL.certificate:",
     "if err > 1e300:"),
    ("certificates-keep-every-residual", "analyze.py",
     "    return outcomes, norm_of(add_entries(4 * rest, parts)[2])",
     "    _measure.kept = getattr(_measure, 'kept', []) + [parts]\n"
     "    return outcomes, norm_of(add_entries(4 * rest, parts)[2])"),
    ("all-pairs-certified-only-up-to-n4", "analyze.py",
     "if n <= 6:\n        return pairs",
     "if n <= 4:\n        return pairs"),
    # linalg.pt_spectra: the one partial-transpose solve
    ("pt-spectra-skips-unvalidated-check", "linalg.py",
     "        if not state.validated():\n            _check_hermitian(",
     "        if False:\n            _check_hermitian("),
    ("stack-rows-without-state-offset", "linalg.py",
     "(r + g * dim, c + g * dim, v)",
     "(r, c + g * dim, v)"),
    # linalg._rotation, which the sweeps and the paired route share: the identity off `sel`
    ("rotation-scales-unselected-pairs", "linalg.py",
     "c = np.where(sel, 1.0 / np.sqrt(1.0 + t * t), 1.0)",
     "c = 1.0 / np.sqrt(1.0 + t * t)"),
    # linalg._paired: the one exact rotation per paired 2 x 2 block
    ("paired-row-step-s-not-conj", "linalg.py",
     "n00 * c + s.conjugate() * n10",
     "n00 * c + s * n10"),
    ("paired-rotates-converged-matrices", "linalg.py",
     "_rotation(apq, a00, a11, sel & busy)",
     "_rotation(apq, a00, a11, sel)"),
    ("paired-accepts-two-partners", "linalg.py",
     "if not ((mate[i] == j).all() and (mate[j] == i).all()):",
     "if not (mate[i] == j).all():"),
]


def run_suite(tree: Path) -> tuple[bool, str, float]:
    """Whether `pytest -q -x tests` passes in `tree`, the first failing test, and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
                          cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else "", time.perf_counter() - t0


def copy_tree(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    return tree


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    for name, path, text, _ in chosen:
        if (ROOT / "src" / "bcabe" / path).read_text().count(text) != 1:
            print(f"{name}: its text is not found exactly once in src/bcabe/{path}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        passed, failed, secs = run_suite(copy_tree(Path(tmp)))
    if not passed:
        print(f"the unmutated suite fails ({failed or 'see pytest'}); no mutant was run", file=sys.stderr)
        return 2
    print(f"unmutated suite passes ({secs:.0f} s)")
    survivors = []
    for name, path, text, replacement in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            target = tree / "src" / "bcabe" / path
            target.write_text(target.read_text().replace(text, replacement))
            passed, failed, secs = run_suite(tree)
        if passed:
            survivors.append(name)
        print(f"{'SURVIVED' if passed else 'killed  '} {name} ({secs:.0f} s){'' if passed else ' by ' + failed}",
              flush=True)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed" + (f"; survived: {', '.join(survivors)}"
                                                                     if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
