"""Span recorder that wraps bcabe's public functions from outside the package.

While installed, every public function of the measured modules (and the two
``DensityMatrix`` methods below) is replaced, in every ``bcabe`` module
namespace and dict that binds it, by a wrapper that records one span per
call: name, start, end, parent span and op id.  Spans stay in memory in
columnar arrays until the run ends.  A span's self time is its duration
minus the durations of its child spans; a layer's self time is the sum over
its spans, so the layers' self times within an op never exceed the op.

A call made directly inside a span of the same name (recursion, or one
grouped function calling another) belongs to the outer span, so
``projector_recursive`` and the ``render_*`` functions count outermost calls
only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from contextlib import contextmanager

LAYERS = ("cli", "analyze", "protocol", "construct", "basis", "linalg")  # config holds constants only

# functions reported under one shared span name; any other public function
# of module m gets the span name "m.<function>"
GROUPS = {
    "linalg.hermitian_eigenvalues": "linalg.eigensolve",
    "linalg.hermitian_eigensystem": "linalg.eigensolve",
    "linalg.transpose_qubits": "linalg.partial_transpose",
    "linalg.partial_trace_matrix": "linalg.partial_trace",
    "linalg.apply_qubit_permutation": "linalg.permutation",
    "linalg.permutation_unitary_axes": "linalg.permutation",
    "linalg.frobenius_distance": "linalg.frobenius",
    "linalg.DensityMatrix.__post_init__": "linalg.density_matrix",
    "linalg.DensityMatrix.validate": "linalg.validate",
    "analyze.certify_two_vs_rest_separable": "analyze.certify",
    "analyze.check_permutation_invariance": "analyze.permutation_invariance",
    "protocol.unlock_sequential": "protocol.unlock",
    "protocol.discriminate_subspace": "protocol.discriminate",
    "cli.render_json": "cli.render",
    "cli.render_text": "cli.render",
}
METHODS = (("linalg", "DensityMatrix", "__post_init__"), ("linalg", "DensityMatrix", "validate"))

# spans whose calls and self time are reported, with the end-to-end metric
# and workload each should move (see perfbench/README.md)
REPORTED_SPANS = (
    "linalg.eigensolve",
    "linalg.validate",
    "linalg.partial_transpose",
    "linalg.partial_trace",
    "linalg.pair_sandwich",
    "linalg.permutation",
    "linalg.frobenius",
    "linalg.density_matrix",
    "analyze.is_ppt",
    "analyze.scan_all_cuts",
    "analyze.certify",
    "analyze.permutation_invariance",
    "protocol.discriminate",
    "protocol.unlock",
    "protocol.bell_sandwich",
    "protocol.bell_fidelity",
    "construct.projector_direct",
    "construct.projector_recursive",
    "construct.pauli_relate",
    "construct.noisy_state",
    "basis.ghz_state",
    "cli.render",
    "cli.command",
)


def span_name(layer: str, qualname: str) -> str:
    if layer == "cli" and qualname.startswith("cmd_"):
        return "cli.command"
    full = f"{layer}.{qualname}"
    return GROUPS.get(full, full)


def _nbytes(value) -> int:
    arr = getattr(value, "matrix", value)  # DensityMatrix or ndarray
    nbytes = getattr(arr, "nbytes", 0)
    return nbytes if isinstance(nbytes, int) else 0


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, float] = {}
        self.largest_bytes = 0
        self.eig_dim_max = 0
        self._built: set = set()

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._built.clear()

    def count(self, name: str, k: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + k

    # -- counters computed at layer boundaries -----------------------------

    def _on_eigensolve(self, args, out) -> None:
        dim = int(args[0].shape[0])
        self.eig_dim_max = max(self.eig_dim_max, dim)
        self.count("linalg.eigensolve.dim3_sum", dim**3)

    def _on_discriminate(self, args, out) -> None:
        # four classes, each a dense P @ rho @ P: two complex D x D matmuls at 8 D^3 flops
        dim = args[0].dim
        self.count("protocol.discriminate.flops_computed", 4 * 2 * 8 * dim**3)

    def _on_unlock(self, args, out) -> None:
        self.count("protocol.unlock.branches", len(out.branches))
        self.count("protocol.unlock.live", sum(b.state is not None for b in out.branches))

    def _on_projector_direct(self, args, out) -> None:
        key = (args[0], args[1])
        if key in self._built:
            self.count("construct.projector_direct.repeats", 1)
        self._built.add(key)

    def _on_density_matrix(self, args, out) -> None:
        self.largest_bytes = max(self.largest_bytes, _nbytes(args[0]))

    # -- installing ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        sid = self.span_id(name)
        layer = name.split(".", 1)[0]
        hook = {
            "linalg.eigensolve": self._on_eigensolve,
            "protocol.discriminate": self._on_discriminate,
            "protocol.unlock": self._on_unlock,
            "construct.projector_direct": self._on_projector_direct,
            "linalg.density_matrix": self._on_density_matrix,
        }.get(name)
        stack, names = self.stack, self.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == sid:
                return fn(*args, **kwargs)
            idx = self.open(sid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.close(idx)
            nbytes = _nbytes(out)
            if nbytes > self.largest_bytes:
                self.largest_bytes = nbytes
            if hook is not None:
                hook(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch bcabe for the duration of the block; always restores it."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bcabe.{layer}")
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(value, span_name(layer, attr)))
        undo = []
        try:
            for layer, cls_name, method in METHODS:
                cls = getattr(importlib.import_module(f"bcabe.{layer}"), cls_name)
                original = cls.__dict__[method]
                undo.append((setattr, cls, method, original))
                setattr(cls, method, self._wrap(original, span_name(layer, f"{cls_name}.{method}")))
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "bcabe" and not mod_name.startswith("bcabe."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        undo.append((setattr, module, attr, value))
                        setattr(module, attr, hit[1])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            hit = wrappers.get(id(item))
                            if hit is not None and hit[0] is item:
                                undo.append((dict.__setitem__, value, key, item))
                                value[key] = hit[1]
            yield self
        finally:
            for restore, target, key, original in reversed(undo):
                restore(target, key, original)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(name id, op id, self seconds, duration) per span, as numpy arrays."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        op_of = np.frombuffer(self.op_of, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, op_of, dur - children, dur

    def layer_self_by_op(self) -> dict[int, dict[str, float]]:
        """Self time of each layer within each op."""
        name, op_of, own, _ = self.self_times()
        out: dict[int, dict[str, float]] = {}
        for sid, op, s in zip(name.tolist(), op_of.tolist(), own.tolist()):
            layer = self.names[sid].split(".", 1)[0]
            if layer in LAYERS:
                row = out.setdefault(op, dict.fromkeys(LAYERS, 0.0))
                row[layer] += s
        return out

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; counts and times are per op."""
        import numpy as np

        name, _, own, _ = self.self_times()
        calls = np.bincount(name, minlength=len(self.names))
        own_by_name = np.bincount(name, weights=own, minlength=len(self.names))
        per = 1.0 / max(ops, 1)
        m: dict[str, tuple[float, str]] = {}
        for span in REPORTED_SPANS:
            sid = self._ids.get(span)
            m[f"{span}.calls"] = (float(calls[sid]) * per if sid is not None else 0.0, "count/op")
            m[f"{span}.self_s"] = (float(own_by_name[sid]) * per if sid is not None else 0.0, "s/op")
        branches = self.counts.get("protocol.unlock.branches", 0.0)
        direct_id = self._ids.get("construct.projector_direct")
        direct_calls = float(calls[direct_id]) if direct_id is not None else 0.0
        m["linalg.eigensolve.dim_max"] = (float(self.eig_dim_max), "dim")
        m["linalg.eigensolve.dim3_sum"] = (self.counts.get("linalg.eigensolve.dim3_sum", 0.0) * per, "dim3/op")
        m["linalg.largest_matrix_bytes"] = (float(self.largest_bytes), "B")
        m["protocol.discriminate.flops_computed"] = (
            self.counts.get("protocol.discriminate.flops_computed", 0.0) * per,
            "flop/op",
        )
        m["protocol.unlock.branches"] = (branches * per, "count/op")
        m["protocol.unlock.live_share"] = (
            self.counts.get("protocol.unlock.live", 0.0) / branches if branches else 0.0,
            "ratio",
        )
        m["construct.projector_direct.repeat_share"] = (
            self.counts.get("construct.projector_direct.repeats", 0.0) / direct_calls if direct_calls else 0.0,
            "ratio",
        )
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_s"] = (float(own_by_name[ids].sum()) * per if ids else 0.0, "s/op")
            m[f"{layer}.errors"] = (float(self.errors[layer]), "count")
        return m

    def save(self, path) -> None:
        """Write every span once, as columns, to an .npz file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op_of, dtype=np.intc),
        )
