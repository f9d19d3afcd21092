"""The recursive report renderers that `bcabe.cli` used before its one-pass walkers.

`tests/test_cli.py::TestRenderOracle` requires the walkers to give the same
bytes as these on drawn report objects, and to refuse what these refuse with
the same exception type. `render_text` here returns lines; the CLI writes
each one followed by a newline.
"""

from __future__ import annotations

import json as _json
import math

import numpy as np

from bcabe.linalg import format_float


def render_json(obj, indent: int = 0) -> str:
    """Byte-stable JSON: insertion-ordered keys, %.17g floats, no -0.0.

    A non-finite float raises ValueError: JSON has no nan or inf.
    """
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{child}{_json.dumps(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{child}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return _json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"report value {obj!r} is not finite and has no JSON form")
        return format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_text(obj, indent: int = 0) -> list[str]:
    """Terminal rendering of the same report object."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines.extend(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(obj)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (dict, list, tuple)) and not v:
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)
