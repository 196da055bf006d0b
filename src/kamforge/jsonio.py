"""The one JSON codec of kamforge: deterministic emission and complex values.

All data artifacts (curve files, sweep lines, geometry exports) must be
byte-identical across runs and worker counts, so floats are always printed
with 17 significant digits (enough for exact double round-trip) through a
single code path.  The stdlib encoder cannot override float formatting,
hence this small recursive writer.  Parsing is plain ``json.loads``.

This module is also the only place that knows the artifact format of a
complex number, the pair ``[re, im]``: ``encode`` turns complex and numpy
values into JSON-native ones, and ``to_complex`` reads numbers and pairs
back into a complex128 array, bit for bit.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def encode(obj):
    """JSON-native copy of *obj*: complex -> [re, im], numpy -> Python.

    Recurses through dicts, lists and tuples.  An artifact object (one with
    a ``to_json_dict`` method) encodes as that method's result; other values
    pass unchanged.
    """
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    return obj


def to_complex(entries) -> np.ndarray:
    """complex128 array from a list of numbers and [re, im] pairs, bit-exact."""
    if not isinstance(entries, list):
        raise ValueError("expected a list of numbers or [re, im] pairs")
    pairs = []
    for e in entries:
        if isinstance(e, (int, float)):
            pairs.append((e, 0.0))
        elif (isinstance(e, list) and len(e) == 2
              and all(isinstance(x, (int, float)) for x in e)):
            pairs.append(e)
        else:
            raise ValueError("series entries must be numbers or [re, im] pairs")
    arr = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return arr.view(np.complex128).reshape(-1)


def _write(obj, out: list, indent: int | None, level: int) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        _write_items(list(obj.items()), "{", "}", out, indent, level, keyed=True)
    elif isinstance(obj, (list, tuple)):
        _write_items(list(obj), "[", "]", out, indent, level, keyed=False)
    elif isinstance(obj, (complex, np.generic, np.ndarray)):
        _write(encode(obj), out, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_items(items, open_ch, close_ch, out, indent, level, keyed) -> None:
    if not items:
        out.append(open_ch + close_ch)
        return
    if indent:
        pad = "\n" + " " * (indent * (level + 1))
        closing = "\n" + " " * (indent * level)
        colon = ": "
    else:
        pad = ""
        closing = ""
        colon = ":"
    out.append(open_ch)
    for i, it in enumerate(items):
        if i:
            out.append(",")
        out.append(pad)
        if keyed:
            key, val = it
            out.append(json.dumps(str(key)))
            out.append(colon)
            _write(val, out, indent, level + 1)
        else:
            _write(it, out, indent, level + 1)
    out.append(closing)
    out.append(close_ch)


def dumps(obj, indent: int | None = None) -> str:
    """Serialize *obj* to a JSON string with 17-digit float formatting."""
    out: list = []
    _write(obj, out, indent, 0)
    return "".join(out)


def dump_path(obj, path, indent: int | None = 2) -> None:
    text = dumps(obj, indent=indent)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def loads(text: str):
    return json.loads(text)


def load_path(path):
    with open(path) as fh:
        return json.load(fh)
