"""The one JSON codec of kamforge: deterministic emission and complex values.

Writing and parsing are the stdlib's ``json``.  A float prints as its
``repr``, the shortest text that reads back to the same double (so -0.0
stays ``-0.0`` and 1.0 stays a float), which makes every artifact
round-trip exactly and byte-identical across runs and worker counts.

This module is also the only place that knows the artifact format of a
complex number, the pair ``[re, im]``: ``encode`` turns complex and numpy
values into JSON-native ones, and ``to_complex`` reads numbers and pairs
back into a complex128 array, bit for bit.

A result dataclass is its own artifact schema: ``encode`` writes it as
``{field: encode(value)}`` in declaration order.  A class whose artifact is
not its field list (a series, the curve, the geometry, a sampled family)
writes a ``to_json_dict`` method, which wins.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import numpy as np


def encode(obj):
    """JSON-native copy of *obj*: complex -> [re, im], numpy -> Python.

    Recurses through dicts, lists and tuples.  An object with a
    ``to_json_dict`` method encodes as that method's result, any other
    dataclass instance as its fields in declaration order; other values pass
    unchanged.
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
    if is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _is_number(x) -> bool:
    """An int or a float; a bool is an int, but no coefficient."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def to_complex(entries, artifact: str, key: str) -> np.ndarray:
    """complex128 array from a list of numbers and [re, im] pairs, bit-exact;
    ValueError naming *artifact* and *key* if *entries* is anything else."""
    where = f"{artifact} JSON {key!r}"
    if not isinstance(entries, list):
        raise ValueError(f"{where} must be a list of numbers or [re, im] "
                         f"pairs, got {entries!r}")
    pairs = []
    for e in entries:
        if _is_number(e):
            pairs.append((e, 0.0))
        elif isinstance(e, list) and len(e) == 2 and all(map(_is_number, e)):
            pairs.append(e)
        else:
            raise ValueError(f"{where} entries must be numbers or [re, im] "
                             f"pairs, got {e!r}")
    try:
        arr = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    except OverflowError:  # an int past the largest double
        raise ValueError(f"{where} entries must be numbers within the range "
                         "of a double") from None
    return arr.view(np.complex128).reshape(-1)


def require_keys(d, artifact: str, keys, optional=()) -> dict:
    """*d* if it is a dict with every key in *keys* and no key outside
    *keys* and *optional* (with ``optional=None``, any other key passes),
    else ValueError naming *artifact* and the key: the one key check of
    every artifact reader."""
    if not isinstance(d, dict):
        raise ValueError(f"{artifact} JSON must be an object, got {d!r}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{artifact} JSON has no {key!r} key")
    for key in () if optional is None else d:
        if key not in keys and key not in optional:
            raise ValueError(f"{artifact} JSON has an unknown {key!r} key")
    return d


_KINDS = {
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "a bool": lambda v: isinstance(v, bool),
    "an int >= 0": lambda v: type(v) is int and v >= 0,
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


def require_kinds(d: dict, artifact: str, kinds: dict) -> None:
    """ValueError naming *artifact*, the key, the kind and the value unless
    the value of each key of *kinds* in *d* is of the JSON kind named there
    (a key of ``_KINDS``; a number may be NaN)."""
    for key, kind in kinds.items():
        if not _KINDS[kind](d[key]):
            raise ValueError(f"{artifact} JSON {key!r} must be {kind}, "
                             f"got {d[key]!r}")


def _encode_leaf(obj):
    """``default`` hook of the stdlib encoder: complex and numpy leaves."""
    out = encode(obj)
    if out is obj:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return out


def dumps(obj, indent: int | None = None) -> str:
    """Serialize *obj* to JSON; floats print as their exact ``repr``."""
    seps = (",", ": ") if indent else (",", ":")
    return json.dumps(obj, indent=indent or None, separators=seps,
                      default=_encode_leaf)


def dump_path(obj, path) -> None:
    """Stream ``dumps(obj, indent=2)`` and a newline into *path*.  A payload
    the encoder refuses leaves a partial file; no kamforge payload is one."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, separators=(",", ": "), default=_encode_leaf)
        fh.write("\n")


def loads(text: str):
    return json.loads(text)


def load_path(path):
    with open(path) as fh:
        return json.load(fh)
