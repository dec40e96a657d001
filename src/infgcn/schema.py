"""One declaration per config or record, a dataclass whose annotations
give each field's type (a dataclass type is a nested block; types, not
strings) and whose `spec` fields give default and range, and the one
validator that walks it."""
import dataclasses
import math
import numbers
import sys

import numpy as np

from . import geometry
from .errors import DomainError

_TYPES = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}
REQUIRED = object()


def spec(default, **admits):
    """A field with ``default`` (None admitting None; REQUIRED, always
    given) that ``admits``: ``low`` (an int's least, a float's exclusive
    bound), ``high``, ``choices``, ``what`` (the error phrase), for a
    ``dict`` ``of`` (a block stored as a dict) or ``keys`` (names of
    lists of strings), and ``shape`` (an array of the annotated type from
    JSON numbers, finite, shaped as ``geometry.check_array`` takes it)."""
    if isinstance(default, dict):
        return dataclasses.field(default_factory=dict, metadata=admits)
    return dataclasses.field(default=default, metadata=admits)


def _known(d, names, error, label):
    if not isinstance(d, dict):
        raise error(f"{label} must be an object")
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise error(f"unknown {label} key {unknown[0]!r}")


def _value(f, v, error, name):
    """``v`` as field ``f`` stores it; else ``error`` naming ``name``."""
    meta, kind = f.metadata, f.type
    if v is REQUIRED:
        raise error(f"{name} is required")
    if "shape" in meta:
        return _array(v, kind, meta, error, name)
    block = meta.get("of") or (dataclasses.is_dataclass(kind) and kind)
    if (v is None and f.default is None) or (block and isinstance(v, block)):
        return v
    if block:
        out = from_dict(block, v, error, name)
        return dataclasses.asdict(out) if kind is dict else out
    if "keys" in meta:
        _known(v, meta["keys"], error, name)
        for key, names in v.items():
            if not (isinstance(names, list)
                    and all(isinstance(n, str) for n in names)):
                raise error(f"{name}[{key!r}] must be a list of record "
                            "names")
        return v
    low, high = meta.get("low"), meta.get("high")
    out = v
    ok = isinstance(v, _TYPES[kind]) and isinstance(v, bool) == (kind is bool)
    if ok and kind is float:  # an int past the float range is infinite
        out = float(v) if abs(v) <= sys.float_info.max else math.inf
        ok = low < out <= (high or out) < math.inf  # NaN fails too
    elif ok and kind is int:
        ok = v >= low
    if not (ok and out in meta.get("choices", (out,))):
        what = meta.get("what") or (
            f"one of {meta['choices']}" if "choices" in meta else
            f"a number in ({low}, {high}]" if high else
            {float: "a positive finite number", bool: "bool", str: "a string",
             int: f"a {'non-negative' if low == 0 else 'positive'} integer"
             }[kind])
        raise error(f"{name} must be {what}, got {v!r}")
    return kind(out)


def _array(v, kind, meta, error, name):
    what = "an integer" if kind is int else "a number"
    stack = [v]
    while stack:  # numpy would parse "1" and take true as 1
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, np.generic):  # a numpy scalar, as a Python one
            stack.append(item.item())
        elif type(item) not in (int, kind):
            raise error(f"{name} holds a {type(item).__name__}, not {what}")
    try:
        arr = np.asarray(v, dtype=kind)  # an int never passes through float
        geometry.check_array(name, arr, meta["shape"], finite=True)
    except DomainError as exc:
        raise error(str(exc)) from None
    except (ValueError, OverflowError):
        raise error(f"{name} is ragged or holds an entry past the "
                    f"{kind.__name__} range") from None
    if kind is int and np.any(arr < meta["low"]):
        raise error(f"{name} must hold integers >= {meta['low']}")
    return arr


def check(config, error, prefix="", given=None):
    """Check each field of ``config``, or its value in ``given``, and store
    it as its type; ints and floats exclude bools. ``error`` names a bad
    one after ``prefix``."""
    for f in dataclasses.fields(config):
        v = (given or {}).get(f.name, getattr(config, f.name))
        object.__setattr__(config, f.name,
                           _value(f, v, error, prefix + f.name))
    return config


def from_dict(cls, d, error, block=""):
    """``cls`` from the JSON object ``d``, each field left out at its
    default; an unknown key or bad value raises ``error`` naming it."""
    _known(d, cls.__dataclass_fields__, error,
           block or getattr(cls, "noun", "config"))
    # rebuilt, so that rules across fields run on the checked values
    return dataclasses.replace(check(cls(), error, block and block + ".", d))
