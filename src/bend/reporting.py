"""Deterministic JSON emission with fixed float formatting.

The stdlib encoder prints floats with shortest round-trip repr, which varies
in digit count; reports instead pin every float to 17 significant digits so
identical runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteValue

SCHEMA = "bend/1"
INDENT = 2


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteValue(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _encode(obj, level: int) -> str:
    pad = " " * (INDENT * level)
    child_pad = " " * (INDENT * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(item, level + 1) for item in obj]
        return "[\n" + ",\n".join(child_pad + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key)}")
            items.append(
                child_pad + json.dumps(key) + ": " + _encode(value, level + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)} into a report")


def dumps(obj) -> str:
    return _encode(obj, 0) + "\n"


def summary_stats(values) -> dict:
    """Mean, sample standard deviation, and standard error of fold values."""
    arr = np.asarray(list(values), dtype=np.float64)
    n = arr.shape[0]
    mean = float(arr.mean()) if n else 0.0
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    stderr = std / math.sqrt(n) if n > 1 else 0.0
    return {"mean": mean, "std": std, "stderr": stderr, "n": int(n)}
