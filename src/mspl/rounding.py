"""Twelve-significant-digit rounding shared by every rendering, and the
JSON writer built on it.

numpy registers its scalar types with `numbers`, so its floats and
integers round like Python's without this module importing numpy.
"""

import json
import math
from numbers import Integral, Real


def round12(obj):
    """Round every float to 12 significant digits (recursively) so CSV
    and JSON renderings carry identical numbers."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, Integral):
        return int(obj)
    if isinstance(obj, Real):
        f = float(obj)
        return f if not math.isfinite(f) else float(f"{f:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def write_json(path: str, payload: dict) -> None:
    """Write `payload` rounded by `round12`, indented, keys sorted, with a
    final newline."""
    with open(path, "w") as fh:
        json.dump(round12(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
