"""Comparison of operation digests against the golden file.

Strings, booleans, integers and None must match exactly.  Floats match when
|actual - expected| <= atol + rtol * |expected|, with (atol, rtol) taken
from the golden file's ``tolerances`` table under the quantity that the
field name maps to in ``FIELD_QUANTITY``.  Catalogue ``observed`` strings are
compared as text with every number in them checked under the ``observed``
tolerance.
"""

from __future__ import annotations

import json
import math
import re

# Digest field name -> tolerance quantity.  Fields inside a mapped field
# inherit its quantity.
FIELD_QUANTITY = {
    "x": "strategy",
    "terminal_x": "strategy",
    "z": "score",
    "terminal_v": "lyapunov",
    "sample": "csv",
    "sums": "csv",
    "lambda_max": "eigenvalue",
    "eps_star": "eps_star",
    "checks": "observed",
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(actual: float, expected: float, tol: dict) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= tol["atol"] + tol["rtol"] * abs(expected)


def _compare_text(actual: str, expected: str, tol: dict) -> bool:
    if _NUMBER.sub("#", actual) != _NUMBER.sub("#", expected):
        return False
    nums_a = [float(m) for m in _NUMBER.findall(actual)]
    nums_e = [float(m) for m in _NUMBER.findall(expected)]
    return all(_close(a, e, tol) for a, e in zip(nums_a, nums_e))


def compare(actual, expected, tolerances: dict, quantity: str | None = None,
            path: str = "") -> list[str]:
    """Return one message per mismatch between two digests."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], tolerances,
                           FIELD_QUANTITY.get(key, quantity), f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length {len(actual) if isinstance(actual, list) else actual!r}"
                    f" != {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, tolerances, quantity, f"{path}[{i}]")
        return out
    if isinstance(expected, float):
        if (isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and _close(float(actual), expected, tolerances[quantity])):
            return []
        return [f"{path}: {actual!r} != {expected!r} ({quantity})"]
    if (quantity == "observed" and isinstance(expected, str)
            and isinstance(actual, str)):
        if _compare_text(actual, expected, tolerances["observed"]):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []
