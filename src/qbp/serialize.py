"""JSON interchange for instances, signals, and recovery reports.

Complex scalars travel as two-element ``[real, imag]`` arrays.  An instance
document holds the dimension and the measurement list; malformed documents
raise :class:`InstanceFormatError` carrying the location of the offending
field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from pathlib import Path

import numpy as np

from qbp.model import QuadraticSystem

__all__ = [
    "InstanceFormatError",
    "system_to_dict",
    "system_from_dict",
    "load_system",
    "save_system",
    "write_json",
    "vector_to_pairs",
    "vector_from_pairs",
    "report_to_dict",
]


class InstanceFormatError(ValueError):
    """An instance document is malformed; the message names the location."""

    def __init__(self, location: str, problem: str):
        self.location = location
        super().__init__(f"{location}: {problem}")


def _real(value, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InstanceFormatError(location, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        # an integer literal beyond the float range
        raise InstanceFormatError(location, "number out of the float range") from None
    if not np.isfinite(value):
        raise InstanceFormatError(location, "non-finite value")
    return value


def _pair(value, location: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InstanceFormatError(location, "expected a [real, imag] pair")
    return complex(_real(value[0], f"{location}[0]"), _real(value[1], f"{location}[1]"))


def _pair_list(value, n: int, location: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise InstanceFormatError(location, f"expected a list of {n} pairs")
    return np.array([_pair(v, f"{location}[{i}]") for i, v in enumerate(value)])


def _pair_matrix(value, n: int, location: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise InstanceFormatError(location, f"expected {n} rows")
    return np.stack([_pair_list(row, n, f"{location}[{i}]") for i, row in enumerate(value)])


def vector_to_pairs(x) -> list:
    """Nested lists of ``x``'s shape with each complex entry a [real, imag] pair."""
    x = np.asarray(x, dtype=complex)
    return np.stack((x.real, x.imag), axis=-1).tolist()


def vector_from_pairs(value, location: str = "x") -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise InstanceFormatError(location, "expected a non-empty list of pairs")
    return np.array([_pair(v, f"{location}[{i}]") for i, v in enumerate(value)])


def system_to_dict(system: QuadraticSystem) -> dict:
    blocks = {name: vector_to_pairs(getattr(system, name))
              for name in ("a", "b", "c", "Q", "y")}
    return {
        "n": system.n,
        "measurements": [dict(zip(blocks, row)) for row in zip(*blocks.values())],
    }


def system_from_dict(obj) -> QuadraticSystem:
    if not isinstance(obj, dict):
        raise InstanceFormatError("$", "expected a JSON object")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InstanceFormatError("n", f"expected a positive integer, got {n!r}")
    measurements = obj.get("measurements")
    if not isinstance(measurements, list) or not measurements:
        raise InstanceFormatError("measurements", "expected a non-empty list")
    for i, item in enumerate(measurements):
        loc = f"measurements[{i}]"
        if not isinstance(item, dict):
            raise InstanceFormatError(loc, "expected an object")
        missing = {"a", "b", "c", "Q", "y"} - set(item)
        if missing:
            raise InstanceFormatError(loc, f"missing fields {sorted(missing)}")
        a = _pair(item["a"], f"{loc}.a")
        b = _pair_list(item["b"], n, f"{loc}.b")
        c = _pair_list(item["c"], n, f"{loc}.c")
        Q = _pair_matrix(item["Q"], n, f"{loc}.Q")
        if i == 0:
            # the Phi stack, sized once a Q of n rows of n pairs backs n;
            # each item is written straight into its row
            phis = np.empty((len(measurements), n + 1, n + 1), dtype=complex)
            y = np.empty(len(measurements), dtype=complex)
        phi = phis[i]
        phi[0, 0] = a
        phi[0, 1:] = b.conj()
        phi[1:, 0] = c
        phi[1:, 1:] = Q
        y[i] = _pair(item["y"], f"{loc}.y")
    return QuadraticSystem.from_arrays(phis, y)


def load_system(source) -> QuadraticSystem:
    """Read an instance from a path or an open text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fp:
            return load_system(fp)
    try:
        obj = json.load(source)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc
    return system_from_dict(obj)


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def write_json(obj, target) -> None:
    """Write ``obj`` as indented JSON to a path or an open text stream.

    Non-finite numbers are written as null, so the output is strict JSON.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fp:
            write_json(obj, fp)
            return
    target.write(json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def save_system(system: QuadraticSystem, target) -> None:
    """Write an instance to a path or an open text stream."""
    write_json(system_to_dict(system), target)


def report_to_dict(report, **extra) -> dict:
    """JSON form of a recovery report, with optional extra metadata merged in."""
    out = dataclasses.asdict(report)
    out["x_hat"] = vector_to_pairs(report.x_hat)
    out["lambda"] = out.pop("lam")
    out.update(extra)
    return out
