"""JSON interchange for instances, signals, solves and recovery reports.

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

import numpy as np

from qbp.model import QuadraticMeasurement, QuadraticSystem

__all__ = [
    "InstanceFormatError",
    "system_to_dict",
    "system_from_dict",
    "read_json",
    "load_system",
    "save_system",
    "write_json",
    "vector_to_pairs",
    "vector_from_pairs",
    "result_to_dict",
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


def _pairs(value, shape: tuple, location: str):
    """The complex scalar, or array of ``shape``, that nested pairs encode."""
    if not shape:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InstanceFormatError(location, "expected a [real, imag] pair")
        return complex(_real(value[0], f"{location}[0]"), _real(value[1], f"{location}[1]"))
    n = shape[0]
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise InstanceFormatError(
            location, f"expected {n} rows" if shape[1:] else f"expected a list of {n} pairs")
    return np.array([_pairs(v, shape[1:], f"{location}[{i}]") for i, v in enumerate(value)])


def vector_to_pairs(x) -> list:
    """Nested lists of ``x``'s shape with each complex entry a [real, imag] pair."""
    x = np.asarray(x, dtype=complex)
    return np.stack((x.real, x.imag), axis=-1).tolist()


def vector_from_pairs(value, location: str = "x") -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise InstanceFormatError(location, "expected a non-empty list of pairs")
    return _pairs(value, (len(value),), location)


def system_to_dict(system: QuadraticSystem) -> dict:
    blocks = {name: vector_to_pairs(getattr(system, name))
              for name in QuadraticMeasurement._fields}
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
    shapes = QuadraticMeasurement((), (n,), (n,), (n, n), ())
    records = []
    for i, item in enumerate(measurements):
        loc = f"measurements[{i}]"
        if not isinstance(item, dict):
            raise InstanceFormatError(loc, "expected an object")
        missing = set(shapes._fields) - set(item)
        if missing:
            raise InstanceFormatError(loc, f"missing fields {sorted(missing)}")
        records.append(QuadraticMeasurement._make(
            _pairs(item[name], shape, f"{loc}.{name}")
            for name, shape in shapes._asdict().items()))
    return QuadraticSystem(records)


def read_json(stream):
    """One JSON document from an open text stream; syntax errors are located."""
    try:
        return json.load(stream)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc


def load_system(stream) -> QuadraticSystem:
    """Read an instance from an open text stream."""
    return system_from_dict(read_json(stream))


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def write_json(obj, stream) -> None:
    """Write ``obj`` as indented JSON to an open text stream.

    Non-finite numbers are written as null, so the output is strict JSON.
    """
    stream.write(json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def save_system(system: QuadraticSystem, stream) -> None:
    """Write an instance to an open text stream."""
    write_json(system_to_dict(system), stream)


def result_to_dict(result) -> dict:
    """JSON form of a solve's final state: every ``SolverResult`` field but the
    matrix ``Z``, with ``lam`` written as ``lambda`` (its command-line name)."""
    out = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
           if f.name != "Z"}
    out["lambda"] = out.pop("lam")
    return out


def report_to_dict(report, result, **extra) -> dict:
    """JSON form of a recovery report merged with its solve's and ``extra``."""
    out = dataclasses.asdict(report)
    out["x_hat"] = vector_to_pairs(report.x_hat)
    out.update(result_to_dict(result))
    out.update(extra)
    return out
