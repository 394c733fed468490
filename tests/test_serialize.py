"""JSON interchange for instances, signals, and reports."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbp.admm import SolverResult, solve
from qbp.generators import (
    fourier_sparse_image,
    general_quadratic,
    phantom_instance,
    pure_phase,
)
from qbp.recovery import RecoveryReport, build_report
from qbp.serialize import (
    InstanceFormatError,
    _pairs,
    load_system,
    report_to_dict,
    save_system,
    system_from_dict,
    system_to_dict,
    vector_from_pairs,
    vector_to_pairs,
    write_json,
)

from support import random_system


def test_system_dict_roundtrip():
    rng = np.random.default_rng(0)
    system = random_system(3, 4, rng)
    back = system_from_dict(system_to_dict(system))
    assert back.n == system.n
    assert back.num_measurements == system.num_measurements
    for ma, mb in zip(system.measurements, back.measurements):
        assert ma.a == mb.a
        assert np.array_equal(ma.b, mb.b)
        assert np.array_equal(ma.c, mb.c)
        assert np.array_equal(ma.Q, mb.Q)
        assert ma.y == mb.y


def test_system_dict_is_plain_json():
    rng = np.random.default_rng(1)
    system = random_system(2, 2, rng)
    text = json.dumps(system_to_dict(system))
    assert isinstance(json.loads(text), dict)


def test_save_and_load_stream():
    rng = np.random.default_rng(3)
    system = random_system(2, 2, rng)
    buf = io.StringIO()
    save_system(system, buf)
    buf.seek(0)
    back = load_system(buf)
    assert np.array_equal(back.y, system.y)


@pytest.mark.parametrize("make", [
    lambda: general_quadratic(4, 6, 2, "gaussian", 3),
    lambda: pure_phase(4, 6, 2, "gaussian", 3),
    lambda: fourier_sparse_image(16, 10, 2, "gaussian", 1),
    lambda: phantom_instance(4, 3, 12, 2),
], ids=["general", "pure-phase", "fourier", "phantom"])
def test_saved_instances_load_to_the_same_bytes(make):
    # the magnitude families write a -0j border on purpose; a value
    # comparison cannot see a lost sign, so the bytes are compared
    system, _ = make()
    buf = io.StringIO()
    save_system(system, buf)
    buf.seek(0)
    back = load_system(buf)
    assert back.phis.tobytes() == system.phis.tobytes()
    assert back.y.tobytes() == system.y.tobytes()


def test_load_reports_json_location():
    with pytest.raises(InstanceFormatError) as exc:
        load_system(io.StringIO('{"n": 1, "measurements": [}'))
    assert "line 1 column" in str(exc.value)


def test_malformed_documents_name_their_location():
    with pytest.raises(InstanceFormatError, match=r"\$"):
        system_from_dict([1, 2, 3])
    with pytest.raises(InstanceFormatError, match="n:"):
        system_from_dict({"n": 0, "measurements": []})
    with pytest.raises(InstanceFormatError, match="n:"):
        system_from_dict({"n": True, "measurements": []})
    with pytest.raises(InstanceFormatError, match="measurements"):
        system_from_dict({"n": 1, "measurements": []})
    with pytest.raises(InstanceFormatError, match=r"measurements\[0\]"):
        system_from_dict({"n": 1, "measurements": ["nope"]})


def test_missing_fields_are_reported():
    doc = {
        "n": 1,
        "measurements": [{"a": [0.0, 0.0], "b": [[1.0, 0.0]], "c": [[0.0, 0.0]],
                          "y": [1.0, 0.0]}],
    }
    with pytest.raises(InstanceFormatError, match=r"measurements\[0\].*Q"):
        system_from_dict(doc)


def _valid_doc():
    return {
        "n": 2,
        "measurements": [
            {
                "a": [0.0, 0.0],
                "b": [[1.0, 0.0], [0.0, 1.0]],
                "c": [[0.0, 0.0], [0.0, 0.0]],
                "Q": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "y": [2.0, 0.0],
            }
        ],
    }


def test_a_q_short_of_a_row_names_its_measurement():
    # n - 1 rows, in the second measurement
    doc = _valid_doc()
    doc["measurements"].append(_valid_doc()["measurements"][0])
    doc["measurements"][1]["Q"].pop()
    with pytest.raises(InstanceFormatError,
                       match=r"^measurements\[1\]\.Q: expected 2 rows$") as exc:
        system_from_dict(doc)
    assert exc.value.location == "measurements[1].Q"


def test_field_shape_errors_have_deep_locations():
    doc = _valid_doc()
    doc["measurements"][0]["b"] = [[1.0, 0.0]]
    with pytest.raises(InstanceFormatError, match=r"measurements\[0\]\.b"):
        system_from_dict(doc)

    doc = _valid_doc()
    doc["measurements"][0]["Q"][1] = [[0.0, 0.0]]
    with pytest.raises(InstanceFormatError, match=r"measurements\[0\]\.Q\[1\]"):
        system_from_dict(doc)

    doc = _valid_doc()
    doc["measurements"][0]["y"] = [1.0]
    with pytest.raises(InstanceFormatError, match=r"measurements\[0\]\.y"):
        system_from_dict(doc)

    doc = _valid_doc()
    doc["measurements"][0]["a"] = ["one", 0.0]
    with pytest.raises(InstanceFormatError, match=r"measurements\[0\]\.a\[0\]"):
        system_from_dict(doc)


def test_out_of_range_integers_rejected():
    # a JSON integer beyond the float range is a located format error
    text = json.dumps(_valid_doc()).replace('"a": [0.0, 0.0]', '"a": [1' + "0" * 400 + ', 0.0]')
    with pytest.raises(InstanceFormatError,
                       match=r"measurements\[0\]\.a\[0\]: number out of the float range"):
        load_system(io.StringIO(text))


def test_non_finite_values_rejected():
    doc = _valid_doc()
    doc["measurements"][0]["y"] = [float("nan"), 0.0]
    with pytest.raises(InstanceFormatError, match="non-finite"):
        system_from_dict(doc)


def test_valid_document_parses():
    system = system_from_dict(_valid_doc())
    assert system.n == 2
    assert system.y[0] == 2.0 + 0.0j


def test_vector_pairs_roundtrip():
    x = np.array([1.0 + 2.0j, -0.5, 3.0j])
    pairs = vector_to_pairs(x)
    assert pairs == [[1.0, 2.0], [-0.5, 0.0], [0.0, 3.0]]
    assert np.array_equal(vector_from_pairs(pairs), x)


def test_vector_from_pairs_validation():
    with pytest.raises(InstanceFormatError):
        vector_from_pairs([])
    with pytest.raises(InstanceFormatError, match=r"x\[1\]"):
        vector_from_pairs([[1.0, 0.0], [2.0]])


@st.composite
def _encoded(draw):
    """A shape (), (k,) or (k, k) with k in 1..4, and finite complex entries
    of that shape, signed zeros included."""
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (k,), (k, k)]))
    size = 2 * math.prod(shape)
    parts = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=size, max_size=size))
    return shape, np.array(parts).view(complex).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(_encoded())
# a negative zero beside a nonzero part, which re + 1j * im would lose
@example(((2,), np.array([-0.0, 1.0, 0.0, -0.0]).view(complex)))
def test_pairs_decodes_the_bytes_vector_to_pairs_encodes(case):
    shape, a = case
    got = np.asarray(_pairs(vector_to_pairs(a), shape, "v"))
    assert got.shape == shape
    assert got.tobytes() == a.tobytes()


@settings(max_examples=200, deadline=None)
@given(_encoded(), st.sampled_from([True, "1", math.nan, "drop"]), st.data())
def test_pairs_locates_a_bad_leaf_or_a_dropped_element(case, change, data):
    shape, a = case
    doc = vector_to_pairs(a)
    # one leaf's index path: an entry of each list level, then real or imag
    path = [data.draw(st.integers(0, size - 1)) for size in shape + (2,)]
    depth = len(path) - 1 if change != "drop" else data.draw(st.integers(0, len(path) - 1))
    parent = doc
    for i in path[:depth]:
        parent = parent[i]
    if change == "drop":
        del parent[path[depth]]
        location = "v" + "".join(f"[{i}]" for i in path[:depth])
        if depth == len(shape):
            problem = "expected a [real, imag] pair"
        elif depth == len(shape) - 1:
            problem = f"expected a list of {shape[depth]} pairs"
        else:
            problem = f"expected {shape[depth]} rows"
    else:
        parent[path[depth]] = change
        location = "v" + "".join(f"[{i}]" for i in path)
        problem = ("non-finite value" if isinstance(change, float)
                   else f"expected a number, got {change!r}")
    with pytest.raises(InstanceFormatError) as exc:
        _pairs(doc, shape, "v")
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {problem}"


def _result(**fields):
    base = dict(Z=np.eye(3, dtype=complex), iterations=42, termination="converged",
                lam=5.0, rho_final=2.0, primal_residual=1e-6, dual_residual=2e-6,
                objective=7.0, data_residual=1e-12)
    return SolverResult(**{**base, **fields})


def test_report_to_dict_merges_extras():
    report = RecoveryReport(
        x_hat=np.array([1.0 + 0.0j, 0.0]),
        rank_ratio=1e-8,
        feasibility_residual=1e-9,
        sparsity=1,
        success=True,
        error=1e-7,
    )
    out = report_to_dict(report, _result(), mode="qbp", data_residual=None)
    assert out["x_hat"] == [[1.0, 0.0], [0.0, 0.0]]
    assert out["lambda"] == 5.0
    assert out["termination"] == "converged"
    assert out["mode"] == "qbp"
    assert out["data_residual"] is None  # extras win over the solve's fields
    assert "Z" not in out and "lam" not in out
    assert json.dumps(out)  # everything JSON-serializable


def test_report_to_dict_allows_missing_truth():
    report = RecoveryReport(
        x_hat=np.zeros(2, dtype=complex),
        rank_ratio=0.0,
        feasibility_residual=0.0,
        sparsity=0,
    )
    out = report_to_dict(report, _result(iterations=1, lam=0.0))
    assert out["success"] is None
    assert out["error"] is None
    assert out["lambda"] == 0.0


def test_write_json_writes_non_finite_numbers_as_null():
    buf = io.StringIO()
    write_json({"a": [1.5, float("inf"), (float("-inf"), {"b": float("nan")})],
                "c": np.float64("nan"), "d": 2}, buf)

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    doc = json.loads(buf.getvalue(), parse_constant=reject)
    assert doc == {"a": [1.5, None, [None, {"b": None}]], "c": None, "d": 2}


def test_records_holding_arrays_compare_by_identity():
    # field-wise equality would compare the arrays Z and x_hat and raise;
    # identity keeps both records hashable and leaves their JSON forms alone
    system, x = general_quadratic(6, 12, 2, "binary", seed=0)
    results = [solve(system) for _ in range(2)]
    reports = [build_report(system, result, x) for result in results]
    for first, second in (results, reports):
        assert first == first and not first != first
        assert first != second and not first == second
        assert len({first, second, first}) == 2
    docs = [report_to_dict(report, result) for report, result in zip(reports, results)]
    assert docs[0] == docs[1]
    assert json.dumps(docs[0]) == json.dumps(docs[1])
    assert set(docs[0]) == {f.name for f in dataclasses.fields(RecoveryReport)} | {
        f.name for f in dataclasses.fields(SolverResult) if f.name not in ("Z", "lam")
    } | {"lambda"}
