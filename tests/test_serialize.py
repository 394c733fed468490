"""JSON interchange for instances, signals, and reports."""

import io
import json

import numpy as np
import pytest

from qbp.recovery import RecoveryReport
from qbp.serialize import (
    InstanceFormatError,
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


def test_save_and_load_file(tmp_path):
    rng = np.random.default_rng(2)
    system = random_system(2, 3, rng)
    path = tmp_path / "instance.json"
    save_system(system, path)
    back = load_system(path)
    assert np.array_equal(back.y, system.y)


def test_save_and_load_stream():
    rng = np.random.default_rng(3)
    system = random_system(2, 2, rng)
    buf = io.StringIO()
    save_system(system, buf)
    buf.seek(0)
    back = load_system(buf)
    assert np.array_equal(back.y, system.y)


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


def test_report_to_dict_merges_extras():
    report = RecoveryReport(
        x_hat=np.array([1.0 + 0.0j, 0.0]),
        rank_ratio=1e-8,
        feasibility_residual=1e-9,
        sparsity=1,
        iterations=42,
        termination="converged",
        lam=5.0,
        success=True,
        error=1e-7,
    )
    out = report_to_dict(report, mode="qbp", data_residual=None)
    assert out["x_hat"] == [[1.0, 0.0], [0.0, 0.0]]
    assert out["lambda"] == 5.0
    assert out["mode"] == "qbp"
    assert out["data_residual"] is None
    assert json.dumps(out)  # everything JSON-serializable


def test_report_to_dict_allows_missing_truth():
    report = RecoveryReport(
        x_hat=np.zeros(2, dtype=complex),
        rank_ratio=0.0,
        feasibility_residual=0.0,
        sparsity=0,
        iterations=1,
        termination="converged",
        lam=0.0,
    )
    out = report_to_dict(report)
    assert out["success"] is None
    assert out["error"] is None


def test_write_json_writes_non_finite_numbers_as_null():
    buf = io.StringIO()
    write_json({"a": [1.5, float("inf"), (float("-inf"), {"b": float("nan")})],
                "c": np.float64("nan"), "d": 2}, buf)

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    doc = json.loads(buf.getvalue(), parse_constant=reject)
    assert doc == {"a": [1.5, None, [None, {"b": None}]], "c": None, "d": 2}
