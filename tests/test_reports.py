import json

import numpy as np

from microlocal.reports import canonical_json, fmt_float, write_csv, write_json


def test_float_formatting_roundtrips():
    for x in (1.0 / 3.0, 1e-17, 123456.789, np.pi):
        assert float(fmt_float(x)) == x


def test_canonical_json_sorted_and_deterministic():
    obj = {"b": 1.5, "a": [1, 2.25, {"z": True, "y": None}], "c": complex(1, -2)}
    s1 = canonical_json(obj)
    s2 = canonical_json({"c": complex(1, -2), "a": [1, 2.25, {"y": None, "z": True}], "b": 1.5})
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["a"][1] == 2.25
    assert parsed["c"] == {"im": -2.0, "re": 1.0}
    numpy_obj = json.loads(canonical_json({"v": np.array([1.0, 2.0]), "n": np.int64(3)}))
    assert numpy_obj == {"n": 3, "v": [1.0, 2.0]}


def test_write_csv_format(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1.5, 2], [0.1, -3]])
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1.5,2"
    assert "." in lines[2] and "," in lines[2]


def test_write_json_deterministic(tmp_path):
    rep = {"name": "x", "params": {"k": 1}, "values": {"v": 2.0}, "pass": True}
    p1 = write_json(tmp_path / "a.json", rep)
    p2 = write_json(tmp_path / "b.json", rep)
    assert p1.read_bytes() == p2.read_bytes()
