"""Tests for the JSON matrix interchange format."""

import json
import os

import numpy as np
import pytest

from conftest import save_matrix
from egain.errors import InadmissibleInputError
from egain.matio import (
    decode_array,
    encode_array,
    load_matrix,
    read_json,
    write_json,
    write_text,
)


class TestRoundTrips:
    def test_real_matrix(self, tmp_path):
        path = str(tmp_path / "m.json")
        M = np.array([[1.0, -2.5], [0.25, 1e-12]])
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_complex_matrix(self, tmp_path):
        path = str(tmp_path / "c.json")
        M = np.array([[1.0 + 2.0j, 0.0], [-1.0j, 3.0]])
        save_matrix(path, M)
        out = load_matrix(path)
        assert out.dtype.kind == "c"
        assert np.array_equal(out, M)

    def test_matrix_object_form(self, tmp_path):
        path = str(tmp_path / "obj.json")
        write_json(path, {"matrix": [[1.0, 0.2], [0.2, 0.8]]})
        assert np.array_equal(load_matrix(path), np.array([[1.0, 0.2], [0.2, 0.8]]))

    def test_object_without_matrix_key_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        write_json(path, {"K": [[1.0]]})
        with pytest.raises(InadmissibleInputError, match="matrix"):
            load_matrix(path)

    def test_vector(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(decode_array(encode_array(v)), v)

    def test_complex_entries_encode_as_pairs(self):
        data = encode_array(np.array([[1.0 + 2.0j]]))
        assert data == [[[1.0, 2.0]]]


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(InadmissibleInputError):
            encode_array(np.array([[np.inf, 0.0]]))
        with pytest.raises(InadmissibleInputError):
            decode_array([[float("nan")]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(InadmissibleInputError):
            decode_array([[1.0, 2.0], [3.0]])
        with pytest.raises(InadmissibleInputError, match="rows must all have the same length"):
            decode_array([[[1, 0], [2, 0]], [[3, 0]]])

    def test_rejects_empty(self):
        with pytest.raises(InadmissibleInputError):
            decode_array([])


class TestFiles:
    def test_write_json_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        payload = {"z": 1.5, "a": [1, 2], "m": encode_array(np.eye(2))}
        write_json(a, payload)
        write_json(b, payload)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_write_json_sorted_keys(self, tmp_path):
        path = str(tmp_path / "k.json")
        write_json(path, {"b": 1, "a": 2})
        text = open(path).read()
        assert text.index('"a"') < text.index('"b"')

    def test_read_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_json(path, {"x": [1.0, 2.0]})
        assert read_json(path) == {"x": [1.0, 2.0]}

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "t.json")
        save_matrix(path, np.eye(3))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_text(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
