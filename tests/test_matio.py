"""Tests for the JSON matrix interchange format."""

import os
import stat

import numpy as np
import pytest

from conftest import save_matrix
from egain.errors import InadmissibleInputError
from egain.matio import (
    channel_rows,
    encode_array,
    matrix_rows,
    read_json,
    write_json,
    write_text,
)


@pytest.fixture(params=["matrix-file", "channel-file"])
def read_rows(request, tmp_path):
    """Rows of ``data`` read back as a matrix file's 'matrix', or as a channel file's K."""
    path = str(tmp_path / "m.json")

    def read(data):
        if request.param == "matrix-file":
            write_json(path, {"matrix": data})
            return matrix_rows(path, "matrix")
        write_json(path, {"K": data, "mu": data})  # K is checked first
        return channel_rows(path)[0]

    return read


class TestRoundTrips:
    def test_real_matrix(self, tmp_path):
        path = str(tmp_path / "m.json")
        M = np.array([[1.0, -2.5], [0.25, 1e-12]])
        save_matrix(path, M)
        assert matrix_rows(path, "M") == M.tolist()

    def test_matrix_object_form(self, tmp_path):
        path = str(tmp_path / "obj.json")
        write_json(path, {"matrix": [[1.0, 0.2], [0.2, 0.8]]})
        assert matrix_rows(path, "M") == [[1.0, 0.2], [0.2, 0.8]]

    def test_object_without_matrix_key_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        write_json(path, {"K": [[1.0]]})
        with pytest.raises(InadmissibleInputError, match="matrix"):
            matrix_rows(path, "M")



class TestValidation:
    def test_rejects_non_finite(self, read_rows):
        with pytest.raises(InadmissibleInputError):
            encode_array(np.array([[np.inf, 0.0]]))
        with pytest.raises(InadmissibleInputError, match="matrix entries must be finite numbers, got NaN"):
            read_rows([[float("nan")]])

    def test_rejects_ragged_rows(self, read_rows):
        with pytest.raises(InadmissibleInputError):
            read_rows([[1.0, 2.0], [3.0]])
        with pytest.raises(InadmissibleInputError, match="rows must all have the same length"):
            read_rows([[[1, 0], [2, 0]], [[3, 0]]])

    def test_rejects_empty(self, read_rows):
        with pytest.raises(InadmissibleInputError):
            read_rows([])

    @pytest.mark.parametrize(
        "data, named",
        [
            pytest.param([[[1.0, 2.0], 0.0], [0.0, 3.0]], "[1.0, 2.0]", id="re-im-pair"),
            pytest.param([[True, False], [False, True]], "true", id="bool"),
            pytest.param([[1.5, 0.0], [0.0, "1.5"]], '"1.5"', id="string"),
            pytest.param([[None]], "null", id="null"),
            pytest.param([[[1.5]]], "[1.5]", id="3-d"),
        ],
    )
    def test_refuses_entries_that_are_not_numbers(self, read_rows, data, named):
        with pytest.raises(InadmissibleInputError) as exc:
            read_rows(data)
        assert str(exc.value) == f"matrix entries must be real numbers, got {named}"

    @pytest.mark.parametrize(
        "data, named",
        [
            pytest.param([1.0, 2.0], "[1.0, 2.0]", id="1-d"),
            pytest.param([[1.0], 2.0], "[[1.0], 2.0]", id="mixed"),
            pytest.param(1.5, "1.5", id="scalar"),
            pytest.param({"re": [[1.0]]}, '{"re": [[1.0]]}', id="object"),
        ],
    )
    def test_refuses_what_is_not_an_array_of_rows(self, read_rows, data, named):
        with pytest.raises(InadmissibleInputError) as exc:
            read_rows(data)
        assert str(exc.value) == f"a matrix must be a non-empty JSON array of rows, got {named}"

    def test_integers_decode_as_floats(self, read_rows):
        out = read_rows([[1, 0], [0, 2]])
        assert out == [[1.0, 0.0], [0.0, 2.0]]
        assert {type(v) for row in out for v in row} == {float}

    @pytest.mark.parametrize(
        "arr",
        [
            pytest.param(np.array([[1.0 + 2.0j]]), id="complex"),
            pytest.param(np.array([[1.0 + 0.0j]]), id="complex-real-valued"),
            pytest.param(np.array([1.0, 2.0]), id="1-d"),
            pytest.param(np.zeros((1, 1, 1)), id="3-d"),
            pytest.param(np.array([[True]]), id="bool"),
        ],
    )
    def test_encode_refuses_all_but_real_matrices(self, arr):
        with pytest.raises(InadmissibleInputError, match="only finite real 2-d arrays"):
            encode_array(arr)


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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=oct)
    def test_new_file_gets_the_mode_open_would_give(self, tmp_path, umask, mode):
        path = tmp_path / "new.json"
        previous = os.umask(umask)
        try:
            write_text(str(path), "x\n")
            with open(tmp_path / "plain.json", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "plain.json").stat().st_mode) == mode

    @pytest.mark.parametrize("existing", [0o640, 0o604, 0o444], ids=oct)
    def test_replaced_file_keeps_its_mode(self, tmp_path, existing):
        path = tmp_path / "old.json"
        path.write_text("old\n")
        path.chmod(existing)
        previous = os.umask(0o022)
        try:
            write_text(str(path), "new\n")
        finally:
            os.umask(previous)
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == existing

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
