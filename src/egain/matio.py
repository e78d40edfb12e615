"""Shared JSON exchange format for matrices and vectors.

A matrix is stored as a JSON array of rows in row-major order, using the
same interleaved (q1, p1, ..., qs, ps) variable ordering as the rest of the
package. Real entries are plain numbers; complex entries are [re, im] pairs.
A matrix is treated as complex when any entry is such a pair. Vectors are
flat JSON arrays. All values must be finite.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import InadmissibleInputError


def _encode_entry(value):
    if isinstance(value, complex) or np.iscomplexobj(value):
        return [float(np.real(value)), float(np.imag(value))]
    return float(value)


def encode_array(arr: np.ndarray):
    """Encode a 1-d or 2-d numpy array as JSON-ready nested lists."""
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        raise InadmissibleInputError("arrays must contain only finite numbers")
    if np.iscomplexobj(arr) and np.all(arr.imag == 0.0):
        arr = arr.real
    if arr.ndim == 1:
        return [_encode_entry(v) for v in arr]
    if arr.ndim == 2:
        return [[_encode_entry(v) for v in row] for row in arr]
    raise InadmissibleInputError("only 1-d and 2-d arrays are supported")


def _decode_entry(value):
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise InadmissibleInputError("complex entries must be [re, im] pairs")
        return complex(float(value[0]), float(value[1]))
    return float(value)


def decode_array(data) -> np.ndarray:
    """Decode nested lists produced by :func:`encode_array`."""
    if not isinstance(data, list) or not data:
        raise InadmissibleInputError("expected a non-empty JSON array")
    if isinstance(data[0], list):
        width = len(data[0])
        if any(not isinstance(row, list) or len(row) != width for row in data):
            raise InadmissibleInputError("matrix rows must all have the same length")
        if any(isinstance(v, (list, tuple)) for row in data for v in row):
            arr = np.array(
                [[_decode_entry(v) for v in row] for row in data], dtype=complex
            )
        else:
            arr = np.array(data, dtype=float)
    else:
        if any(isinstance(v, (list, tuple)) for v in data):
            arr = np.array([_decode_entry(v) for v in data], dtype=complex)
        else:
            arr = np.array(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InadmissibleInputError("arrays must contain only finite numbers")
    return arr


def write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` atomically; on failure it stays untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    """Deterministic JSON text of ``obj``: sorted keys, fixed indentation, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj) -> None:
    """Serialize ``obj`` deterministically and replace ``path`` atomically."""
    write_text(path, _json_text(obj))


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def load_matrix(path: str) -> np.ndarray:
    payload = read_json(path)
    if isinstance(payload, dict):
        if "matrix" not in payload:
            raise InadmissibleInputError(
                f"{path}: matrix object files need a 'matrix' key"
            )
        payload = payload["matrix"]
    return decode_array(payload)
