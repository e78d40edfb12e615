"""Shared JSON exchange format for real matrices.

A matrix is a non-empty JSON array of equal-length rows of finite JSON numbers,
row-major in the package's (q1, p1, ..., qs, ps) ordering. Booleans, strings and
[re, im] pairs are refused: every matrix read (K, mu, covariance, Hamiltonian) is real.
"""

import json
import os
import stat
import tempfile

import numpy as np

from .errors import InadmissibleInputError


def encode_array(arr: np.ndarray) -> list:
    """Encode a finite real 2-d numpy array as JSON-ready nested lists of floats."""
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise InadmissibleInputError("only finite real 2-d arrays can be encoded")
    return arr.astype(float).tolist()


def decode_array(data) -> np.ndarray:
    """Decode a non-empty JSON array of equal-length rows of numbers into a float matrix."""
    if not isinstance(data, list) or not data or not all(isinstance(row, list) for row in data):
        raise InadmissibleInputError(
            f"a matrix must be a non-empty JSON array of rows, got {json.dumps(data)}"
        )
    if any(len(row) != len(data[0]) for row in data):
        raise InadmissibleInputError("matrix rows must all have the same length")
    # bool is a subclass of int, so the types are compared exactly
    refused = [v for row in data for v in row if type(v) not in (int, float)]
    if refused:
        raise InadmissibleInputError(
            f"matrix entries must be real numbers, got {json.dumps(refused[0])}"
        )
    arr = np.array(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InadmissibleInputError("arrays must contain only finite numbers")
    return arr


def write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` atomically; on failure it stays untouched."""
    # the mode a plain open gives: the replaced file's, else 0o666 less the umask
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        os.umask(umask := os.umask(0))
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
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
    if isinstance(payload, dict) and "matrix" not in payload:
        raise InadmissibleInputError(f"{path}: matrix object files need a 'matrix' key")
    return decode_array(payload["matrix"] if isinstance(payload, dict) else payload)
