"""Shared JSON exchange format for real matrices.

A matrix is a non-empty JSON array of equal-length rows of finite JSON numbers,
row-major in the package's (q1, p1, ..., qs, ps) ordering. Booleans, strings and
[re, im] pairs are refused: every matrix read (K, mu, covariance, Hamiltonian) is real.
Files are read and checked without numpy, which is imported only where an array is built.
"""

import json
import math
import os
import stat
import tempfile

from .errors import InadmissibleInputError


def encode_array(arr) -> list:
    """Encode a finite real 2-d numpy array as JSON-ready nested lists of floats."""
    import numpy as np

    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise InadmissibleInputError("only finite real 2-d arrays can be encoded")
    return arr.astype(float).tolist()


def _rows(data) -> list:
    """The rows of a non-empty JSON array of equal-length rows of finite real numbers, as floats."""
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
    rows = [[float(v) for v in row] for row in data]  # an int past the float range raises OverflowError
    refused = [v for row in rows for v in row if not math.isfinite(v)]
    if refused:
        raise InadmissibleInputError(f"matrix entries must be finite numbers, got {json.dumps(refused[0])}")
    return rows


def _shaped(rows: list, what: str, size: int | None = None) -> list:
    """``rows`` if they are ``size`` x ``size``, or with no size square of even size; else refused naming ``what``."""
    shape = (len(rows), len(rows[0]))
    if size is None and (shape[0] != shape[1] or shape[0] % 2):
        raise InadmissibleInputError(f"{what} must be square with even dimension")
    if size is not None and shape != (size, size):
        raise InadmissibleInputError(f"{what} must be {size}x{size}, got {shape}")
    return rows


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
    """The JSON value in ``path``; text that is not JSON is refused naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax or bytes, or nesting past the parser's depth
            raise InadmissibleInputError(f"{path}: not valid JSON: {exc}") from None


def matrix_rows(path: str, what: str, size: int | None = None) -> list:
    """The checked rows of the matrix file ``path``, a bare array of rows or an object's 'matrix' key:
    ``size`` x ``size``, or square of even size."""
    payload = read_json(path)
    if isinstance(payload, dict) and "matrix" not in payload:
        raise InadmissibleInputError(f"{path}: matrix object files need a 'matrix' key")
    return _shaped(_rows(payload["matrix"] if isinstance(payload, dict) else payload), what, size)


def channel_rows(path: str) -> tuple[list, list]:
    """The checked rows of K and mu in the channel file ``path``: K square of even size, mu its size."""
    data = read_json(path)
    if not isinstance(data, dict) or "K" not in data or "mu" not in data:
        raise InadmissibleInputError("channel file must contain 'K' and 'mu' matrices")
    K, mu = _rows(data["K"]), _rows(data["mu"])
    return _shaped(K, "K"), _shaped(mu, "channel noise mu", len(K))
