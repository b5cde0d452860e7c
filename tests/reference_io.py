"""Line-by-line Matrix Market parser and writer, kept only as a test reference.

These are ``parse_matrix_market``, ``write_matrix_market`` and
``numerical_symmetry`` as they stood before one ``np.loadtxt`` pass replaced
the per-line parse, one sort-based check replaced the ``np.unique`` duplicate
checks and one bulk format replaced the per-entry writes. tests/test_io_parity.py
requires the package's versions to give the same triplets and metadata on
every well-formed text and byte-identical output.
"""

from __future__ import annotations

import io

import numpy as np

from mrmf.data import _HEADER_RE, MatrixMetadata, _scrape_comments
from mrmf.matrices import MatrixFormatError, SquareMatrix


def numerical_symmetry(A):
    """Fraction of off-diagonal nonzero positions (i, j) with A[j, i] == A[i, j] exactly.

    1.0 when there are no off-diagonal nonzeros; each position counts
    individually (a matched pair contributes twice to both counts).
    """
    rows, cols, vals = A.to_coo()
    off = rows != cols
    rows, cols, vals = rows[off], cols[off], vals[off]
    if rows.size == 0:
        return 1.0
    n = A.n
    codes = rows * n + cols
    order = np.argsort(codes)
    rows, cols, vals, codes = rows[order], cols[order], vals[order], codes[order]
    mirror = cols * n + rows
    pos = np.searchsorted(codes, mirror)
    pos_clip = np.minimum(pos, codes.size - 1)
    found = codes[pos_clip] == mirror
    matched = found & (vals[pos_clip] == vals)
    return float(np.count_nonzero(matched) / rows.size)


def parse_matrix_market(data):
    """Parse coordinate real Matrix Market text into a general-form matrix.

    Accepts bytes or str. Symmetric storage is unfolded to both triangles,
    skew-symmetric with a negated mirror. Returns (matrix, metadata); the
    metadata name/group/kind come from collection-style comment lines when
    present, and numerical_symmetry is computed from the expanded matrix.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    lines = data.splitlines()
    if not lines:
        raise MatrixFormatError("empty input")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise MatrixFormatError("malformed Matrix Market header line")
    obj, fmt, field, symmetry = (s.lower() for s in m.groups())
    if obj != "matrix":
        raise MatrixFormatError(f"unsupported object {obj!r} (only 'matrix')")
    if fmt != "coordinate":
        raise MatrixFormatError(f"unsupported format {fmt!r} (only 'coordinate')")
    if field != "real":
        raise MatrixFormatError(f"unsupported field {field!r} (only 'real')")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise MatrixFormatError(f"unsupported symmetry {symmetry!r}")

    comments = []
    size_line = None
    body_start = len(lines)
    for idx in range(1, len(lines)):
        stripped = lines[idx].strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            comments.append(stripped)
            continue
        size_line = stripped
        body_start = idx + 1
        break
    if size_line is None:
        raise MatrixFormatError("missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixFormatError(f"malformed size line {size_line!r}")
    try:
        nrows, ncols, count = (int(p) for p in parts)
    except ValueError:
        raise MatrixFormatError(f"malformed size line {size_line!r}") from None
    if nrows != ncols:
        raise MatrixFormatError(f"matrix is {nrows}x{ncols}, not square")
    n = nrows

    entries = [ln.split() for ln in lines[body_start:] if ln.strip() and not ln.lstrip().startswith("%")]
    if len(entries) != count:
        raise MatrixFormatError(f"size line promises {count} entries, found {len(entries)}")
    if count:
        try:
            rows = np.array([int(e[0]) for e in entries], dtype=np.int64) - 1
            cols = np.array([int(e[1]) for e in entries], dtype=np.int64) - 1
            vals = np.array([float(e[2]) for e in entries], dtype=np.float64)
        except (ValueError, IndexError):
            raise MatrixFormatError("malformed coordinate line") from None
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
            raise MatrixFormatError("coordinate index out of range")
        codes = rows * n + cols
        if np.unique(codes).size != codes.size:
            raise MatrixFormatError("duplicate coordinates")
    else:
        rows = np.zeros(0, dtype=np.int64)
        cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0, dtype=np.float64)

    if symmetry != "general" and count:
        off = rows != cols
        mirror_vals = vals[off] if symmetry == "symmetric" else -vals[off]
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, mirror_vals]),
        )
        codes = rows * n + cols
        if np.unique(codes).size != codes.size:
            raise MatrixFormatError("folded entry mirrors an explicit coordinate")

    A = SquareMatrix.from_coo(n, rows, cols, vals)
    name, group, kind = _scrape_comments(comments)
    meta = MatrixMetadata(name, group, n, A.nnz, kind, numerical_symmetry(A))
    return A, meta


def write_matrix_market(A):
    """Serialize as general coordinate real text, value-exact on round-trip."""
    rows, cols, vals = A.to_coo()
    out = io.StringIO()
    out.write("%%MatrixMarket matrix coordinate real general\n")
    out.write(f"{A.n} {A.n} {len(vals)}\n")
    for r, c, v in zip(rows, cols, vals):
        out.write(f"{r + 1} {c + 1} {v:.17g}\n")
    return out.getvalue().encode("ascii")
