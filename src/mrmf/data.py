"""Matrix ingestion and synthesis.

Covers the three ways a benchmark matrix comes to exist: parsed from Matrix
Market text, fetched (and cached) from the SuiteSparse collection, or
generated from a seed. Parsing expands symmetric/skew-symmetric storage to
the full general form so downstream code never sees folded triangles.
"""

from __future__ import annotations

import io
import os
import re
import tarfile
import tempfile
import time
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .matrices import MatrixFormatError, SquareMatrix, numerical_symmetry

SUITESPARSE_URL = "https://sparse.tamu.edu/MM/{group}/{name}.tar.gz"

_HEADER_RE = re.compile(
    r"^%%MatrixMarket\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$", re.IGNORECASE
)
_ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])


class FetchError(RuntimeError):
    """Download or archive failure when fetching a collection matrix."""


class MatrixNotFoundError(FetchError):
    """The collection has no matrix under the requested group/name."""


@dataclass(frozen=True)
class MatrixMetadata:
    """Identity and shape statistics of an ingested matrix."""

    name: str
    group: str
    n: int
    nnz: int
    kind: str
    numerical_symmetry: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.nnz < 0:
            raise ValueError("nnz must be nonnegative")
        if not 0.0 <= self.numerical_symmetry <= 1.0:
            raise ValueError("numerical symmetry is a fraction in [0, 1]")


def _scrape_comments(comments):
    """Pull 'name: group/name' and 'kind: ...' out of collection-style comments."""
    name, group, kind = "", "", ""
    for line in comments:
        body = line.lstrip("%").strip()
        low = body.lower()
        if low.startswith("name:"):
            full = body[5:].strip()
            if "/" in full:
                group, name = full.split("/", 1)
            else:
                name = full
        elif low.startswith("kind:"):
            kind = body[5:].strip()
    return name, group, kind


def parse_matrix_market(data):
    """Parse coordinate real Matrix Market text into a general-form matrix.

    Accepts bytes or str. Symmetric storage is unfolded to both triangles,
    skew-symmetric with a negated mirror. Returns (matrix, metadata); the
    metadata name/group/kind come from collection-style comment lines when
    present, and numerical_symmetry is computed from the expanded matrix.
    Every entry line holds exactly three fields: row, column, value.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    if not data:
        raise MatrixFormatError("empty input")
    fh = io.StringIO(data, newline=None)
    m = _HEADER_RE.match(fh.readline())
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

    lines = (line.strip() for line in fh)
    comments = []
    for size_line in filter(None, lines):
        if not size_line.startswith("%"):
            break
        comments.append(size_line)
    else:
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

    # loadtxt warns on a body without entry lines, so it only sees bodies
    # that start with one
    first = next((line for line in lines if line and not line.startswith("%")), None)
    entries = np.zeros(0, dtype=_ENTRY_DTYPE)
    if first is not None:
        # older numpy reads "1.5" or "1e0" in an integer field by truncating
        # it and only warns; that warning must refuse the line too
        with warnings.catch_warnings():
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            try:
                entries = np.loadtxt(chain([first], fh), dtype=_ENTRY_DTYPE, comments="%", ndmin=1)
            except (ValueError, DeprecationWarning):
                raise MatrixFormatError("malformed coordinate line") from None
    if entries.size != count:
        raise MatrixFormatError(f"size line promises {count} entries, found {entries.size}")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    if count and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise MatrixFormatError("coordinate index out of range")

    if symmetry != "general":
        off = rows != cols
        mirror_vals = vals[off] if symmetry == "symmetric" else -vals[off]
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, mirror_vals]),
        )

    try:
        A = SquareMatrix.from_coo(n, rows, cols, vals)
    except MatrixFormatError as exc:
        # an unfolded repeat that the file itself does not repeat is a
        # folded entry meeting its explicit mirror
        if symmetry == "general" or "duplicate" not in str(exc):
            raise
        if np.unique(rows[:count] * n + cols[:count]).size < count:
            raise
        raise MatrixFormatError("folded entry mirrors an explicit coordinate") from None
    name, group, kind = _scrape_comments(comments)
    meta = MatrixMetadata(name, group, n, A.nnz, kind, numerical_symmetry(A))
    return A, meta


def write_matrix_market(A):
    """Serialize as general coordinate real text, value-exact on round-trip."""
    rows, cols, vals = A.to_coo()
    cells = [None] * (3 * vals.size)
    cells[0::3], cells[1::3], cells[2::3] = (rows + 1).tolist(), (cols + 1).tolist(), vals.tolist()
    head = f"%%MatrixMarket matrix coordinate real general\n{A.n} {A.n} {vals.size}\n"
    return (head + "%d %d %.17g\n" * vals.size % tuple(cells)).encode("ascii")


def _default_http_get(url, timeout=60.0):
    import requests

    resp = requests.get(url, timeout=timeout)
    if resp.status_code == 404:
        raise MatrixNotFoundError(f"no such matrix in the collection: {url}")
    resp.raise_for_status()
    return resp.content


def _extract_mtx(archive_bytes, name):
    """The collection archive is name/name.mtx (plus optional extras)."""
    want = f"{name}.mtx"
    try:
        with tarfile.open(fileobj=io.BytesIO(archive_bytes), mode="r:gz") as tf:
            for member in tf.getmembers():
                if Path(member.name).name == want and member.isfile():
                    return tf.extractfile(member).read()
    except (tarfile.TarError, EOFError) as exc:
        raise FetchError(f"corrupt archive for {name}: {exc}") from exc
    raise FetchError(f"archive for {name} does not contain {want}")


def fetch_suitesparse(group, name, cache_dir, http_get=None, retries=3, backoff=0.5):
    """Fetch a collection matrix as Matrix Market text, caching the .mtx file.

    Cache layout is cache_dir/group/name.mtx; a warm cache is served with no
    network use. Downloads retry with exponential backoff (404 is final).
    http_get(url) -> bytes is injectable for tests and offline mirrors.
    cache writes are atomic (temp file + rename), so concurrent fetches of
    the same matrix are safe. A cached file that no longer parses is renamed
    to name.mtx.corrupt and reported as a FetchError, so the next fetch
    downloads it again.
    """
    cache_path = Path(cache_dir) / group / f"{name}.mtx"
    if cache_path.exists():
        try:
            A, meta = parse_matrix_market(cache_path.read_bytes())
        except MatrixFormatError as exc:
            quarantine = cache_path.with_name(f"{name}.mtx.corrupt")
            os.replace(cache_path, quarantine)
            raise FetchError(
                f"corrupt cache entry for {group}/{name} moved to {quarantine}: {exc}"
            ) from exc
        return A, _pin_identity(meta, group, name)

    get = http_get if http_get is not None else _default_http_get
    url = SUITESPARSE_URL.format(group=group, name=name)
    last_error = None
    for attempt in range(retries):
        try:
            archive = get(url)
            break
        except MatrixNotFoundError:
            raise
        except Exception as exc:
            last_error = exc
            if attempt + 1 < retries:
                time.sleep(backoff * (2**attempt))
    else:
        raise FetchError(f"download failed after {retries} attempts: {last_error}")

    mtx = _extract_mtx(archive, name)
    A, meta = parse_matrix_market(mtx)  # validate before caching
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_path.parent, prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(mtx)
        os.replace(tmp, cache_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return A, _pin_identity(meta, group, name)


def _pin_identity(meta, group, name):
    """Requested group/name win over whatever the file's comments claim."""
    if meta.group == group and meta.name == name:
        return meta
    return MatrixMetadata(name, group, meta.n, meta.nnz, meta.kind, meta.numerical_symmetry)


@dataclass(frozen=True)
class DecaySpec:
    """Spectrum-decay matrix recipe: dimension, decay coefficient, seed."""

    n: int
    t: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if not (np.isfinite(self.t) and self.t > 0):
            raise ValueError("decay coefficient t must be finite and positive")


def decay_values(n, t):
    """(1 - e^{t(x-1)}) / (1 - e^t) on the inclusive grid x_k = k/(n-1)."""
    if t == 0:
        raise ValueError("t = 0 divides by zero in the decay formula")
    x = np.arange(n) / (n - 1)
    return (1.0 - np.exp(t * (x - 1.0))) / (1.0 - np.exp(t))


def gen_decay_matrix(spec):
    """Q diag(d) Q^T for a seeded random orthogonal Q and the decay diagonal."""
    d = decay_values(spec.n, spec.t)
    q = gen_random_orthogonal(spec.n, spec.seed).to_dense()
    m = (q * d) @ q.T
    return SquareMatrix.from_dense((m + m.T) * 0.5)


def gen_random_orthogonal(n, seed):
    """Orthonormal basis of a seeded Gaussian matrix (sign-fixed QR)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return SquareMatrix.from_dense(q)


def gen_low_rank(n, r, seed, scale=1.0):
    """Exactly rank-r matrix X Y^T with unit Frobenius norm times scale."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    return SquareMatrix.from_dense(m * (scale / np.linalg.norm(m)))


def gen_block_hierarchical(n, gains, seed, rank=None):
    """Sum of block-diagonal layers: layer l has 2^l blocks of size n/2^l.

    Each layer is normalized to unit Frobenius norm and scaled by gains[l-1],
    so the gains are the exact per-scale energies. n must be divisible by
    2^len(gains). With rank=None the blocks are dense Gaussian; an integer
    rank caps each block at that rank (outer product of Gaussian factors),
    which spreads the layer's energy over a controlled number of directions.
    """
    levels = len(gains)
    if n % (2**levels) != 0:
        raise ValueError(f"n={n} is not divisible by 2^{levels}")
    if rank is not None and rank < 1:
        raise ValueError(f"rank={rank} must be a positive integer or None")
    rng = np.random.default_rng(seed)
    total = np.zeros((n, n))
    for level, gain in enumerate(gains, start=1):
        size = n // (2**level)
        layer = np.zeros((n, n))
        for b in range(2**level):
            sl = slice(b * size, (b + 1) * size)
            if rank is None:
                layer[sl, sl] = rng.standard_normal((size, size))
            else:
                r = min(rank, size)
                x = rng.standard_normal((size, r))
                y = rng.standard_normal((r, size))
                layer[sl, sl] = x @ y
        total += layer * (gain / np.linalg.norm(layer))
    return SquareMatrix.from_dense(total)


def gen_mixed_matrix(n=128, seed=7):
    """Low-rank + block-hierarchical + noise: the rank-sweep test matrix.

    Combines a global rank-4 component (gain 0.4), three block-diagonal
    layers of rank-2 blocks (gains 1.0/0.8/0.6), and a Gaussian noise floor.
    The block layers spread energy over ~30 directions, which starves a
    storage-limited CUR, while the global component costs the rotation
    methods off-core mass; compressing with CUR first and rotating the
    reconstruction is the pipeline that handles both.
    """
    if n % 8 != 0:
        raise ValueError(f"n={n} must be divisible by 8")
    seeds = [s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(3)]
    low = gen_low_rank(n, 4, seed=seeds[0]).to_dense() * 0.4
    blocks = gen_block_hierarchical(n, (1.0, 0.8, 0.6), seed=seeds[1], rank=2)
    noise = np.random.default_rng(seeds[2]).standard_normal((n, n))
    noise *= 0.02 / np.sqrt(n)
    return SquareMatrix.from_dense(low + blocks.to_dense() + noise)
