"""Exact dense linear algebra over GF(2).

Matrices are numpy uint8 arrays with entries in {0, 1}; all arithmetic is
mod 2 (XOR).  Empty matrices (0 rows or 0 cols) are legal throughout and
act as identities for block composition.

mat_mul XORs bit-packed rows: it packs the rows of the right operand
into uint64 words and, for every nonzero a[i, k] of the left operand,
XORs packed row k into output row i.  Every step is an exact XOR, so
there is no size limit, and the work is nnz(a) * ceil(n / 64) word XORs,
which suits the sparse (LDPC) operands the constructions pass.  Row
reduction works on uint8 rows with numpy XOR.
"""
from __future__ import annotations

import numpy as np


def as_f2(m) -> np.ndarray:
    """Coerce array-like input to a 2-D uint8 matrix with entries in {0, 1}.

    Args:
        m: Array-like of 0/1 integers (list of lists, numpy array, ...).

    Returns:
        A C-contiguous uint8 array of shape (rows, cols).

    Raises:
        ValueError: if the input is not 2-D or has entries outside {0, 1}.
    """
    a = np.ascontiguousarray(np.asarray(m, dtype=np.uint8))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and a.max() > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return a


def as_f2_vector(v) -> np.ndarray:
    """Coerce array-like input to a 1-D uint8 vector with entries in {0, 1}."""
    a = np.ascontiguousarray(np.asarray(v, dtype=np.uint8)) % 2
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={a.ndim}")
    return a


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def weight(v) -> int:
    """Hamming weight of a 0/1 vector."""
    return int(np.count_nonzero(np.asarray(v)))


# gathered packed rows per chunk of nonzeros, in uint64 words (8 MB)
_GATHER_WORDS = 2 ** 20


def mat_mul(a, b) -> np.ndarray:
    """GF(2) matrix product as XORs of bit-packed rows.

    Only the rows of b that a selects are packed.  The nonzeros of a are
    taken in row-major order, in chunks of at most 2**20 gathered words,
    and np.bitwise_xor.reduceat folds each output row's run of packed
    rows; a row whose run spans two chunks takes one XOR from each.  So
    temporaries stay bounded whatever the density.  The trade favours
    sparse a: on a 2-CPU host the 1024x1536 by 1536x1024 sehgp rep:4
    product hx @ hz.T takes about 2 ms (60 ms as a float32 BLAS product),
    a dense random 1000x1000 square about 90 ms (35 ms).

    Args:
        a: Left matrix, shape (m, r).
        b: Right matrix, shape (r, n).

    Returns:
        a @ b reduced mod 2, a C-contiguous uint8 array of shape (m, n).

    Raises:
        ValueError: on an inner-dimension mismatch.
    """
    a = as_f2(a)
    b = as_f2(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    n = b.shape[1]
    words = -(-n // 64)
    out = np.zeros((a.shape[0], words), dtype=np.uint64)
    # a's entries are 0/1, so its bool view is exact; flat order is row-major
    rows, ks = np.divmod(np.flatnonzero(a.view(bool)), a.shape[1])
    if rows.size and words:
        used, ks = np.unique(ks, return_inverse=True)
        packed = np.zeros((used.size, words * 8), dtype=np.uint8)
        packed[:, :-(-n // 8)] = np.packbits(b[used], axis=1)
        packed = packed.view(np.uint64)
        step = max(1, _GATHER_WORDS // words)
        for s in range(0, rows.size, step):
            rr = rows[s:s + step]
            starts = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
            out[rr[starts]] ^= np.bitwise_xor.reduceat(
                packed[ks[s:s + step]], starts, axis=0)
    return np.unpackbits(out.view(np.uint8), axis=1, count=n)


def mat_vec(a, v) -> np.ndarray:
    """GF(2) matrix-vector product a @ v."""
    a = as_f2(a)
    v = as_f2_vector(v)
    if a.shape[1] != v.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ ({v.shape[0]},)")
    return (a.astype(np.int64) @ v.astype(np.int64) % 2).astype(np.uint8)


def row_echelon(m, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) via XOR elimination.

    Pivoting is first-nonzero in column order, so the result is canonical
    for a given input (exact field, no tie-breaking sensitivity).

    Args:
        m: Input matrix; not modified.
        ncols: Restrict pivot search to the first ncols columns.  Elimination
            still applies to full rows, which makes [A | I] augmentation give
            the transform matrix.

    Returns:
        (r, pivot_cols): the RREF matrix and the list of pivot column indices.
    """
    r = as_f2(m).copy()
    rows, cols = r.shape
    if ncols is None:
        ncols = cols
    pivot_cols: list[int] = []
    prow = 0
    for c in range(ncols):
        if prow >= rows:
            break
        hits = np.nonzero(r[prow:, c])[0]
        if hits.size == 0:
            continue
        p = prow + int(hits[0])
        if p != prow:
            r[[prow, p]] = r[[p, prow]]
        # clear every other 1 in this column (full reduction)
        others = np.nonzero(r[:, c])[0]
        others = others[others != prow]
        if others.size:
            r[others] ^= r[prow]
        pivot_cols.append(c)
        prow += 1
    return r, pivot_cols


def rank(m) -> int:
    """Rank over GF(2).

    Returns:
        dim(im m), computed by Gaussian elimination.
    """
    _, pivots = row_echelon(m)
    return len(pivots)


def kernel_basis(m) -> np.ndarray:
    """Basis of the right null space {v : m @ v = 0 mod 2}.

    The basis is derived from the RREF in the standard way (one vector per
    free column), so it is deterministic for a given input.

    Args:
        m: Matrix of shape (rows, n).

    Returns:
        Array of shape (n - rank, n) whose rows are the basis vectors.
    """
    m = as_f2(m)
    n = m.shape[1]
    r, pivots = row_echelon(m)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for prow, pc in enumerate(pivots):
            basis[i, pc] = r[prow, fc]
    return basis


def kron(a, b) -> np.ndarray:
    """Kronecker product over GF(2); block (i, j) equals a[i, j] * b."""
    a = as_f2(a)
    b = as_f2(b)
    out_rows = a.shape[0] * b.shape[0]
    out_cols = a.shape[1] * b.shape[1]
    if out_rows * out_cols > 5 * 10**8:
        raise ValueError(f"kron result {out_rows}x{out_cols} too large")
    return np.kron(a, b)


def block_compose(layout) -> np.ndarray:
    """Assemble a block matrix from a grid of optional blocks.

    Args:
        layout: List of block rows; each entry is a matrix or None (zero
            fill).  Row heights and column widths are inferred from the
            present blocks; a fully absent row or column is an error since
            its size would be ambiguous.

    Returns:
        The concatenated matrix.

    Raises:
        ValueError: on inconsistent block shapes or unsizeable gaps.
    """
    grid = [[None if b is None else as_f2(b) for b in row] for row in layout]
    if not grid or not grid[0]:
        return zeros(0, 0)
    nbr = len(grid)
    nbc = len(grid[0])
    if any(len(row) != nbc for row in grid):
        raise ValueError("ragged block layout")
    row_h = [-1] * nbr
    col_w = [-1] * nbc
    for i, row in enumerate(grid):
        for j, b in enumerate(row):
            if b is None:
                continue
            if row_h[i] == -1:
                row_h[i] = b.shape[0]
            elif row_h[i] != b.shape[0]:
                raise ValueError(f"block row {i}: height {b.shape[0]} != {row_h[i]}")
            if col_w[j] == -1:
                col_w[j] = b.shape[1]
            elif col_w[j] != b.shape[1]:
                raise ValueError(f"block col {j}: width {b.shape[1]} != {col_w[j]}")
    if -1 in row_h or -1 in col_w:
        raise ValueError("a fully empty block row or column has no defined size")
    out = zeros(sum(row_h), sum(col_w))
    r0 = 0
    for i, row in enumerate(grid):
        c0 = 0
        for j, b in enumerate(row):
            if b is not None:
                out[r0:r0 + row_h[i], c0:c0 + col_w[j]] = b
            c0 += col_w[j]
        r0 += row_h[i]
    return out


class RowSpaceTester:
    """Repeated membership tests against a fixed row space.

    Precomputes the RREF once; each query is a single elimination pass.
    """

    def __init__(self, m):
        m = as_f2(m)
        self.n = m.shape[1]
        self.rref, self.pivots = row_echelon(m)
        self.rref = self.rref[: len(self.pivots)]

    def contains(self, v) -> bool:
        """True iff v lies in the row space."""
        v = as_f2_vector(v).copy()
        for prow, pc in enumerate(self.pivots):
            if v[pc]:
                v ^= self.rref[prow]
        return not v.any()

    def contains_batch(self, vs) -> np.ndarray:
        """Vectorized membership for a (count, n) stack of row vectors."""
        vs = as_f2(vs).copy()
        for prow, pc in enumerate(self.pivots):
            hit = vs[:, pc].astype(bool)
            if hit.any():
                vs[hit] ^= self.rref[prow]
        return ~vs.any(axis=1)


def columns_as_ints(m) -> list[int]:
    """Pack each column of a 0/1 matrix into a Python int bitmask."""
    m = as_f2(m)
    out = []
    for j in range(m.shape[1]):
        col = m[:, j]
        out.append(int.from_bytes(np.packbits(col).tobytes(), "big"))
    return out

