"""Exact dense linear algebra over GF(2).

Matrices are numpy uint8 arrays with entries in {0, 1}; all arithmetic is
mod 2 (XOR).  Empty matrices (0 rows or 0 cols) are legal throughout and
act as identities for block composition.

mat_mul XORs bit-packed rows: it packs the rows of the right operand
into uint64 words and, for every nonzero a[i, k] of the left operand,
XORs packed row k into output row i.  Every step is an exact XOR, so
there is no size limit, and the work is nnz(a) * ceil(n / 64) word XORs,
which suits the sparse (LDPC) operands the constructions pass.  Row
reduction holds each row as one Python int (bit c = column c) and
reduces it against a dict of echelon rows keyed by pivot, the column of
their lowest set bit, so each step is one XOR of a whole row.
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
    return _checked(np.ascontiguousarray(np.asarray(m, dtype=np.uint8)))


def _checked(a: np.ndarray) -> np.ndarray:
    """a itself, once it is known to be a 2-D matrix of 0/1 entries."""
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and a.max() > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return a


def as_f2_vector(v) -> np.ndarray:
    """Coerce array-like input to a 1-D uint8 vector with entries in {0, 1}.

    Raises:
        ValueError: if the input is not 1-D or has entries outside {0, 1}.
    """
    a = np.ascontiguousarray(np.asarray(v, dtype=np.uint8))
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={a.ndim}")
    if a.size and a.max() > 1:
        raise ValueError("vector entries must be 0 or 1")
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
# products of at most this many multiply-adds are one exact float32 call
_BLAS_MACS = 2 ** 20


def mat_mul(a, b) -> np.ndarray:
    """GF(2) matrix product as XORs of bit-packed rows.

    Only the rows of b that a selects are packed.  The nonzeros of a are
    taken in row-major order, in chunks of at most 2**20 gathered words,
    and np.bitwise_xor.reduceat folds each output row's run of packed
    rows; a row whose run spans two chunks takes one XOR from each.  So
    temporaries stay bounded whatever the density.  The trade favours
    sparse a: on a 2-CPU host the 1024x1536 by 1536x1024 sehgp rep:4
    product hx @ hz.T takes about 2 ms (60 ms as a float32 BLAS product),
    a dense random 1000x1000 square about 90 ms (35 ms).  A product of at
    most _BLAS_MACS multiply-adds, a decoder batch say, is one float32
    BLAS call instead, which skips that set-up.

    Args:
        a: Left matrix, shape (m, r).
        b: Right matrix, shape (r, n).

    Returns:
        a @ b reduced mod 2, a C-contiguous uint8 array of shape (m, n).

    Raises:
        ValueError: on an inner-dimension mismatch.
    """
    a = as_f2(a)
    # b is only read in the rows a selects, so a transposed view is
    # packed as it is rather than copied whole
    b = _checked(np.asarray(b, dtype=np.uint8))
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    n = b.shape[1]
    if a.shape[0] * a.shape[1] * n <= _BLAS_MACS:
        return (a.astype(np.float32) @ b.astype(np.float32) % 2).astype(
            np.uint8)
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
    """GF(2) matrix-vector product a @ v, a uint8 vector of shape (rows,)."""
    a = as_f2(a)
    v = as_f2_vector(v)
    if a.shape[1] != v.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ ({v.shape[0]},)")
    # uint8 sums wrap mod 256, an even modulus, so the parity is exact
    return (a @ v) & 1


def _echelon(m: np.ndarray) -> dict[int, int]:
    """The rows of a checked matrix in echelon form: Python ints (bit c =
    column c) keyed by pivot, the column of their lowest set bit.  Each
    row is reduced against the kept rows until it is 0 or has a new
    pivot, one XOR of a whole row a step, with no back-substitution.
    Small-int keys: a big-int key would be hashed anew at each lookup."""
    packed = np.packbits(m, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    basis: dict[int, int] = {}
    for start in range(0, len(raw), width or 1):
        x = int.from_bytes(raw[start:start + width], "little")
        while x and (c := (x & -x).bit_length() - 1) in basis:
            x ^= basis[c]
        if x:
            basis[c] = x
    return basis


def _unpack(basis: dict[int, int], cols: int) -> tuple[np.ndarray, list[int]]:
    """The rows of basis in pivot order as a uint8 matrix, and the pivots."""
    pivots = sorted(basis)
    width = -(-cols // 8)
    raw = b"".join(basis[c].to_bytes(width, "little") for c in pivots)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(pivots), width)
    return np.unpackbits(rows, axis=1, count=cols, bitorder="little"), pivots


def row_echelon(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2), canonical since it is unique:
    the rows of _echelon back-substituted in decreasing pivot order
    against the rows already reduced.

    Returns:
        (r, pivot_cols): the RREF of m's shape, zero rows last, and the
        increasing pivot column indices.
    """
    m = as_f2(m)
    basis = _echelon(m)
    mask = sum(1 << c for c in basis)
    for c in sorted(basis, reverse=True):
        # a reduced row has no pivot bit but its own, so one XOR each
        y = (basis[c] & mask) ^ (1 << c)
        while y:
            bit = y & -y
            basis[c] ^= basis[bit.bit_length() - 1]
            y ^= bit
    r, pivots = _unpack(basis, m.shape[1])
    return np.concatenate([r, zeros(len(m) - len(r), r.shape[1])]), pivots


def rank(m) -> int:
    """Rank over GF(2): the number of echelon rows."""
    return len(_echelon(as_f2(m)))


def kernel_basis(m) -> np.ndarray:
    """Basis of the right null space {v : m @ v = 0 mod 2}.

    The basis is derived from the RREF in the standard way: row i is the
    vector with a 1 at the i-th free (non-pivot) column and, at each
    pivot column, the RREF entry of that pivot's row in the free column.

    Args:
        m: Matrix of shape (rows, n); 0 rows or 0 columns are legal.

    Returns:
        Array of shape (n - rank, n) whose rows are the basis vectors.
    """
    r, pivots = row_echelon(m)
    n = r.shape[1]
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, n), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = r[:len(pivots), free].T
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
    """Repeated membership tests against a fixed row space: the echelon
    rows in pivot order, each query one elimination pass in that order."""

    def __init__(self, m):
        m = as_f2(m)
        self.rows, self.pivots = _unpack(_echelon(m), m.shape[1])

    def contains_batch(self, vs) -> np.ndarray:
        """Vectorized membership for a (count, n) stack of row vectors."""
        vs = as_f2(vs).copy()
        for prow, pc in enumerate(self.pivots):
            hit = vs[:, pc].astype(bool)
            if hit.any():
                vs[hit] ^= self.rows[prow]
        return ~vs.any(axis=1)


def columns_as_ints(m) -> list[int]:
    """Pack each column of a 0/1 matrix into a Python int bitmask.

    Row 0 is the most significant of ceil(rows / 8) big-endian bytes,
    the last row padded with zero bits, so row i of r rows has bit value
    2 ** (8 * ceil(r / 8) - 1 - i).  A matrix with 0 rows gives zeros.
    """
    # packbits runs several times faster on a contiguous transpose
    cols = np.ascontiguousarray(as_f2(m).T)
    return [int.from_bytes(col, "big") for col in np.packbits(cols, axis=1)]
