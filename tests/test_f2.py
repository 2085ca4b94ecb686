"""GF(2) core: every derived value is cross-checked against an
independent brute-force oracle written in this file."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import f2

REP3 = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
HAM = np.array([[0, 0, 0, 1, 1, 1, 1],
                [0, 1, 1, 0, 0, 1, 1],
                [1, 0, 1, 0, 1, 0, 1]], dtype=np.uint8)


def naive_mul(a, b):
    """Triple-loop multiply, the reference for mat_mul."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= int(a[i, k]) & int(b[k, j])
            out[i, j] = acc
    return out


def brute_kernel(m):
    """All kernel vectors by 2^n enumeration (n <= 14)."""
    n = m.shape[1]
    assert n <= 14
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        v = np.array(bits, dtype=np.uint8)
        if not (m @ v % 2).any():
            out.append(v)
    return out


def brute_rank(m):
    """log2 of the row-span size."""
    span = {0}
    for row in m:
        key = int("".join(map(str, row)), 2) if row.size else 0
        span |= {key ^ s for s in span}
    return int(np.log2(len(span)))


mats = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(0, 1), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


def test_mat_mul_identity():
    eye = f2.identity(2)
    assert (f2.mat_mul(eye, eye) == eye).all()


def test_mat_mul_rep3_self_transpose():
    prod = f2.mat_mul(REP3, REP3.T)
    assert (prod == naive_mul(REP3, REP3.T)).all()
    assert not prod.diagonal().any()
    assert f2.rank(prod) == 2


def test_mat_mul_hamming_all_ones():
    ones = np.ones((7, 1), dtype=np.uint8)
    assert (f2.mat_mul(HAM, ones) == naive_mul(HAM, ones)).all()


def test_mat_mul_shape_error():
    with pytest.raises(ValueError):
        f2.mat_mul(f2.identity(2), f2.identity(3))


def test_mat_mul_exact_past_float32_range():
    # inner size 2**24 and beyond, where float32 sums stop being exact;
    # empty outer sizes keep the first pair unallocated
    a = np.zeros((0, 2 ** 24), dtype=np.uint8)
    b = np.zeros((2 ** 24, 0), dtype=np.uint8)
    got = f2.mat_mul(a, b)
    assert got.shape == (0, 0) and got.dtype == np.uint8
    row = np.zeros((1, 2 ** 24 + 1), dtype=np.uint8)
    row[0, [0, 2 ** 23, 2 ** 24]] = 1
    assert f2.mat_mul(row, row.T.copy()).tolist() == [[1]]


def test_mat_mul_dense_all_ones_parity():
    # every entry sums 4099 ones, past the point where narrow
    # accumulators round or wrap; all entries equal one naive dot product
    a = np.ones((64, 4099), dtype=np.uint8)
    b = np.ones((4099, 64), dtype=np.uint8)
    want = naive_mul(a[:1], b[:, :1])[0, 0]
    assert want == 1
    assert (f2.mat_mul(a, b) == want).all()


@st.composite
def sparse_operands(draw):
    """(a, b, gather): seeded 0/1 operands with output widths at the
    64-bit word edges, a's density anywhere in [0, 1] with some rows
    forced to zero, and a gather chunk size, small ones so that a's
    nonzeros span several chunks."""
    m, r = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129])
             | st.integers(0, 200))
    dens_a = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    dens_b = draw(st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = (rng.random((m, r)) < dens_a).astype(np.uint8)
    a[draw(st.lists(st.integers(0, m - 1), max_size=m)) if m else []] = 0
    b = (rng.random((r, n)) < dens_b).astype(np.uint8)
    return a, b, draw(st.sampled_from([1, 3, 2 ** 20]))


@given(sparse_operands())
@settings(max_examples=60, deadline=None)
def test_mat_mul_matches_naive(operands):
    a, b, gather = operands
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2, "_GATHER_WORDS", gather)
        got = f2.mat_mul(a, b)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert got.shape == (a.shape[0], b.shape[1])
    assert (got == naive_mul(a, b)).all()


def test_rank_zero():
    assert f2.rank(f2.zeros(3, 3)) == 0


def test_rank_rep3():
    assert f2.rank(REP3) == 2 == brute_rank(REP3)


def test_rank_hamming():
    assert f2.rank(HAM) == 3


@given(mats)
@settings(max_examples=60, deadline=None)
def test_rank_matches_span_and_transpose(rows):
    m = np.array(rows, dtype=np.uint8)
    assert f2.rank(m) == brute_rank(m) == f2.rank(m.T.copy())


def test_kernel_identity_empty():
    assert f2.kernel_basis(f2.identity(3)).shape[0] == 0


def test_kernel_rep3():
    basis = f2.kernel_basis(REP3)
    assert basis.shape == (1, 3)
    assert (basis[0] == [1, 1, 1]).all()


def test_kernel_hamming():
    basis = f2.kernel_basis(HAM)
    assert basis.shape[0] == 4
    for v in basis:
        assert not f2.mat_vec(HAM, v).any()
    # basis spans exactly the brute-force kernel
    span = {0}
    for v in basis:
        key = int("".join(map(str, v)), 2)
        span |= {key ^ s for s in span}
    brute = {int("".join(map(str, v)), 2) for v in brute_kernel(HAM)}
    assert span == brute


@given(mats)
@settings(max_examples=60, deadline=None)
def test_kernel_basis_properties(rows):
    m = np.array(rows, dtype=np.uint8)
    basis = f2.kernel_basis(m)
    assert basis.shape[0] == m.shape[1] - f2.rank(m)
    for v in basis:
        assert not f2.mat_vec(m, v).any()
    if basis.shape[0]:
        assert f2.rank(basis) == basis.shape[0]


def test_kron_identities():
    assert (f2.kron(f2.identity(2), f2.identity(3)) == f2.identity(6)).all()


def test_kron_rep_open_blocks():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    got = f2.kron(h, f2.identity(3))
    eye = f2.identity(3)
    want = f2.block_compose([[eye, eye, f2.zeros(3, 3)],
                             [f2.zeros(3, 3), eye, eye]])
    assert (got == want).all()


def vec_col(c):
    """Column-stacking vec."""
    return c.reshape(-1, order="F")


@given(st.integers(0, 2 ** 30), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_vec_identity(seed, p, q, m, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (p, q), dtype=np.uint8)
    b = rng.integers(0, 2, (m, n), dtype=np.uint8)
    c = rng.integers(0, 2, (n, q), dtype=np.uint8)
    lhs = f2.mat_vec(f2.kron(a, b), vec_col(c))
    rhs = vec_col(f2.mat_mul(f2.mat_mul(b, c), a.T))
    assert (lhs == rhs).all()


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(0, 2, rng.integers(1, 4, 2), dtype=np.uint8)
               for _ in range(3))
    left = f2.kron(f2.kron(a, b), c)
    right = f2.kron(a, f2.kron(b, c))
    assert (left == right).all()


@given(mats, mats)
@settings(max_examples=40, deadline=None)
def test_rank_of_product_bound(a_rows, b_rows):
    a = np.array(a_rows, dtype=np.uint8)
    b = np.array(b_rows, dtype=np.uint8)
    if a.shape[1] != b.shape[0]:
        b = b.T
    if a.shape[1] != b.shape[0]:
        return
    assert f2.rank(f2.mat_mul(a, b)) <= min(f2.rank(a), f2.rank(b))


def test_block_compose_identity():
    z = f2.zeros(2, 2)
    eye = f2.identity(2)
    assert (f2.block_compose([[eye, z], [z, eye]]) == f2.identity(4)).all()


def test_block_compose_concat_and_none():
    a = np.array([[1, 0]], dtype=np.uint8)
    b = np.array([[1, 1, 1]], dtype=np.uint8)
    row = f2.block_compose([[a, b]])
    assert row.shape == (1, 5)
    # None blocks fill with zeros, sized from the surrounding grid
    grid = f2.block_compose([[f2.identity(2), None], [None, f2.identity(3)]])
    assert grid.shape == (5, 5)
    assert (grid == f2.identity(5)).all()


def test_block_compose_shape_error():
    with pytest.raises(ValueError):
        f2.block_compose([[f2.identity(2), f2.identity(3)]])


def test_block_compose_empty_blocks():
    a = f2.zeros(0, 3)
    out = f2.block_compose([[a], [f2.identity(3)]])
    assert out.shape == (3, 3)


def test_row_space_complement_full_rank():
    assert f2.kernel_basis(f2.identity(3)).shape[0] == 0


def test_row_space_complement_chain_pair():
    a = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    b = f2.kernel_basis(a)
    # frozen from exhaustive search over all 2^3 candidate rows
    assert (b == np.array([[1, 1, 1]], dtype=np.uint8)).all()


def test_row_space_complement_hamming():
    b = f2.kernel_basis(HAM)
    assert f2.rank(b) == 4
    assert not f2.mat_mul(b, HAM.T).any()


@given(mats)
@settings(max_examples=60, deadline=None)
def test_rank_stacking(rows):
    a = np.array(rows, dtype=np.uint8)
    b = f2.kernel_basis(a)
    assert not f2.mat_mul(b, a.T).any()
    assert f2.rank(a) + b.shape[0] == a.shape[1]


def test_row_space_tester_against_span():
    rng = np.random.default_rng(11)
    m = rng.integers(0, 2, (4, 8), dtype=np.uint8)
    tester = f2.RowSpaceTester(m)
    span = {b"\x00" * 8}
    for row in m:
        span |= {bytes(np.frombuffer(s, np.uint8) ^ row) for s in span}
    for bits in itertools.product((0, 1), repeat=8):
        v = np.array(bits, dtype=np.uint8)
        assert tester.contains(v) == (bytes(v) in span)


def int_to_vector(x, length):
    """Inverse of the packing used by columns_as_ints (big-endian bits)."""
    raw = np.frombuffer(x.to_bytes((length + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[:length]


def test_columns_as_ints_roundtrip():
    ints = f2.columns_as_ints(HAM)
    assert len(ints) == 7
    for j, val in enumerate(ints):
        assert (int_to_vector(val, 3) == HAM[:, j]).all()
    # column 6 is (1,1,1): big-endian bit packing
    assert ints[6] == f2.columns_as_ints(np.ones((3, 1), dtype=np.uint8))[0]
