"""Chain complexes: validation and graded tensor products, with Betti
numbers from the brute_betti oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, complexes, f2
from codeforge.complexes import ChainComplex, ComplexValidationError

REP3 = classical.repetition_closed_loop(3).h


def random_length2(rng):
    """A valid random length-2 complex: d1 random, d2 a kernel basis."""
    d1 = rng.integers(0, 2, (rng.integers(1, 5), rng.integers(1, 5)),
                      dtype=np.uint8)
    d2 = f2.kernel_basis(d1).T.copy()
    if d2.shape[1] == 0:
        d2 = np.zeros((d1.shape[1], 1), dtype=np.uint8)
    return ChainComplex([d2, d1])


def test_validate_length1_ok():
    ChainComplex([np.array([[1, 1]], dtype=np.uint8)]).validate()


def test_validate_transpose_pair():
    # rep(2) has H H^T = 0 so (H^T, H) chains; rep(3) does not and must
    # be rejected, naming the failing degree
    rep2 = classical.repetition_closed_loop(2).h
    ChainComplex([rep2.T.copy(), rep2]).validate()
    assert f2.mat_mul(REP3, REP3.T).any()
    with pytest.raises(ComplexValidationError, match="degree 1"):
        ChainComplex([REP3.T.copy(), REP3]).validate()


def test_validate_identity_pair_fails():
    c = ChainComplex([f2.identity(2), f2.identity(2)])
    with pytest.raises(ComplexValidationError, match="degree 1"):
        c.validate()


def test_validate_shape_mismatch():
    with pytest.raises(ComplexValidationError):
        ChainComplex([f2.identity(2), f2.identity(3)]).validate()


def test_dims_and_boundary_indexing():
    c = ChainComplex([REP3.T.copy(), REP3])
    assert c.length == 2
    assert [c.dim(k) for k in (2, 1, 0)] == [3, 3, 3]
    assert (c.boundary(1) == REP3).all()
    with pytest.raises(IndexError):
        c.boundary(3)


def test_betti_rep3_length1(brute_betti):
    c = ChainComplex([REP3])
    assert brute_betti(c, 1) == 1
    assert brute_betti(c, 0) == 1


def test_betti_rep3_product(brute_betti):
    j = complexes.tensor(ChainComplex([REP3]), ChainComplex([REP3]))
    assert [brute_betti(j, k) for k in (2, 1, 0)] == [1, 2, 1]  # 2 k^2 at 1


def test_betti_zero_complex(brute_betti):
    c = ChainComplex([np.zeros((2, 2), dtype=np.uint8)], dims=[2, 2])
    assert brute_betti(c, 1) == 2


def test_betti_degree_out_of_range(brute_betti):
    with pytest.raises(IndexError):
        brute_betti(ChainComplex([REP3]), 2)


def test_tensor_length1_shapes():
    j = complexes.tensor(ChainComplex([REP3]), ChainComplex([REP3]))
    assert j.boundary(2).shape == (18, 9)
    assert j.boundary(1).shape == (9, 18)
    j.validate()
    # printed stack order: d1[X] (x) 1 above 1 (x) d1[Y]
    want = f2.block_compose([[f2.kron(REP3, f2.identity(3))],
                             [f2.kron(f2.identity(3), REP3)]])
    assert (j.boundary(2) == want).all()


def test_tensor_l2l2_dims():
    rep2 = classical.repetition_closed_loop(2).h
    j = complexes.tensor(ChainComplex([rep2]), ChainComplex([rep2]))
    q = complexes.tensor(j, j)
    assert q.dims == [16, 64, 96, 64, 16]
    q.validate()


def test_tensor_single_cell():
    c = ChainComplex([np.zeros((1, 1), dtype=np.uint8)])
    p = complexes.tensor(c, c)
    assert all(not b.any() for b in p.boundaries)


def test_tensor_degree3_order_override():
    """A product of two length-2 factors lists degree 3 by decreasing
    first-factor degree, and every other degree by increasing."""
    rep2 = classical.repetition_closed_loop(2).h
    j = complexes.tensor(ChainComplex([rep2]), ChainComplex([rep2]))
    a = complexes.tensor(j, j)
    assert a.components[3] == [(2, 1, 32), (1, 2, 32)]
    assert a.components[2] == [(0, 2, 16), (1, 1, 64), (2, 0, 16)]


@given(st.integers(0, 2 ** 30))
@settings(max_examples=50, deadline=None)
def test_kunneth(brute_betti, seed):
    rng = np.random.default_rng(seed)
    x = random_length2(rng)
    y = random_length2(rng)
    t = complexes.tensor(x, y)
    for k in range(t.length + 1):
        conv = sum(brute_betti(x, i) * brute_betti(y, k - i)
                   for i in range(k + 1)
                   if i <= x.length and 0 <= k - i <= y.length)
        assert brute_betti(t, k) == conv


@given(st.integers(0, 2 ** 30))
@settings(max_examples=50, deadline=None)
def test_tensor_dim_rule_and_validates(seed):
    rng = np.random.default_rng(seed)
    x = random_length2(rng)
    y = ChainComplex([rng.integers(0, 2, (rng.integers(1, 4),
                                          rng.integers(1, 4)),
                                   dtype=np.uint8)])
    t = complexes.tensor(x, y)
    t.validate()
    for k in range(t.length + 1):
        want = sum(x.dim(i) * y.dim(k - i) for i in range(k + 1)
                   if i <= x.length and 0 <= k - i <= y.length)
        assert t.dim(k) == want



@given(st.integers(0, 2 ** 30))
@settings(max_examples=50, deadline=None)
def test_tensor_of_length2_complexes_chains(seed):
    # the SEHGP builders take tensor's product unvalidated, so d d = 0
    # must hold for any two valid length-2 factors: here d2 maps onto a
    # random subspace of ker d1
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(2):
        d1 = rng.integers(0, 2, (rng.integers(1, 5), rng.integers(1, 5)),
                          dtype=np.uint8)
        ker = f2.kernel_basis(d1).T
        mix = rng.integers(0, 2, (ker.shape[1], rng.integers(1, 4)),
                           dtype=np.uint8)
        factors.append(ChainComplex([(ker.astype(int) @ mix) % 2, d1]))
    t = complexes.tensor(*factors)
    assert t.length == 4
    for k in range(1, t.length + 1):
        assert t.boundary(k).shape == (t.dim(k - 1), t.dim(k))
    for k in range(1, t.length):
        prod = t.boundary(k).astype(int) @ t.boundary(k + 1).astype(int)
        assert not (prod % 2).any()
