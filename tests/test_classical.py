"""Classical codes: parameters, and the parameters of direct products.

The direct-product parameter law is checked exhaustively over a small
code zoo, with n and k from independent rank arithmetic and d from full
codeword enumeration.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, f2
from codeforge.classical import (UNDEFINED, ClassicalCode, LowerBound,
                                 params)


def hamming_7_4():
    """The [7,4,3] Hamming code with columns 1..7 in binary."""
    return ClassicalCode([[0, 0, 0, 1, 1, 1, 1],
                          [0, 1, 1, 0, 0, 1, 1],
                          [1, 0, 1, 0, 1, 0, 1]], name="hamming74")


def direct_product(c1, c2):
    """Code of n1 x n2 matrices with columns in c1 and rows in c2: the
    check matrix stacks h1 (x) I_n2 over I_n1 (x) h2, and the parameters
    multiply to [n1 n2, k1 k2, d1 d2]."""
    return ClassicalCode(f2.block_compose(
        [[f2.kron(c1.h, f2.identity(c2.n))],
         [f2.kron(f2.identity(c1.n), c2.h)]]))


def brute_distance(h):
    """Minimum nonzero codeword weight by 2^n enumeration (n <= 21
    restricted to the kernel basis span)."""
    basis = f2.kernel_basis(h)
    k = basis.shape[0]
    if k == 0:
        return None
    best = None
    for bits in itertools.product((0, 1), repeat=k):
        if not any(bits):
            continue
        v = np.zeros(h.shape[1], dtype=np.uint8)
        for i, b in enumerate(bits):
            if b:
                v ^= basis[i]
        w = int(v.sum())
        best = w if best is None or w < best else best
    return best


def zoo():
    rng = np.random.default_rng(5)
    return [classical.repetition_closed_loop(2),
            classical.repetition_closed_loop(3),
            hamming_7_4(),
            ClassicalCode(rng.integers(0, 2, (3, 5), dtype=np.uint8),
                          name="rand35")]


def test_params_rep3():
    assert params(classical.repetition_closed_loop(3)) == (3, 1, 3)


def test_params_hamming():
    assert params(hamming_7_4()) == (7, 4, 3)


def test_params_trivial_code():
    n, k, d = params(ClassicalCode(f2.identity(3)))
    assert (n, k) == (3, 0)
    assert d is UNDEFINED


def test_params_rejects_bad_cap():
    with pytest.raises(ValueError):
        params(hamming_7_4(), max_weight=0)


def test_lower_bound_flag():
    # k = 29 is above the enumeration limit, so the support search runs
    h = np.zeros((1, 30), dtype=np.uint8)
    h[0, :2] = 1
    got = classical.min_kernel_weight(h, max_weight=0)
    assert isinstance(got, LowerBound)
    assert repr(got) == "> 0"


def test_repetition_closed_loop_matrix():
    h = classical.repetition_closed_loop(3).h
    want = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert (h == want).all()
    assert params(classical.repetition_closed_loop(2)) == (2, 1, 2)
    with pytest.raises(ValueError):
        classical.repetition_closed_loop(1)


def test_repetition_all_ones_kernel():
    for n in (2, 3, 5, 8):
        h = classical.repetition_closed_loop(n).h
        assert not f2.mat_vec(h, np.ones(n, dtype=np.uint8)).any()


def test_direct_product_rep2_rep2():
    c = direct_product(classical.repetition_closed_loop(2),
                       classical.repetition_closed_loop(2))
    assert params(c) == (4, 1, 4)
    assert brute_distance(c.h) == 4


def test_direct_product_rep_hamming_fixture():
    """[21,4,9] with the upper/lower block stack H1 (x) I7 over I3 (x) H2."""
    rep = classical.repetition_open(3)
    ham = hamming_7_4()
    c = direct_product(rep, ham)
    upper = f2.kron(rep.h, f2.identity(7))
    lower = f2.kron(f2.identity(3), ham.h)
    assert (c.h[:14] == upper).all()
    assert (c.h[14:] == lower).all()
    assert params(c) == (21, 4, 9)


def test_direct_product_parameter_law_over_zoo():
    for c1 in zoo():
        for c2 in zoo():
            prod = direct_product(c1, c2)
            assert prod.n == c1.n * c2.n
            assert prod.k == c1.k * c2.k
            d1, d2 = brute_distance(c1.h), brute_distance(c2.h)
            if d1 is not None and d2 is not None:
                assert brute_distance(prod.h) == d1 * d2


def test_direct_product_matrix_characterization():
    """Kernel vectors reshape to matrices with columns in c1, rows in c2,
    and every such matrix is a codeword (both directions)."""
    c1 = classical.repetition_open(3)
    c2 = hamming_7_4()
    prod = direct_product(c1, c2)
    basis = f2.kernel_basis(prod.h)
    for v in basis:
        e = v.reshape(3, 7)
        assert not f2.mat_mul(c1.h, e).any()      # columns repeat
        assert not f2.mat_mul(c2.h, e.T).any()    # rows are Hamming words
    # converse: outer products of base codewords land in the kernel and
    # count out the full 2^(k1 k2) codeword set
    u = np.ones(3, dtype=np.uint8)
    tester = f2.RowSpaceTester(basis)
    outer = []
    for wv in itertools.product((0, 1), repeat=4):
        v = np.zeros(7, dtype=np.uint8)
        for i, b in enumerate(wv):
            if b:
                v ^= f2.kernel_basis(c2.h)[i]
        outer.append(np.outer(u, v).reshape(-1) % 2)
    assert tester.contains_batch(outer).sum() == 16


def test_kernel_supports_of_weight_completeness():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = rng.integers(0, 2, (4, 9), dtype=np.uint8)
        for w in range(1, 6):
            got = set(classical.kernel_supports_of_weight(m, w))
            want = {supp for supp in itertools.combinations(range(9), w)
                    if not m[:, list(supp)].sum(axis=1).__mod__(2).any()}
            assert got == want


@given(st.integers(0, 2 ** 30))
@settings(max_examples=40, deadline=None)
def test_min_kernel_weight_matches_brute(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, (rng.integers(1, 5), rng.integers(2, 10)),
                     dtype=np.uint8)
    got = classical.min_kernel_weight(m)
    want = brute_distance(m)
    if want is None:
        assert got is UNDEFINED
    else:
        assert got == want


def search_keys(values):
    """The support-search keys of values, from a matcher holding them."""
    matcher = classical.SupportMatcher([(i, i, v) for i, v in
                                        enumerate(values)])
    return matcher._tables()[1].tolist()


@given(st.integers(0, 2 ** 300), st.integers(0, 2 ** 300),
       st.integers(0, 2 ** 64))
@settings(max_examples=100, deadline=None)
def test_key_is_linear(a, b, c):
    ka, kb, kab, kzero = search_keys([a, b, a ^ b, 0])
    assert kab == ka ^ kb
    assert kzero == 0
    # a value's key does not depend on the width of the other entries
    assert search_keys([c]) == search_keys([c, a])[:1]


def fold(v):
    """XOR of the 64-bit words of v."""
    f = 0
    while v:
        f ^= v & (2 ** 64 - 1)
        v >>= 64
    return f


@pytest.mark.parametrize("block", [64, 128, 192])
def test_keys_separate_kronecker_columns(block):
    # columns built from identity blocks whose sizes are multiples of 64
    # bits repeat their words, so their words' XOR collapses; bsh rep:4's
    # syndrome checks are of this kind
    rng = np.random.default_rng(block)
    a = rng.integers(0, 2, (4, 12), dtype=np.uint8)
    eye = f2.identity(block)
    m = f2.block_compose([[f2.kron(a, eye), f2.kron(eye, a[:, :3])]])
    values = f2.columns_as_ints(m)
    assert len({fold(v) for v in values}) < len(set(values)) // 4
    assert len(set(search_keys(values))) == len(set(values))
