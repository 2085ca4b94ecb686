"""CSS codes: validity, parameters, syndromes, Tanner decomposition,
and the alist bundle interchange."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, css, f2
from codeforge.constructions import bssh, hgp
from codeforge.css import (CssCode, CssValidationError, NoLogicalsError,
                           PauliError, Syndrome)


def toric18():
    rep3 = classical.repetition_closed_loop(3)
    return hgp(rep3.h, rep3.h).css


def test_pauli_single_and_weight():
    y = PauliError.single(4, 2, "Y")
    assert (y.ex == [0, 0, 1, 0]).all() and (y.ez == [0, 0, 1, 0]).all()
    assert y.weight == 1
    x = PauliError.single(4, 0, "X")
    assert (x * y).weight == 2
    assert (y * y).weight == 0
    with pytest.raises(ValueError):
        PauliError.single(4, 0, "W")


def test_validate_hgp_output():
    css.validate_css(toric18())


def test_validate_identity_pair_fails():
    with pytest.raises(CssValidationError, match="row 0"):
        css.validate_css(CssCode(f2.identity(2), f2.identity(2)))


def test_validate_qubit_mismatch():
    with pytest.raises(CssValidationError):
        css.validate_css(CssCode(f2.zeros(1, 2), f2.zeros(1, 3)))


def test_validate_syndrome_checks():
    rep2 = classical.repetition_closed_loop(2)
    c = hgp(rep2.h, rep2.h).css
    good = f2.kernel_basis(c.hx.T.copy())
    css.validate_css(CssCode(c.hx, c.hz, hsx=good))
    bad = np.ones((1, c.hx.shape[0]), dtype=np.uint8)
    if f2.mat_mul(bad, c.hx).any():
        with pytest.raises(CssValidationError, match="hsx"):
            css.validate_css(CssCode(c.hx, c.hz, hsx=bad))


def test_logical_count_hgp():
    assert css.logical_count(toric18()) == 2


def test_logical_count_empty_checks():
    c = CssCode(f2.zeros(0, 5), f2.zeros(0, 5))
    assert css.logical_count(c) == 5


def test_logical_x_equals_logical_z():
    c = toric18()
    n = c.n
    kx = (n - f2.rank(c.hx)) - f2.rank(c.hz)
    kz = (n - f2.rank(c.hz)) - f2.rank(c.hx)
    assert kx == kz == css.logical_count(c)


def test_syndrome_basics():
    c = toric18()
    assert css.syndrome(c, PauliError.identity(18)).weight == 0
    stab = PauliError(c.hx[0].copy(), np.zeros(18, dtype=np.uint8))
    assert css.syndrome(c, stab).weight == 0
    z0 = PauliError.single(18, 0, "Z")
    assert (css.syndrome(c, z0).sx == c.hx[:, 0]).all()
    with pytest.raises(ValueError):
        css.syndrome(c, PauliError.identity(4))


@given(st.integers(0, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_syndrome_homomorphism(seed):
    rng = np.random.default_rng(seed)
    c = toric18()
    e1 = PauliError(rng.integers(0, 2, 18, dtype=np.uint8),
                    rng.integers(0, 2, 18, dtype=np.uint8))
    e2 = PauliError(rng.integers(0, 2, 18, dtype=np.uint8),
                    rng.integers(0, 2, 18, dtype=np.uint8))
    lhs = css.syndrome(c, e1 * e2)
    rhs = css.syndrome(c, e1) + css.syndrome(c, e2)
    assert (lhs.sx == rhs.sx).all() and (lhs.sz == rhs.sz).all()


def brute_css_distance(c, kind):
    """Full 2^n scan (n <= 14 only): min weight in ker minus coset."""
    ker_of = c.hx if kind == "X" else c.hz
    other = c.hz if kind == "X" else c.hx
    tester = f2.RowSpaceTester(other)
    best = None
    for bits in itertools.product((0, 1), repeat=c.n):
        v = np.array(bits, dtype=np.uint8)
        if not v.any() or f2.mat_vec(ker_of, v).any() or tester.contains(v):
            continue
        best = int(v.sum()) if best is None else min(best, int(v.sum()))
    return best


def test_distance_hgp_rep3():
    c = toric18()
    assert css.distance(c, "X", 3) == 3
    assert css.distance(c, "Z", 3) == 3


def test_distance_matches_full_enumeration():
    rep2 = classical.repetition_closed_loop(2)
    c = hgp(rep2.h, rep2.h).css  # 8 qubits
    for kind in "XZ":
        assert css.distance(c, kind, 8) == brute_css_distance(c, kind)


def test_distance_lower_bound_and_errors():
    c = toric18()
    got = css.distance(c, "X", 2)
    assert repr(got) == "> 2"
    with pytest.raises(ValueError):
        css.distance(c, "W", 2)
    full = CssCode(f2.identity(3), f2.zeros(0, 3))
    with pytest.raises(NoLogicalsError):
        css.distance(full, "X", 2)


def test_tanner_components_block_diagonal():
    a = np.array([[1, 1]], dtype=np.uint8)
    m = f2.block_compose([[a, None], [None, a]])
    c = CssCode(m, f2.zeros(0, 4))
    comps = css.tanner_components(c, "X")
    assert len(comps) == 2
    assert comps[0] == ({0, 1}, {0})


def test_tanner_toric_connected():
    assert len(css.tanner_components(toric18(), "X")) == 1


def test_tanner_bssh_splits():
    c = bssh(classical.repetition_closed_loop(2)).css
    assert len(css.tanner_components(c, "X")) >= 2


def test_export_load_roundtrip(tmp_path):
    c = toric18()
    c.metadata["d_s"] = 2
    css.export_bundle(c, tmp_path / "b", extra={"params": {"n": 18}})
    back = css.load_bundle(tmp_path / "b")
    assert (back.hx == c.hx).all() and (back.hz == c.hz).all()
    assert back.metadata["d_s"] == 2
    # re-export is byte-identical
    css.export_bundle(back, tmp_path / "b2", extra={"params": {"n": 18}})
    for name in ("hx.alist", "hz.alist", "manifest.json"):
        assert ((tmp_path / "b" / name).read_bytes()
                == (tmp_path / "b2" / name).read_bytes())


def test_stabilizer_weight_report():
    c = toric18()
    assert c.stabilizer_weight() == 4  # toric plaquette/vertex weight
