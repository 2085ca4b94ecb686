"""CSS codes: validity, parameters, distances, Tanner decomposition,
and the alist bundle interchange."""
import itertools

import numpy as np
import pytest

from codeforge import classical, css, f2
from codeforge.constructions import bssh, code_distance, hgp
from codeforge.css import CssCode, CssValidationError, NoLogicalsError


def toric18():
    rep3 = classical.repetition_closed_loop(3)
    return hgp(rep3.h, rep3.h)


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
    c = hgp(rep2.h, rep2.h)
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


def brute_css_distance(c, kind):
    """Full 2^n scan (n <= 14 only): min weight in ker minus coset."""
    ker_of = c.hx if kind == "X" else c.hz
    other = c.hz if kind == "X" else c.hx
    tester = f2.RowSpaceTester(other)
    best = None
    for bits in itertools.product((0, 1), repeat=c.n):
        v = np.array(bits, dtype=np.uint8)
        if (not v.any() or f2.mat_vec(ker_of, v).any()
                or tester.contains_batch([v])[0]):
            continue
        best = int(v.sum()) if best is None else min(best, int(v.sum()))
    return best


def test_distance_hgp_rep3():
    c = toric18()
    assert css.distance(c, "X", 3) == 3
    assert css.distance(c, "Z", 3) == 3


@pytest.mark.parametrize("block", [classical._BLOCK, 3])
def test_distance_matches_full_enumeration(block, monkeypatch):
    # d = 2 here, so block size 3 cuts only the first levels of the
    # descent into steps; test_distance_searches_stop_mid_shell stops
    # between steps of one weight
    monkeypatch.setattr(classical, "_BLOCK", block)
    rep2 = classical.repetition_closed_loop(2)
    c = hgp(rep2.h, rep2.h)  # 8 qubits
    for kind in "XZ":
        assert css.distance(c, kind, 8) == brute_css_distance(c, kind)
    assert css.distance(c, "XZ", 8) == min(brute_css_distance(c, kind)
                                           for kind in "XZ")


def test_distance_lower_bound_and_errors():
    c = toric18()
    got = css.distance(c, "X", 2)
    assert repr(got) == "> 2"
    with pytest.raises(ValueError):
        css.distance(c, "W", 2)
    full = CssCode(f2.identity(3), f2.zeros(0, 3))
    with pytest.raises(NoLogicalsError):
        css.distance(full, "X", 2)


def test_code_distance_counts_logicals_once(monkeypatch):
    counted = []
    count = css.logical_count
    monkeypatch.setattr(css, "logical_count",
                        lambda c: counted.append(c) or count(c))
    assert code_distance(toric18(), 3) == 3
    assert len(counted) == 1
    full = CssCode(f2.identity(3), f2.zeros(0, 3))
    # paired rows X1, X2, X3 leave no logical either
    paired = CssCode(f2.identity(3), f2.zeros(3, 3),
                     metadata={"paired_rows": True})
    for search in (lambda: code_distance(full, 2),
                   lambda: css.distance(full, "Z", 2),
                   lambda: code_distance(paired, 2)):
        with pytest.raises(NoLogicalsError,
                           match="^code has no logical qubits$"):
            search()


def test_tanner_components_block_diagonal(tanner_components):
    a = np.array([[1, 1]], dtype=np.uint8)
    comps = tanner_components(f2.block_compose([[a, None], [None, a]]))
    assert len(comps) == 2
    assert comps[0] == ({0, 1}, {0})


def test_tanner_toric_connected(tanner_components):
    assert len(tanner_components(toric18().hx)) == 1


def test_tanner_bssh_splits(tanner_components):
    c = bssh(classical.repetition_closed_loop(2))
    assert len(tanner_components(c.hx)) >= 2


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
    # the max of each block, and 0 for blocks with no rows
    assert CssCode(f2.identity(3), f2.zeros(0, 3)).stabilizer_weight() == 1
    assert CssCode(f2.zeros(0, 3), f2.zeros(0, 3)).stabilizer_weight() == 0
