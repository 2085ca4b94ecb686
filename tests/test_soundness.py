"""Soundness scans, reduced weights, and the two-stage single-shot decoder."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, complexes, f2
from codeforge import constructions as cons
from codeforge.classical import LowerBound
from codeforge.complexes import ChainComplex
from codeforge.css import CssCode, PauliError
from codeforge.soundness import (F_BY_NAME, LemmaContradictionError,
                                 StabilizerModel, SupportMatcher, direct_sum,
                                 inheritance_check, quarter_cube,
                                 quarter_square, single_shot_trial,
                                 soundness_scan)

REP2 = classical.repetition_closed_loop(2)
REP3 = classical.repetition_closed_loop(3)


def toric18():
    return cons.hgp(REP3.h, REP3.h).css


def test_bound_functions_are_exact_rationals():
    assert quarter_square(3) == Fraction(9, 4)
    assert quarter_cube(2) == 2
    assert quarter_square(0) == 0
    assert F_BY_NAME["x2over4"] is quarter_square
    assert F_BY_NAME["x3over4"] is quarter_cube


def brute_match(entries, target, cap):
    """Oracle for SupportMatcher.find_min: try all subsets with distinct
    groups, smallest first."""
    for w in range(cap + 1):
        for combo in itertools.combinations(entries, w):
            groups = [g for g, _, _ in combo]
            if len(set(groups)) != w:
                continue
            acc = 0
            for _, _, v in combo:
                acc ^= v
            if acc == target:
                return w
    return None


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_support_matcher_matches_brute(seed):
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(2, 6))
    entries = []
    for g in range(n_groups):
        for tag in range(int(rng.integers(1, 4))):
            entries.append((g, tag, int(rng.integers(0, 16))))
    matcher = SupportMatcher(entries)
    target = int(rng.integers(0, 16))
    w, supp = matcher.find_min(target, 4)
    want = brute_match(entries, target, 4)
    assert w == want
    if w is not None:
        acc = 0
        by_key = {(g, t): v for g, t, v in entries}
        for g, t in supp:
            acc ^= by_key[(g, t)]
        assert acc == target
        assert len({g for g, _ in supp}) == len(supp)


def brute_reduced_weight(model, e):
    """Exhaust the full generator span (rank kept small by the fixtures)."""
    gens = np.concatenate([model.xpart, model.zpart], axis=1)
    red, _ = f2.row_echelon(gens.copy())
    rows = red[red.any(axis=1)]
    n = model.n
    target = np.concatenate([e.ex, e.ez])
    best = None
    for bits in itertools.product((0, 1), repeat=rows.shape[0]):
        v = target.copy()
        for i, b in enumerate(bits):
            if b:
                v ^= rows[i]
        w = int(np.count_nonzero(v[:n] | v[n:]))
        best = w if best is None or w < best else best
    return best


def test_reduced_weight_stabilizer_row_is_zero():
    c = toric18()
    model = StabilizerModel.from_code(c)
    e = PauliError(np.zeros(18, dtype=np.uint8), c.hz[0].copy())
    assert model.reduced_weight(e) == 0
    assert model.is_stabilizer(e)


def test_reduced_weight_single_z_on_toric():
    c = toric18()
    e = PauliError.single(18, 0, "Z")
    assert StabilizerModel.from_code(c).reduced_weight(e) == 1


def test_reduced_weight_ring_string_folds_back():
    # Z string covering all but one qubit of a Z-stabilizer ring is one
    # stabilizer product away from a single Z
    ring = CssCode(f2.zeros(0, 6), classical.repetition_closed_loop(6).h)
    ez = np.ones(6, dtype=np.uint8)
    ez[0] = 0
    e = PauliError(np.zeros(6, dtype=np.uint8), ez)
    model = StabilizerModel.from_code(ring)
    assert model.reduced_weight(e) == 1
    assert not model.is_stabilizer(e)
    # even-length strings are stabilizer products and vanish entirely
    even = PauliError(np.zeros(6, dtype=np.uint8),
                      np.array([0, 1, 1, 1, 1, 0], dtype=np.uint8))
    assert model.reduced_weight(even) == 0


@given(st.integers(0, 2 ** 30))
@settings(max_examples=30, deadline=None)
def test_reduced_weight_matches_span_enumeration(seed):
    rng = np.random.default_rng(seed)
    c = cons.hgp(REP2.h, REP2.h).css  # 8 qubits, 8 checks
    model = StabilizerModel.from_code(c)
    e = PauliError(rng.integers(0, 2, 8, dtype=np.uint8),
                   rng.integers(0, 2, 8, dtype=np.uint8))
    got = model.reduced_weight(e, budget=8)
    assert got == brute_reduced_weight(model, e)
    assert got <= e.weight


def test_scan_product_complex_boundary_clean():
    j = complexes.tensor(ChainComplex([REP3.h]), ChainComplex([REP3.h]))
    rep = soundness_scan(j.boundary(2), t=3, f=quarter_square)
    assert rep.clean
    assert rep.t_scanned == 3 and rep.f_name == "quarter_square"
    assert rep.max_ratio <= 1


def test_scan_zero_map_vacuous():
    rep = soundness_scan(f2.zeros(4, 3), t=2)
    assert rep.clean
    assert rep.per_weight == {0: 0}  # no nonzero syndrome is achievable


def test_scan_flags_distant_pair_violation():
    # 1D matching chain: a syndrome pair at opposite ends needs a long
    # error string, far above x^2/4
    d = classical.repetition_open(9).h.T.copy()  # 9 checks x 8 error sites
    rep = soundness_scan(d, t=2, f=quarter_square)
    assert not rep.clean
    assert any(ws == 2 for _, ws, _ in rep.violations)


def test_scan_reports_partial_when_cap_hits():
    d = classical.repetition_open(9).h.T.copy()
    rep = soundness_scan(d, t=2, f=quarter_square, cap=2)
    assert rep.partial
    assert any(isinstance(w, LowerBound) for _, _, w in rep.violations)


def test_first_soundness_lemma_instances():
    bases = [REP2, REP3]
    for c1 in bases:
        for c2 in bases:
            j = complexes.tensor(ChainComplex([c1.h]), ChainComplex([c2.h]))
            t = min(classical.params(c1)[2], classical.params(c2)[2])
            for d in (j.boundary(2), j.boundary(1).T.copy()):
                rep = soundness_scan(d, t=t, f=quarter_square)
                assert rep.clean, (c1.name, c2.name)


def test_composite_direct_sum_scan():
    b = cons.sehgp(REP2, REP2, REP2, REP2)
    d = direct_sum(b.q.boundary(2), b.q.boundary(3).T.copy())
    rep = soundness_scan(d, t=2, f=quarter_square)
    assert rep.clean


def test_truncated_family_cube_bound():
    # at least one of the two truncations satisfies the cubic bound
    b = cons.sehgp(REP2, REP2, REP2, REP2)
    verdicts = []
    for which in (1, 2):
        c = cons.rsh(b, which).css
        reps = [soundness_scan(m, t=2, f=quarter_cube)
                for m in (c.hx, c.hz)]
        verdicts.append(all(r.clean for r in reps))
    assert any(verdicts)


def test_inheritance_clean_cases():
    rep = inheritance_check(REP3.h, n=2, t=3)
    assert rep.clean and rep.max_ratio <= 1
    j = complexes.tensor(ChainComplex([REP2.h]), ChainComplex([REP2.h]))
    assert inheritance_check(j.boundary(2), n=2, t=2).clean


def test_inheritance_n1_matches_base_scan():
    base = soundness_scan(REP3.h, t=3)
    rep = inheritance_check(REP3.h, n=1, t=3)
    assert rep.max_ratio == base.max_ratio
    assert rep.per_weight == base.per_weight


def test_inheritance_raises_on_unsound_input():
    d = classical.repetition_open(9).h.T.copy()
    with pytest.raises(LemmaContradictionError):
        inheritance_check(d, n=2, t=2)


def test_direct_sum_layout():
    a = np.array([[1, 0]], dtype=np.uint8)
    b = np.array([[1], [1]], dtype=np.uint8)
    m = direct_sum(a, b)
    assert m.shape == (3, 3)
    assert (m == [[1, 0, 0], [0, 0, 1], [0, 0, 1]]).all()


def test_model_syndrome_agrees_with_css_view():
    c = toric18()
    model = StabilizerModel.from_code(c)
    rng = np.random.default_rng(3)
    from codeforge import css as css_mod
    for _ in range(10):
        e = PauliError(rng.integers(0, 2, 18, dtype=np.uint8),
                       rng.integers(0, 2, 18, dtype=np.uint8))
        s = css_mod.syndrome(c, e)
        assert (model.syndrome(e) == np.concatenate([s.sx, s.sz])).all()


def test_model_shape_mismatch():
    with pytest.raises(ValueError):
        StabilizerModel(f2.zeros(2, 3), f2.zeros(2, 4))


def test_repair_syndrome_identity_and_single_flip():
    rot = cons.bssh(REP2)
    model = StabilizerModel.from_code(rot.css)
    e = PauliError.single(model.n, 5, "Z")
    s = model.syndrome(e)
    repaired, u_hat = model.repair_syndrome(s)
    assert (repaired == s).all() and not u_hat.any()
    u = np.zeros(model.m, dtype=np.uint8)
    u[7] = 1
    repaired, u_hat = model.repair_syndrome(s ^ u)
    # the repaired syndrome is achievable again
    ann, _ = model._meta_tools()
    assert not f2.mat_vec(ann, repaired).any()
    assert f2.weight(u_hat) <= 1


def test_single_shot_noiseless_identity():
    rot = cons.bssh(REP2)
    e = PauliError.identity(rot.n)
    u = np.zeros(rot.check_count(), dtype=np.uint8)
    rw, passed = single_shot_trial(rot, e, u)
    assert rw == 0 and passed


def test_single_shot_weight1_error_clean_readout():
    rot = cons.bsh(cons.sehgp(REP2, REP2, REP2, REP2))
    model = StabilizerModel.from_code(rot)
    u = np.zeros(model.m, dtype=np.uint8)
    for qubit, pauli in [(0, "X"), (40, "Z"), (90, "Y")]:
        e = PauliError.single(rot.n, qubit, pauli)
        rw, passed = single_shot_trial(rot, e, u, model=model)
        assert rw == 0 and passed


def test_single_shot_one_flipped_outcome():
    rot = cons.bsh(cons.sehgp(REP2, REP2, REP2, REP2))
    model = StabilizerModel.from_code(rot)
    e = PauliError.identity(rot.n)
    for pos in (0, 50, 127):
        u = np.zeros(model.m, dtype=np.uint8)
        u[pos] = 1
        rw, passed = single_shot_trial(rot, e, u, model=model)
        assert passed
        assert Fraction(int(rw)) <= quarter_square(2)


def test_single_shot_rejects_bad_args():
    rot = cons.bssh(REP2)
    e = PauliError.identity(rot.n)
    with pytest.raises(ValueError):
        single_shot_trial(rot, e, np.zeros(3, dtype=np.uint8))
