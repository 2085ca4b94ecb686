"""Code family builders: HGP, SEHGP, CPHR rotations, BSH, SSH/BSSH,
RSH/BRSH and the 3D XZZX instance."""
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, cli, css, f2
from codeforge import constructions as cons
from codeforge.classical import LowerBound
from codeforge.complexes import tensor
from codeforge.soundness import StabilizerModel

REP2 = classical.repetition_closed_loop(2)
REP3 = classical.repetition_closed_loop(3)


def sehgp2():
    return cons.sehgp(REP2, REP2, REP2, REP2)


def test_hgp_rep3():
    t = cons.hgp(REP3.h, REP3.h)
    t.validate()
    assert (t.n, t.logical_count(), cons.code_distance(t, 3)) == (18, 2, 3)
    assert not f2.mat_mul(t.hx, t.hz.T).any()


def test_hgp_rep2():
    t = cons.hgp(REP2.h, REP2.h)
    assert (t.n, t.logical_count(), cons.code_distance(t, 2)) == (8, 2, 2)


def test_hgp_empty_factor():
    t = cons.hgp(REP2.h, f2.zeros(0, 3))
    t.validate()
    assert t.n == 2 * 3 + 2 * 0


def test_sehgp_rep2_counts():
    tensor(cons.j_complex(REP2, REP2), cons.j_complex(REP2, REP2)).validate()
    t = sehgp2()
    assert t.n == 96
    assert t.check_count() == 128
    assert t.logical_count() == 6
    assert t.col_sizes == [16, 64, 16]
    assert [band.rows for band in t.bands] == [32, 32, 32, 32]


def test_sehgp_rep3_counts():
    t = cons.sehgp(REP3, REP3, REP3, REP3)
    assert t.n == 486
    assert t.check_count() == 648
    assert t.logical_count() == 6


def test_sehgp_mixed_bases_dim_rule():
    j, k = cons.j_complex(REP2, REP3), cons.j_complex(REP3, REP2)
    q = tensor(j, k)
    # degree-k dim of Q is the convolution of the factor dims
    for deg in range(5):
        want = sum(j.dim(i) * k.dim(deg - i)
                   for i in range(deg + 1) if i <= 2 and deg - i <= 2)
        assert q.dim(deg) == want
    q.validate()
    # the code's qubits are the degree-2 cells, its checks degrees 3 and 1
    t = cons.sehgp(REP2, REP3, REP3, REP2)
    assert t.n == q.dim(2)
    assert t.check_count() == q.dim(3) + q.dim(1)


def test_sehgp_band_labels_reference_boundaries():
    t = sehgp2()
    for entry in t.metadata["block_map"]:
        for label in entry["x"] + entry["z"]:
            assert label == "0" or "@" in label


def test_sehgp_true_distance_is_d_squared():
    """Exhaustive: no logical of weight <= 3 in either sector; weight 4
    exists.  The base distance is 2, so d = 4 = d^2 here."""
    c = sehgp2()
    assert isinstance(cons.code_distance(c, 3), LowerBound)
    assert cons.code_distance(c, 4) == 4


def test_cphr_involution_and_validation(tagged_equals):
    t = cons.ssh(REP2)
    once = cons.cphr(t, "T2", (1, 2), 2)
    once.validate()
    twice = cons.cphr(once, "T2", (1, 2), 2)
    assert tagged_equals(twice, t)
    assert once.metadata["swaps"] != []


def test_cphr_rejects_commutation_breaking_swap(tagged_equals):
    # rotating only bands 2-3 of the four-band code anticommutes with the
    # untouched bands 1 and 4; only the composite of both swaps is valid
    t = sehgp2()
    with pytest.raises(css.CommutationBrokenError):
        cons.cphr(t, "T2", (2, 3), 2)
    half = cons.cphr(t, "T2", (2, 3), 2, validate=False)
    full = cons.cphr(half, "T1", (1, 4), 2)
    full.validate()
    # deferred-validation swap is still an involution
    assert tagged_equals(cons.cphr(half, "T2", (2, 3), 2, validate=False), t)


def test_cphr_rejects_out_of_range_row_bands():
    # band 0 and negative bands must not index from the end of the list
    half = cons.cphr(sehgp2(), "T2", (2, 3), 2, validate=False)
    for rows in ((-3, 0), (1, 0), (1, 5)):
        with pytest.raises(IndexError, match="no row band"):
            cons.cphr(half, "T1", rows, 2)


def test_bsh_structure():
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    rot.validate()
    assert rot.paired
    assert rot.logical_count() == 6
    assert rot.metadata["d_s"] == 2
    assert rot.n == 96 and rot.check_count() == 128
    # syndrome checks annihilate the stabilizer sides they protect
    assert rot.hsx is not None and rot.hsz is not None


def test_bsh_keeps_sehgp_parameters():
    t = sehgp2()
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    assert rot.n == t.n
    assert rot.logical_count() == t.logical_count()
    assert (cons.pauli_distance(rot.stab_x, rot.stab_z, 4)
            == cons.code_distance(t, 4) == 4)


def test_bsh_unequal_bases_bundle_pinned(tmp_path):
    """bsh builds its syndrome checks from J = j_complex(x, y) and
    K = j_complex(z, w); with unequal bases every wrong pairing of the
    factors changes a shape or a byte of the exported bundle."""
    rot = cons.bsh(REP2, REP2, REP3, REP3)
    rot.validate()
    css.export_bundle(rot, tmp_path)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in tmp_path.iterdir()}
    assert got == {
        "hsx.alist": "e8127715092a64cfacf7262d912c741c8e25e24f81603a3c9eb8e67f95d985b7",
        "hsz.alist": "c15bba3663f80292d13ef8683473add048e7a5ded1532b58b4b34b4b02e69290",
        "hx.alist": "e8e1f82ce6d90b87a6f18661a60eacf95947fe07b9b83ec79dd92ef2bb76280e",
        "hz.alist": "7469ce10baf3e2d7a1488cbaa5dcf9e87233ef1cba2422ed4e258dc5a50452ef",
        "manifest.json": "7babc38403553fc0716596b6f7c6139c796146b7165677cd7b4f7d5ce78fee85",
    }


@pytest.mark.parametrize("bases, k", [
    ((REP2, REP3, REP3, REP2), 6),
    ((classical.repetition_open(3), REP2, REP2, REP2), 3),
])
def test_bsh_unequal_bases_keep_sehgp_k(bases, k):
    rot = cons.bsh(*bases)
    rot.validate()
    assert rot.logical_count() == cons.sehgp(*bases).logical_count() == k


def test_bsh_z_only_tanner_split(tanner_components):
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    comps = tanner_components(rot.stab_x)
    nontrivial = [c for c in comps if len(c[1]) > 0]
    assert len(nontrivial) >= 3


def test_ssh_counts_and_structure():
    t = cons.ssh(REP2)
    t.validate()
    assert t.n == 80
    assert t.check_count() == 64
    assert t.logical_count() == 26
    assert t.col_sizes == [64, 16]
    assert cons.code_distance(t, 2) == 2


def test_bssh_rotation():
    t = cons.bssh(REP2)
    t.validate()
    assert t.paired
    assert t.n == 80 and t.check_count() == 64
    assert t.logical_count() == 26
    assert t.metadata["d_s"] == 2
    assert t.metadata["syndrome_checks_exact"] is False


def test_bssh_preserves_ssh_parameters():
    ssh = cons.ssh(REP2)
    rot = cons.bssh(REP2)
    assert (rot.n, rot.logical_count()) == (ssh.n, ssh.logical_count())
    assert (cons.pauli_distance(rot.stab_x, rot.stab_z, 2)
            == cons.code_distance(ssh, 2) == 2)


def test_bssh_hsz_two_components(tanner_components):
    t = cons.bssh(REP2)
    comps = [c for c in tanner_components(t.hsz) if c[1]]
    assert len(comps) >= 2


def test_identical_code_premise():
    assert cons.identical_code_premise(REP2)
    assert cons.identical_code_premise(REP3)
    assert not cons.identical_code_premise(classical.repetition_open(3))


def test_premise_warning_metadata():
    t = cons.ssh(classical.repetition_open(3))
    assert t.metadata["identical_code_premise"] is False
    assert t.metadata["warning"].startswith("identical-code premise violated")


def test_rsh_families():
    b = sehgp2()
    for which in (1, 2):
        t = cons.rsh(b, which)
        t.validate()
        assert t.n == 80 and t.check_count() == 64
        assert t.logical_count() == 26
        assert cons.code_distance(t, 2) == 2
        # defining identity of the numeric syndrome checks
        assert not f2.mat_mul(t.hsx, t.hx).any()
        assert not f2.mat_mul(t.hsz, t.hz).any()
        assert f2.rank(t.hx) + t.hsx.shape[0] == t.hx.shape[0]
        assert f2.rank(t.hz) + t.hsz.shape[0] == t.hz.shape[0]


def test_brsh_families():
    b = sehgp2()
    for which in (1, 2):
        t = cons.brsh(b, which)
        t.validate()
        assert t.paired
        assert t.n == 80
        assert t.logical_count() == 26


def test_sehgp_block_truncations_keep_k_and_d():
    """Every choice of two of the four bands of sehgp(rep2) on two column
    blocks of 80 qubits (64 checks, the 5n^4 size) either anticommutes or
    has k >= 26 and d <= 2: removing blocks does not give k=2 or d=4."""
    t = sehgp2()
    offs = t.col_offsets
    choices = [(cols, bands)
               for cols in itertools.combinations(range(3), 2)
               if sum(t.col_sizes[c] for c in cols) == 80
               for bands in itertools.combinations(range(4), 2)]
    assert len(choices) == 12
    commuting = 0
    for cols, bands in choices:
        keep = np.concatenate([np.arange(offs[c], offs[c + 1]) for c in cols])
        x = np.concatenate([t.bands[b].x[:, keep] for b in bands])
        z = np.concatenate([t.bands[b].z[:, keep] for b in bands])
        m = f2.mat_mul(x, z.T)
        if (m ^ m.T).any():
            continue
        commuting += 1
        assert 80 - f2.rank(np.concatenate([x, z], axis=1)) >= 26
        assert not isinstance(cons.pauli_distance(x, z, 2), LowerBound)
    assert commuting > 0


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_built_code_equals_its_bundle(tmp_path, family):
    built = cli.build_family(family, REP2)
    css.export_bundle(built, tmp_path)
    loaded = css.load_bundle(tmp_path)
    for name in ("hx", "hz", "hsx", "hsz"):
        a, b = getattr(built, name), getattr(loaded, name)
        assert (a is None) == (b is None), name
        assert a is None or (a.shape == b.shape and (a == b).all()), name
    assert (built.n, built.paired) == (loaded.n, loaded.paired)
    assert np.array_equal(StabilizerModel.from_code(built).syndrome_map,
                          StabilizerModel.from_code(loaded).syndrome_map)


def _state(c):
    """Everything of a built code that a later builder could write to."""
    bands = [(b.x.tolist(), b.z.tolist(), list(b.x_labels), list(b.z_labels))
             for b in c.bands]
    return bands, c.hx.tolist(), c.hz.tolist(), c.metadata


def test_builders_leave_their_sehgp_input_alone(monkeypatch):
    # bsh builds its sehgp input itself; keep it to look at afterwards
    fresh = _state(sehgp2())
    real, inputs = cons.sehgp, []

    def kept_sehgp(*codes):
        inputs.append(real(*codes))
        return inputs[-1]

    monkeypatch.setattr(cons, "sehgp", kept_sehgp)
    cons.bsh(REP2, REP2, REP2, REP2)
    src = sehgp2()
    for which in (1, 2):
        cons.rsh(src, which)
        cons.brsh(src, which)
    assert len(inputs) == 2
    for c in inputs:
        assert _state(c) == fresh


def test_xzzx3d_equals_bssh(tagged_equals):
    assert tagged_equals(cons.xzzx3d(2), cons.bssh(REP2))
    assert cons.xzzx3d(2).family == "XZZX3D"
    with pytest.raises(ValueError):
        cons.xzzx3d(1)


def test_xzzx3d_single_type_distance_is_2():
    """Against pure-Z errors alone, and against pure-X errors alone, the
    rotated rep(2) code has distance 2, as it has against all Paulis."""
    x = cons.xzzx3d(2)
    tester = f2.RowSpaceTester(np.concatenate([x.stab_x, x.stab_z], axis=1))
    zero = np.zeros(x.n, dtype=np.uint8)
    # a pure-Z error ez is seen by stab_x @ ez, a pure-X error by stab_z @ ex
    for checks, as_pauli in ((x.stab_x, lambda v: np.concatenate([zero, v])),
                             (x.stab_z, lambda v: np.concatenate([v, zero]))):
        logical_weights = []
        for w in (1, 2):
            for sup in classical.kernel_supports_of_weight(checks, w):
                v = zero.copy()
                v[list(sup)] = 1
                if not tester.contains_batch([as_pauli(v)])[0]:
                    logical_weights.append(w)
        assert logical_weights and min(logical_weights) == 2


def brute_pauli_distance(stab_x, stab_z, cap):
    """Oracle: enumerate every Pauli up to the cap the slow way."""
    n = stab_x.shape[1]
    tester = f2.RowSpaceTester(np.concatenate([stab_x, stab_z], axis=1))
    for w in range(1, cap + 1):
        for supp in itertools.combinations(range(n), w):
            for ps in itertools.product("XZY", repeat=w):
                v = np.zeros(2 * n, dtype=np.uint8)
                for q, p in zip(supp, ps):
                    if p in "XY":
                        v[q] = 1
                    if p in "ZY":
                        v[n + q] = 1
                sx = f2.mat_vec(stab_x, v[n:]) ^ f2.mat_vec(stab_z, v[:n])
                if not sx.any() and not tester.contains_batch([v])[0]:
                    return w
    return None


def test_pauli_distance_matches_brute():
    t = cons.hgp(REP2.h, REP2.h)
    sx, sz = t.stab_x, t.stab_z
    assert cons.pauli_distance(sx, sz, 3) == brute_pauli_distance(sx, sz, 3) == 2
    rot = cons.bssh(REP2)
    assert (cons.pauli_distance(rot.stab_x, rot.stab_z, 2)
            == brute_pauli_distance(rot.stab_x, rot.stab_z, 2) == 2)


def random_commuting_stabilizers(rng, n, m):
    """Up to m random paired rows (x | z) on n qubits that pairwise
    commute: rows that anticommute with an earlier one are redrawn."""
    xs, zs = [], []
    for _ in range(50 * m):
        if len(xs) == m:
            break
        x, z = rng.integers(0, 2, (2, n), dtype=np.uint8)
        if all((x @ z2 + z @ x2) % 2 == 0 for x2, z2 in zip(xs, zs)):
            xs.append(x)
            zs.append(z)
    return (np.array(xs, dtype=np.uint8).reshape(-1, n),
            np.array(zs, dtype=np.uint8).reshape(-1, n))


@pytest.mark.parametrize("block", [classical._BLOCK, 3])
@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_pauli_distance_matches_brute_on_random_stabilizers(block, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    # nearly n generators leave few logicals, so distances above 1 occur
    m = int(rng.integers(max(0, n - 3), n + 1))
    sx, sz = random_commuting_stabilizers(rng, n, m)
    cap = int(rng.integers(1, 6))
    want = brute_pauli_distance(sx, sz, cap)
    # at block size 3 a weight-4 search (reached when every lighter
    # undetected error is a stabilizer) walks many search steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_BLOCK", block)
        got = cons.pauli_distance(sx, sz, cap)
    assert got == (LowerBound(cap) if want is None else want)


def test_distance_searches_stop_mid_shell(monkeypatch):
    """On the 4x4 toric code (d = 4) with search steps of 3 rows, both
    distance searches walk past a weight-4 step that keep rejects (the
    spy rejects the first one) and stop at a later step, before the
    shell's last one."""
    monkeypatch.setattr(classical, "_BLOCK", 3)
    batch = f2.RowSpaceTester.contains_batch
    tested = []
    every_step = False

    def spy(self, vs):
        got = batch(self, vs)
        tested.append(vs)
        # reject the first step, or every step: a walk of the whole shell
        return np.ones_like(got) if every_step or len(tested) == 1 else got

    monkeypatch.setattr(f2.RowSpaceTester, "contains_batch", spy)
    rep4 = classical.repetition_closed_loop(4)
    c = cons.hgp(rep4.h, rep4.h)
    for search in (lambda cap: css.distance(c, "X", cap),
                   lambda cap: css.distance(c, "Z", cap),
                   lambda cap: cons.pauli_distance(c.stab_x, c.stab_z, cap)):
        every_step = False
        tested.clear()
        assert search(4) == 4
        # no support weighs 1 to 3, so every tested step is of weight 4
        assert len(tested) > 1
        assert all((np.count_nonzero(vs.reshape(len(vs), -1, c.n).any(
            axis=1), axis=1) == 4).all() for vs in tested)
        stopped_after = len(tested)
        every_step = True
        tested.clear()
        assert search(4) == LowerBound(4)
        assert stopped_after < len(tested)


def test_pauli_distance_lower_bound():
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    got = cons.pauli_distance(rot.stab_x, rot.stab_z, 3)
    assert isinstance(got, LowerBound) and got.value == 3
