"""Top-level acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible in the
captured output of failing tests and under -s) and then asserts, so the
pytest -v report carries one verdict line per criterion.  Sub-checks are
collected first so a failing criterion still names every part that broke.
"""
import itertools
from fractions import Fraction

import numpy as np

from codeforge import classical, complexes, f2, noisesim, soundness
from codeforge import constructions as cons
from codeforge.classical import LowerBound
from codeforge.complexes import ChainComplex
from codeforge.soundness import (StabilizerModel, decode_residual,
                                 quarter_cube, quarter_square, soundness_scan)

REP2 = classical.repetition_closed_loop(2)
REP3 = classical.repetition_closed_loop(3)


def verdict(num, checks):
    failed = [label for label, ok in checks if not ok]
    status = "FAIL" if failed else "PASS"
    detail = f" ({'; '.join(failed)})" if failed else ""
    print(f"criterion {num}: {status}{detail}")
    assert not failed, f"criterion {num} failed: {failed}"


# the [7,4,3] Hamming code, columns 1..7 in binary
HAM74 = classical.ClassicalCode([[0, 0, 0, 1, 1, 1, 1],
                                 [0, 1, 1, 0, 0, 1, 1],
                                 [1, 0, 1, 0, 1, 0, 1]])


def test_criterion_01_direct_product_fixture(brute_distance):
    rep = classical.repetition_open(3)
    ham = HAM74
    # the direct product: 3 x 7 matrices with columns in ker rep.h and
    # rows in ker ham.h, checked by h1 (x) I_7 stacked over I_3 (x) h2
    prod = classical.ClassicalCode(f2.block_compose(
        [[f2.kron(rep.h, f2.identity(7))], [f2.kron(f2.identity(3), ham.h)]]))
    checks = [
        ("params [21,4,9]",
         (prod.n, prod.k, brute_distance(prod.h)) == (21, 4, 9)),
    ]
    basis = f2.kernel_basis(prod.h)
    fwd = all(not f2.mat_mul(rep.h, v.reshape(3, 7)).any()
              and not f2.mat_mul(ham.h, v.reshape(3, 7).T).any()
              for v in basis)
    checks.append(("codeword matrices: columns repeat, rows Hamming", fwd))
    tester = f2.RowSpaceTester(basis)
    u = np.ones(3, dtype=np.uint8)
    ham_basis = f2.kernel_basis(ham.h)
    outer = []
    for bits in itertools.product((0, 1), repeat=4):
        v = np.zeros(7, dtype=np.uint8)
        for i, b in enumerate(bits):
            if b:
                v ^= ham_basis[i]
        outer.append(np.outer(u, v).reshape(-1))
    hits = int(tester.contains_batch(outer).sum())
    checks.append(("all 16 outer-product matrices are codewords", hits == 16))
    verdict(1, checks)


def test_criterion_02_hgp_sanity():
    t = cons.hgp(REP3.h, REP3.h)
    verdict(2, [
        ("params [[18,2,3]]",
         (t.n, t.logical_count(), cons.code_distance(t, 3)) == (18, 2, 3)),
        ("XZ^T = 0", not f2.mat_mul(t.hx, t.hz.T).any()),
    ])


def hgp_law(h1, h2, distance):
    """(k, d) of the hypergraph product of h1 and h2 from its four classical
    factor codes ker h1, ker h1^T, ker h2, ker h2^T (Tillich-Zemor).

    k = k1 k2 + k1T k2T, one Kunneth summand per term.  A nonzero summand
    contributes the distances of its two factor codes (d1, d2 for the
    first, d1T, d2T for the second), and d is the least of those.
    distance is the brute_distance oracle.
    """
    (k1, d1), (k1t, d1t), (k2, d2), (k2t, d2t) = (
        (classical.ClassicalCode(m).k, distance(m))
        for m in (h1, h1.T, h2, h2.T))
    dists = ([d1, d2] if k1 * k2 else []) + ([d1t, d2t] if k1t * k2t else [])
    return k1 * k2 + k1t * k2t, min(dists)


def sehgp_witness(base):
    """A logical of the J2 (x) K0 column block of sehgp(base x 4): the
    all-ones vector of ker d2[J] tensored with one unit vector of K0.  Its
    weight is dim J2."""
    t = cons.sehgp(base, base, base, base)
    j, k = cons.j_complex(base, base), cons.j_complex(base, base)
    block = [(a, b) for a, b, _ in complexes.tensor(j, k).components[2]].index((2, 0))
    unit = np.zeros(k.dim(0), dtype=np.uint8)
    unit[0] = 1
    v = np.zeros(t.n, dtype=np.uint8)
    lo = sum(t.col_sizes[:block])
    v[lo:lo + t.col_sizes[block]] = np.kron(
        np.ones(j.dim(2), dtype=np.uint8), unit)
    return v


def test_criterion_03_sehgp_counts(brute_distance):
    # four closed-loop rings give the 4D toric code, whose distance is the
    # square of the ring distance
    t2 = cons.sehgp(REP2, REP2, REP2, REP2)
    t3 = cons.sehgp(REP3, REP3, REP3, REP3)
    d2 = brute_distance(REP2.h) ** 2
    d3 = brute_distance(REP3.h) ** 2
    w3 = sehgp_witness(REP3)
    verdict(3, [
        ("rep(2): 96 qubits", t2.n == 96),
        ("rep(2): 128 checks", t2.check_count() == 128),
        ("rep(2): k=6", t2.logical_count() == 6),
        (f"rep(2): d={d2} by weight-<={d2} search",
         cons.code_distance(t2, d2) == d2),
        ("rep(3): 486 qubits", t3.n == 486),
        ("rep(3): 648 checks", t3.check_count() == 648),
        ("rep(3): k=6", t3.logical_count() == 6),
        ("rep(3): no logical of weight <= 4",
         isinstance(cons.code_distance(t3, 4), LowerBound)),
        (f"rep(3): weight-{d3} logical witness",
         f2.weight(w3) == d3 and not f2.mat_vec(t3.hx, w3).any()
         and not f2.RowSpaceTester(t3.hz).contains_batch([w3])[0]),
    ])


def test_criterion_04_cphr_validity(tagged_equals):
    t = cons.sehgp(REP2, REP2, REP2, REP2)
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    rot.validate()
    swap = [{"kind": "T2", "row_bands": [2, 3], "col_band": 2}]
    half = cons.cphr(t.bands, t.col_sizes, swap)
    undone = cons.BlockTaggedCss("SEHGP", cons.cphr(half, t.col_sizes, swap),
                                 t.col_sizes)
    verdict(4, [
        ("rotated code validates", True),
        ("n unchanged", rot.n == t.n),
        ("k unchanged", rot.logical_count() == t.logical_count()),
        ("d unchanged",
         cons.pauli_distance(rot.stab_x, rot.stab_z, 4)
         == cons.code_distance(t, 4) == 4),
        ("same swap twice restores input", tagged_equals(undone, t)),
    ])


def test_criterion_05_ssh_bssh(brute_distance):
    t = cons.ssh(REP2)
    rot = cons.bssh(REP2)
    # SSH is documented as the hypergraph product of d2[J] and d1[J]^T
    j = cons.j_complex(REP2, REP2)
    k, _ = hgp_law(j.boundary(2), j.boundary(1).T, brute_distance)
    verdict(5, [
        ("80 qubits", t.n == 80),
        ("64 checks", t.check_count() == 64),
        ("k >= n - checks", t.logical_count() >= t.n - t.check_count()),
        (f"k={k} by the HGP law", t.logical_count() == k),
        ("d=4 by weight-<=4 search", cons.code_distance(t, 4) == 4),
        ("BSSH d(h_sz)=2 = min base distance",
         rot.metadata["d_s"] == 2 == brute_distance(REP2.h)),
    ])


def test_criterion_06_rsh_brsh(brute_distance, brute_betti):
    checks = []
    j, k = cons.j_complex(REP2, REP2), cons.j_complex(REP2, REP2)
    d1j, d2j = j.boundary(1), j.boundary(2)
    d1k, d2k = k.boundary(1), k.boundary(2)
    # rsh1 is the product of d1[J] with d2[K], rsh2 of d2[J] with d1[K]
    for which, (hj, hk) in ((1, (d1j, d2k)), (2, (d2j, d1k))):
        t = cons.rsh(REP2, REP2, REP2, REP2, which)
        k, d = hgp_law(hj, hk.T, brute_distance)
        kunneth = brute_betti(
            complexes.tensor(ChainComplex([hj]), ChainComplex([hk])), 1)
        checks += [
            (f"rsh{which}: 80 qubits", t.n == 80),
            (f"rsh{which}: 64 checks", t.check_count() == 64),
            (f"rsh{which}: k >= n - checks",
             t.logical_count() >= t.n - t.check_count()),
            (f"rsh{which}: k={k} by the HGP law and Kunneth",
             t.logical_count() == k == kunneth),
            (f"rsh{which}: d={d} by the HGP law",
             cons.code_distance(t, d) == d),
            (f"rsh{which}: h_rs annihilates",
             not f2.mat_mul(t.hsx, t.hx).any()
             and not f2.mat_mul(t.hsz, t.hz).any()),
            (f"rsh{which}: rank complement",
             f2.rank(t.hx) + t.hsx.shape[0] == t.hx.shape[0]
             and f2.rank(t.hz) + t.hsz.shape[0] == t.hz.shape[0]),
        ]
    verdict(6, checks)


def test_criterion_07_xzzx3d(brute_distance, tagged_equals):
    x = cons.xzzx3d(2)
    # the rotation and relabelling are qubit-local, so k is that of the
    # unrotated slim product
    j = cons.j_complex(REP2, REP2)
    k, _ = hgp_law(j.boundary(2), j.boundary(1).T, brute_distance)
    verdict(7, [
        ("bit-exact equal to the rotated slim product",
         tagged_equals(x, cons.bssh(REP2))),
        ("n=80", x.n == 80),
        ("k >= n - checks", x.logical_count() >= x.n - x.check_count()),
        (f"k={k} by the HGP law", x.logical_count() == k),
        ("d=4", cons.pauli_distance(x.stab_x, x.stab_z, 4) == 4),
    ])


def test_criterion_08_soundness_scans():
    j = complexes.tensor(ChainComplex([REP3.h]), ChainComplex([REP3.h]))
    lemma = all(soundness_scan(d, t=3, f=quarter_square).clean
                for d in (j.boundary(2), j.boundary(1).T.copy()))
    q = complexes.tensor(cons.j_complex(REP2, REP2),
                         cons.j_complex(REP2, REP2))
    comp = soundness_scan(f2.block_compose([[q.boundary(2), None],
                                            [None, q.boundary(3).T.copy()]]),
                          t=2, f=quarter_square).clean
    cubic = []
    for which in (1, 2):
        c = cons.rsh(REP2, REP2, REP2, REP2, which)
        cubic.append(all(soundness_scan(m, t=2, f=quarter_cube).clean
                         for m in (c.hx, c.hz)))
    verdict(8, [
        ("product boundaries pass (t=3, x^2/4)", lemma),
        ("composite map passes (t=2, x^2/4)", comp),
        ("at least one truncation passes (t=2, x^3/4)", any(cubic)),
    ])


def test_criterion_09_single_shot_patterns(pauli, pauli_weight):
    rot = cons.bsh(REP3, REP3, REP3, REP3)
    model = StabilizerModel.from_code(rot)
    p = Fraction(min(rot.metadata["d_s"], 3), 2)
    q = Fraction(3, 2)  # claimed distance 3 halved
    zero_u = np.zeros(model.m, dtype=np.uint8)
    e0 = np.zeros(2 * rot.n, dtype=np.uint8)
    patterns = [(e0, zero_u)]
    for qubit in range(rot.n):
        for op in "XYZ":
            patterns.append((pauli(rot.n, qubit, op), zero_u))
    for pos in range(model.m):
        u = zero_u.copy()
        u[pos] = 1
        patterns.append((e0, u))
    patterns = [(e, u) for e, u in patterns
                if Fraction(int(f2.weight(u))) < p
                and quarter_square(2 * int(f2.weight(u))) + pauli_weight(e) < q]
    # the in-regime patterns are decoded as one batch, one per column
    e = np.array([e for e, _ in patterns]).T
    u = np.array([u for _, u in patterns]).T
    residual, decoded = decode_residual(model, e, u)
    rw = model.reduced_weight(residual)
    bad = [(pauli_weight(e[:, t]), int(u[:, t].sum()), int(rw[t]))
           for t in range(len(patterns))
           if not (decoded[t] and 0 <= rw[t] <= quarter_square(
               2 * int(u[:, t].sum())))]
    verdict(9, [
        ("every in-regime (|u|<=1, |e|<=1) pattern meets f(2|u|)", not bad),
    ])


def test_criterion_10_bias_decomposition(tanner_components):
    checks = []
    for base in (REP2, REP3):
        slim = cons.ssh(base)
        rot = cons.bssh(base)
        before = len(tanner_components(slim.hx))
        after = len(tanner_components(rot.hx))
        checks.append(
            (f"{base.name or base.n}: components {after} > {before}",
             after > before))
    verdict(10, checks)


def test_criterion_11_declared_non_reproduction():
    # threshold percentages and asymptotic family claims are documentation
    # only; the infinite-bias limit is exercised structurally instead
    model = noisesim.NoiseModel.z_biased(0.4, float("inf"))
    e = noisesim.sample_error(model, 4000, np.random.default_rng(11))
    c = cons.bssh(REP2)
    sm = StabilizerModel.from_code(c)
    probe = np.concatenate([np.zeros(c.n, dtype=np.uint8),
                            e[4000:4000 + c.n]])
    s = f2.mat_vec(sm.syndrome_map, probe)
    verdict(11, [
        ("pure-Z channel never sets ex", not e[:4000].any()),
        ("pure-Z errors touch only X-part checks",
         not s[~sm.xpart.any(axis=1)].any()),
    ])
