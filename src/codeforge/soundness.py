"""Soundness certification for syndrome maps and single-shot decoding.

A map d is (t, f)-sound when every achievable syndrome s with |s| <= t has
a preimage of weight at most f(|s|).  This module scans finite instances
exhaustively, reduces Pauli errors over their stabilizer coset, and runs
the two-stage decoder (syndrome repair, then data decode) used by the
single-shot experiments.

All three searches run on classical.SupportMatcher: minimum-weight sets
of columns (or of single-qubit Paulis) whose XOR hits a target.  It
branches on the entries that hold the target's rarest set bit, one of
which every support holds, XORs each away and repeats on the rest,
down to one key lookup in the sorted entries.  Among the supports of
least weight it returns the lexicographically first one in
sorted-entry order, so a decoder's output is fixed by its entries and
its target alone, whatever else is in its batch.  Each decoder stage
(repair_syndrome, min_weight_decode, reduced_weight) takes a batch of
trials, one per column, and answers it with one batch search; the scan
lists the achievable syndromes of one weight with the same descent and
answers all of them in one batch.

Bounds are compared in exact rational arithmetic; no floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import f2
from .classical import LowerBound, SupportMatcher


def quarter_square(x: int) -> Fraction:
    """f(x) = x^2 / 4."""
    return Fraction(x * x, 4)


def quarter_cube(x: int) -> Fraction:
    """g(x) = x^3 / 4."""
    return Fraction(x ** 3, 4)


quarter_square.fname = "quarter_square"
quarter_cube.fname = "quarter_cube"

# CLI spellings
F_BY_NAME = {
    "x2over4": quarter_square,
    "x3over4": quarter_cube,
    "quarter_square": quarter_square,
    "quarter_cube": quarter_cube,
}


class LemmaContradictionError(AssertionError):
    """A scan that is guaranteed clean by an inherited bound found a
    violation; this signals an implementation bug, not a bad code."""


class StabilizerModel:
    """Uniform symplectic view of a stabilizer code for decoding.

    A Pauli error is one uint8 vector (ex | ez) of length 2n: e[q] is
    the X bit and e[n + q] the Z bit of qubit q, so Y sets both.  The
    decoder stages take batches, one error or syndrome a column.  Check
    i has an X part and a Z part (one of them zero for ordinary CSS
    rows); its outcome on e is xpart_i . ez + zpart_i . ex, one row of
    the syndrome map [zpart | xpart].  Lazily cached:

      * coset membership matrix (annihilator of the generator rows), used
        for reduced weights;
      * the Pauli column matcher of the syndrome map, for data decoding;
      * the valid-syndrome annihilator, the numeric stand-in for the
        syndrome-check matrices, for syndrome repair.
    """

    def __init__(self, xpart, zpart):
        self.xpart = f2.as_f2(xpart)
        self.zpart = f2.as_f2(zpart)
        if self.xpart.shape != self.zpart.shape:
            raise ValueError("X and Z parts must have identical shape")
        self.m, self.n = self.xpart.shape
        self.syndrome_map = np.concatenate([self.zpart, self.xpart], axis=1)
        self._coset = None
        self._decode = None
        self._meta = None

    @classmethod
    def from_code(cls, code) -> "StabilizerModel":
        """Build from a CssCode's stabilizers: [hx; 0] and [0; hz] for an
        unpaired code, the paired rows otherwise, so a built code and the
        bundle it exports give the same model row for row."""
        return cls(code.stab_x, code.stab_z)

    # generator rows in (ex | ez) coordinates: multiplying a stabilizer
    # into an error XORs its X part into ex and its Z part into ez
    def _gens(self) -> np.ndarray:
        return np.concatenate([self.xpart, self.zpart], axis=1)

    def _coset_tools(self):
        if self._coset is None:
            member = f2.kernel_basis(self._gens())
            self._coset = (member, SupportMatcher.for_paulis(member))
        return self._coset

    def _decode_tools(self):
        if self._decode is None:
            self._decode = SupportMatcher.for_paulis(self.syndrome_map)
        return self._decode

    def _meta_tools(self):
        """(annihilator K of the valid-syndrome space, column matcher).

        A syndrome s is achievable exactly when K s = 0; repairing a noisy
        readout means matching K s with few flipped outcome bits.
        """
        if self._meta is None:
            ann = f2.kernel_basis(self.syndrome_map.T)
            self._meta = (ann, SupportMatcher.for_columns(ann))
        return self._meta

    def reduced_weight(self, e, budget: int = 4) -> np.ndarray:
        """Minimum Pauli weight over the stabilizer coset of each column
        of e (0 exactly for a stabilizer), or -1 where it exceeds budget.
        A coset element of weight w exists iff some w qubits carry Paulis
        whose membership columns XOR to the class label of e."""
        member, matcher = self._coset_tools()
        return _find_min(matcher, f2.mat_mul(member, _batch(e)), budget)[0]

    def min_weight_decode(self, s, budget: int = 4):
        """(e_hat, found): column t of e_hat is a minimum-weight error
        (ex | ez) with syndrome s[:, t], or 0 where found[t] is False
        because none has weight <= budget."""
        weight, pick = _find_min(self._decode_tools(), _batch(s), budget)
        # a qubit's entries are X, Y, Z in that order; X and Y set its X
        # bit, Y and Z its Z bit
        x, y, z = pick[0::3], pick[1::3], pick[2::3]
        return np.concatenate([x | y, y | z]), weight >= 0

    def repair_syndrome(self, s, budget: int = 4):
        """(repaired, found): column t of repaired is s[:, t] with the
        fewest outcome flips that make it achievable, or s[:, t] itself
        where found[t] is False because more than budget are needed."""
        ann, matcher = self._meta_tools()
        s = _batch(s)
        resid = f2.mat_mul(ann, s)
        # only syndromes that are not achievable need a search
        live = resid.any(axis=0).nonzero()[0]
        weight, pick = _find_min(matcher, resid[:, live], budget)
        repaired, found = s.copy(), np.ones(s.shape[1], dtype=bool)
        # entry j of the column matcher is outcome bit j
        repaired[:, live] ^= pick
        found[live] = weight >= 0
        return repaired, found


def _batch(a) -> np.ndarray:
    """a as a batch of GF(2) columns; a vector is a batch of one."""
    a = np.asarray(a)
    return f2.as_f2_vector(a)[:, None] if a.ndim == 1 else f2.as_f2(a)


def _find_min(matcher: SupportMatcher, targets: np.ndarray, budget: int):
    """find_min_batch over the columns of targets as (weight, pick):
    pick (entries x targets) is 1 at the support found for column t."""
    pick = np.zeros((len(matcher.entries), targets.shape[1]), dtype=np.uint8)
    if not targets.shape[1]:
        return np.zeros(0, dtype=np.int64), pick
    weight, rows = matcher.find_min_batch(
        *matcher.pack(f2.columns_as_ints(targets)), budget)
    t, j = (rows >= 0).nonzero()
    pick[rows[t, j], t] = 1
    return weight, pick


@dataclass
class SoundnessReport:
    """Outcome of a bounded soundness scan.

    Attributes:
        t_scanned: Largest syndrome weight enumerated.
        f_name: Name of the bounding function.
        violations: (preimage-or-syndrome support, syndrome weight,
            reduced weight) for every scanned failure of the bound.
        max_ratio: max over scanned nonzero syndromes of
            reduced-weight / f(weight).
        partial: True when some achievable syndrome exhausted the preimage
            search cap, so its entry is only a lower bound.
        per_weight: syndrome weight -> worst min-preimage weight seen.
    """

    t_scanned: int
    f_name: str
    violations: list = field(default_factory=list)
    max_ratio: Fraction = Fraction(0)
    partial: bool = False
    per_weight: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.partial


def soundness_scan(syndrome_map, t: int, f=quarter_square,
                   cap: int | None = None) -> SoundnessReport:
    """Exhaustive (t, f) soundness check of one binary map.

    Enumerates every achievable syndrome of weight <= t and compares its
    minimum preimage weight against f.  A syndrome s is achievable iff
    ach @ s = 0 for the annihilator ach of the image, so the achievable
    syndromes of weight w are the zero-XOR supports of weight w of the
    columns of ach.  One SupportMatcher lists them in lexicographic
    order by its descent (SupportMatcher.supports) rather than a walk
    over all C(m, w) supports.  Their search keys and words are XORs of
    those of the unit vectors, and one find_min_batch call over the
    columns of d answers every syndrome of one weight; the report is
    then read off its result arrays.

    Args:
        syndrome_map: The map d; errors live on its columns.
        t: Syndrome weight ceiling to scan.
        f: Bounding function returning exact rationals.
        cap: Preimage search ceiling; defaults to floor(f(t)) + 2.

    Returns:
        SoundnessReport; clean means every scanned syndrome met the bound
        with an exact witness.
    """
    d = f2.as_f2(syndrome_map)
    m = d.shape[0]
    if cap is None:
        cap = int(f(t)) + 2
    matcher = SupportMatcher.for_columns(d)
    # a syndrome's key and words are the XOR of those of its unit vectors
    unit_keys, unit_words = matcher.pack(
        f2.columns_as_ints(f2.identity(m)))
    achievable = SupportMatcher.for_columns(f2.kernel_basis(d.T))
    report = SoundnessReport(t_scanned=t, f_name=getattr(f, "fname", "custom"))
    report.per_weight[0] = 0
    for ws in range(1, t + 1):
        supp = achievable.supports(ws)
        weight, pre = matcher.find_min_batch(
            np.bitwise_xor.reduce(unit_keys[supp], axis=1),
            np.bitwise_xor.reduce(unit_words[:, supp], axis=2), cap)
        bound = f(ws)
        hit = weight[weight >= 0]
        if len(hit):
            w = int(hit.max())
            report.per_weight[ws] = w
            ratio = Fraction(w) / bound if bound else Fraction(0)
            report.max_ratio = max(report.max_ratio, ratio)
        # misses and preimages above the bound, in syndrome order; a
        # column's tag is its index
        bad = ((weight < 0) | (weight > math.floor(bound))).nonzero()[0]
        for i, w in zip(bad.tolist(), weight[bad].tolist()):
            if w < 0:
                report.partial = True
                report.violations.append(
                    (tuple(supp[i].tolist()), ws, LowerBound(cap)))
            else:
                report.violations.append((tuple(pre[i, :w].tolist()), ws, w))
    return report


def inheritance_check(d, n: int, t: int, f=quarter_square) -> SoundnessReport:
    """Scan d (x) I_n and I_n (x) d at the same (t, f).

    Soundness transfers to both identity paddings, so a violation here
    can only come from a bug; it raises instead of reporting.

    Raises:
        LemmaContradictionError: if either padded scan is not clean.
    """
    d = f2.as_f2(d)
    eye = f2.identity(n)
    merged = SoundnessReport(t_scanned=t, f_name=getattr(f, "fname", "custom"))
    for padded in (f2.kron(d, eye), f2.kron(eye, d)):
        rep = soundness_scan(padded, t, f)
        if rep.violations:
            raise LemmaContradictionError(
                f"identity padding broke a clean ({t}, {rep.f_name}) scan")
        merged.max_ratio = max(merged.max_ratio, rep.max_ratio)
        merged.partial = merged.partial or rep.partial
        for ws, w in rep.per_weight.items():
            merged.per_weight[ws] = max(merged.per_weight.get(ws, 0), w)
    return merged


def decode_residual(model: StabilizerModel, e, u, budget: int = 4):
    """(residual, decoded) of the two-stage decoder on a batch of trials,
    one per column of e (ex | ez) and of the outcome flips u: column t
    is e ^ e_hat, or e itself where a repair or decode search exhausted
    its budget and decoded[t] is False."""
    e = _batch(e)
    observed = f2.mat_mul(model.syndrome_map, e) ^ _batch(u)
    repaired, decoded = model.repair_syndrome(observed, budget)
    live = decoded.nonzero()[0]
    e_hat, found = model.min_weight_decode(repaired[:, live], budget)
    residual = e.copy()
    residual[:, live] ^= e_hat
    decoded[live] = found
    return residual, decoded
