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
its target alone.  The decoder asks for one target at a time; the scan
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


def _pack_vec(v: np.ndarray) -> int:
    """Pack a binary vector into an int, consistent with columns_as_ints."""
    return f2.columns_as_ints(f2.as_f2_vector(v).reshape(-1, 1))[0]


class StabilizerModel:
    """Uniform symplectic view of a stabilizer code for decoding.

    A Pauli error is one uint8 vector (ex | ez) of length 2n: e[q] is
    the X bit and e[n + q] the Z bit of qubit q, so Y sets both.  Check
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

    def syndrome(self, e: np.ndarray) -> np.ndarray:
        return f2.mat_vec(self.syndrome_map, e)

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

    def reduced_weight(self, e: np.ndarray, budget: int = 4):
        """Minimum Pauli weight over the stabilizer coset of e.

        Weight-ordered search: a coset element of weight w exists iff some
        w qubits carry Paulis whose membership columns XOR to the class
        label of e.  Exact when found within budget, else a lower bound;
        0 exactly when e is a stabilizer.
        """
        member, matcher = self._coset_tools()
        target = _pack_vec(f2.mat_vec(member, e))
        w, _ = matcher.find_min(target, budget)
        return LowerBound(budget) if w is None else w

    def min_weight_decode(self, s: np.ndarray, budget: int = 4):
        """Minimum-weight error (ex | ez) with syndrome s, or None."""
        matcher = self._decode_tools()
        w, supp = matcher.find_min(_pack_vec(s), budget)
        if w is None:
            return None
        # rows ex and ez; X and Y set the X bit, Z and Y the Z bit
        e = np.zeros((2, self.n), dtype=np.uint8)
        for q, p in supp:
            e[:, q] = (p != "Z", p != "X")
        return e.ravel()

    def repair_syndrome(self, s: np.ndarray, budget: int = 4):
        """Minimum outcome flips making s achievable: (repaired, u_hat)."""
        ann, matcher = self._meta_tools()
        resid = f2.mat_vec(ann, s)
        u_hat = np.zeros(self.m, dtype=np.uint8)
        if resid.any():
            w, supp = matcher.find_min(_pack_vec(resid), budget)
            if w is None:
                return None, None
            for i, _ in supp:
                u_hat[i] = 1
        return s ^ u_hat, u_hat


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


def decode_residual(model: StabilizerModel, e: np.ndarray, u: np.ndarray,
                    budget: int = 4):
    """Residual error e ^ e_hat of the two-stage decoder, or None when a
    repair or decode search exhausts its budget.  e, e_hat and the
    residual are (ex | ez) vectors of length 2n; u flips the outcomes."""
    observed = model.syndrome(e) ^ f2.as_f2_vector(u)
    repaired, _ = model.repair_syndrome(observed, budget)
    if repaired is None:
        return None
    e_hat = model.min_weight_decode(repaired, budget)
    if e_hat is None:
        return None
    return e ^ e_hat
