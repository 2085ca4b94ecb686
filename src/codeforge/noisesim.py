"""Biased Pauli channel sampling and the single-shot experiment harness.

Each qubit independently suffers X, Y or Z with rates (px, py, pz); each
measured check outcome flips independently with rate q_meas.  Trials are
driven by counter-based Philox streams keyed on (seed, trial), so runs
are reproducible and order-independent.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2
from .classical import LowerBound
from .soundness import StabilizerModel, decode_residual, quarter_square


@dataclass
class NoiseModel:
    """Independent single-qubit Pauli channel plus measurement flips.

    Attributes:
        p: Total error probability per qubit, px + py + pz.
        px, py, pz: Per-Pauli rates.
        q_meas: Flip probability per measured check outcome.
    """

    p: float
    px: float
    py: float
    pz: float
    q_meas: float = 0.0

    def __post_init__(self):
        for name in ("p", "px", "py", "pz", "q_meas"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if abs((self.px + self.py + self.pz) - self.p) > 1e-12:
            raise ValueError("px + py + pz must equal p")

    @classmethod
    def depolarizing(cls, p: float, q_meas: float = 0.0) -> "NoiseModel":
        return cls(p, p / 3, p / 3, p / 3, q_meas)

    @classmethod
    def z_biased(cls, p: float, eta_z, q_meas: float = 0.0) -> "NoiseModel":
        """Channel with eta_Z = pz / (px + py), px = py.

        eta_z may be float('inf') (pure Z noise); eta_z = 0.5 recovers the
        depolarizing split.

        Raises:
            ValueError: if eta_z is negative or NaN.
        """
        if not eta_z >= 0:
            raise ValueError(f"eta_z must be >= 0, got {eta_z}")
        if eta_z == float("inf"):
            return cls(p, 0.0, 0.0, p, q_meas)
        pz = p * eta_z / (1.0 + eta_z)
        rest = (p - pz) / 2.0
        return cls(p, rest, rest, pz, q_meas)

    def bias(self, which: str = "Z") -> float:
        """eta_i = p_i / sum of the other two rates (inf when they vanish)."""
        rates = {"X": self.px, "Y": self.py, "Z": self.pz}
        own = rates.pop(which)
        other = sum(rates.values())
        if other == 0.0:
            return float("inf") if own > 0 else 0.0
        return own / other


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial: Philox keyed by seed, counter by
    trial index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, trial]))


def sample_error(model: NoiseModel, n: int, rng) -> np.ndarray:
    """I.i.d. per-qubit draw from the channel, as one (ex | ez) vector of
    length 2n: e[i] is the X bit and e[n + i] the Z bit of qubit i.

    Args:
        model: Channel rates.
        n: Qubit count.
        rng: np.random.Generator.
    """
    u = rng.random(n)
    ex = (u < model.px + model.py).astype(np.uint8)
    ez = ((u >= model.px) & (u < model.p)).astype(np.uint8)
    return np.concatenate([ex, ez])


def sample_flips(q: float, m: int, rng) -> np.ndarray:
    """I.i.d. outcome flips at rate q over m checks."""
    if q == 0.0:
        return np.zeros(m, dtype=np.uint8)
    return (rng.random(m) < q).astype(np.uint8)


@dataclass
class TrialRecord:
    """One decoded trial, in the exact column order of the CSV output."""

    trial: int
    ex_weight: int
    ez_weight: int
    u_weight: int
    residual: object
    logical_fail: bool
    in_regime: bool

    def row(self) -> list:
        res = self.residual
        return [self.trial, self.ex_weight, self.ez_weight, self.u_weight,
                repr(res) if isinstance(res, LowerBound) else int(res),
                int(self.logical_fail), int(self.in_regime)]


CSV_COLUMNS = ["trial", "ex_weight", "ez_weight", "u_weight", "residual",
               "logical_fail", "in_regime"]


# trials decoded together; bounds the batch arrays at large trial counts
TRIAL_BLOCK = 1024


def run_experiment(code, model: NoiseModel, trials: int, seed: int,
                   f=quarter_square, regime_p: Fraction | None = None,
                   regime_q: Fraction | None = None, budget: int = 4,
                   out_csv=None):
    """Monte Carlo single-shot decoding, deterministic given the seed.

    Each trial samples a data error and outcome flips from its own
    stream; blocks of TRIAL_BLOCK trials are decoded with one batched
    search per stage, which answers each trial as a search for it alone
    would, and each outcome is then classified.  A residual is
    a logical failure when it commutes with every check but is not a
    stabilizer.  When the regime thresholds are given, a trial is
    in-regime iff |u| < regime_p and f(2 |u|) + |e| < regime_q.

    Args:
        code: A CssCode, built or loaded; must expose syndrome checks
            implicitly (the decoder uses the numeric valid-syndrome
            annihilator, so q_meas > 0 requires a nontrivial one).
        model: Noise rates.
        trials: Trial count.
        seed: Philox key.
        f: Single-shot bound function.
        regime_p, regime_q: Optional single-shot regime thresholds.
        budget: Decoder and reduction search cap.
        out_csv: Optional path; writes the fixed-column record stream.

    Returns:
        (summary dict, list of TrialRecord).
    """
    sm = StabilizerModel.from_code(code)
    # an empty valid-syndrome annihilator means the checks are independent
    if model.q_meas > 0.0 and not sm._meta_tools()[0].shape[0]:
        raise ValueError("q_meas > 0 needs redundant checks to repair against")
    records = []
    failures = in_regime_total = in_regime_pass = 0
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        rngs = [_trial_rng(seed, trial) for trial in block]
        e = np.array([sample_error(model, sm.n, rng) for rng in rngs])
        u = np.array([sample_flips(model.q_meas, sm.m, rng) for rng in rngs])
        residual, decoded = decode_residual(sm, e.T, u.T, budget)
        rw = np.full(len(block), -1)
        rw[decoded] = sm.reduced_weight(residual[:, decoded], budget)
        # a weight above budget is never 0: only a stabilizer reduces to 0
        logical = decoded & (rw != 0) & ~f2.mat_mul(
            sm.syndrome_map, residual).any(axis=0)
        ex, ez = e[:, :sm.n], e[:, sm.n:]
        for trial, exw, ezw, ew, uw, w, fail in zip(
                block, ex.sum(axis=1).tolist(), ez.sum(axis=1).tolist(),
                (ex | ez).sum(axis=1).tolist(), u.sum(axis=1).tolist(),
                rw.tolist(), logical.tolist()):
            regime = (regime_p is not None and regime_q is not None
                      and Fraction(uw) < regime_p
                      and f(2 * uw) + ew < regime_q)
            records.append(TrialRecord(
                trial, exw, ezw, uw, LowerBound(budget) if w < 0 else w,
                fail, regime))
            failures += fail
            if regime:
                in_regime_total += 1
                in_regime_pass += w >= 0 and Fraction(w) <= f(2 * uw)
    summary = {
        "trials": trials,
        "seed": seed,
        "logical_failures": failures,
        "failure_rate": failures / trials if trials else 0.0,
        "failure_rate_ci95": _binomial_ci(failures, trials),
        "in_regime_trials": in_regime_total,
        "in_regime_pass_rate": (in_regime_pass / in_regime_total
                                if in_regime_total else None),
    }
    if out_csv is not None:
        write_records(out_csv, records)
    return summary, records


def write_records(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(r.row())


def _binomial_ci(k: int, n: int) -> tuple[float, float]:
    """95% Wilson interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    phat = k / n
    denom = 1 + z * z / n
    centre = phat + z * z / (2 * n)
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (float((centre - half) / denom), float((centre + half) / denom))
