"""Channel sampling statistics and the Monte Carlo decoding harness."""
import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, noisesim
from codeforge import constructions as cons
from codeforge.classical import LowerBound, SupportMatcher
from codeforge.noisesim import (CSV_COLUMNS, NoiseModel, run_experiment,
                                sample_error, sample_flips, write_records)
from codeforge.soundness import StabilizerModel, quarter_square

REP2 = classical.repetition_closed_loop(2)
CODES = {"bssh": cons.bssh(REP2), "sehgp": cons.sehgp(REP2, REP2, REP2, REP2),
         "bsh": cons.bsh(REP2, REP2, REP2, REP2)}
CHANNELS = {
    "etaZ10": lambda p, q: NoiseModel.z_biased(p, 10.0, q),
    "etaZinf": lambda p, q: NoiseModel.z_biased(p, float("inf"), q),
    "depolarizing": NoiseModel.depolarizing,
}
# |u| < 2 and f(2 |u|) + |e| < 6: some trials of each run are in regime
REGIME_P, REGIME_Q = Fraction(2), Fraction(6)


def test_model_constructors_and_bias():
    d = NoiseModel.depolarizing(0.3)
    assert d.px == d.py == d.pz == pytest.approx(0.1)
    assert d.bias("Z") == pytest.approx(0.5)
    b = NoiseModel.z_biased(0.3, 100.0)
    assert b.bias("Z") == pytest.approx(100.0)
    assert b.px == b.py
    pure = NoiseModel.z_biased(0.2, float("inf"))
    assert (pure.px, pure.py, pure.pz) == (0.0, 0.0, 0.2)
    assert pure.bias("Z") == float("inf")
    assert pure.bias("X") == 0.0
    assert NoiseModel.z_biased(0.3, 0.5).pz == pytest.approx(0.1)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(0.3, 0.1, 0.1, 0.2)
    with pytest.raises(ValueError):
        NoiseModel(1.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        NoiseModel(0.3, 0.1, 0.1, 0.1, q_meas=-0.1)


def test_sampling_rates_within_3_sigma():
    n, p = 20000, 0.12
    model = NoiseModel.depolarizing(p)
    e = sample_error(model, n, np.random.default_rng(0))
    assert e.shape == (2 * n,)
    ex, ez = e[:n], e[n:]
    x_only = int(((ex == 1) & (ez == 0)).sum())
    y_both = int(((ex == 1) & (ez == 1)).sum())
    z_only = int(((ex == 0) & (ez == 1)).sum())
    for count in (x_only, y_both, z_only):
        mean = n * p / 3
        sigma = np.sqrt(n * (p / 3) * (1 - p / 3))
        assert abs(count - mean) < 3 * sigma
    flips = sample_flips(0.25, n, np.random.default_rng(1))
    assert abs(int(flips.sum()) - n * 0.25) < 3 * np.sqrt(n * 0.25 * 0.75)
    assert not sample_flips(0.0, 50, np.random.default_rng(2)).any()


def test_pure_z_noise_never_sets_ex():
    model = NoiseModel.z_biased(0.5, float("inf"))
    e = sample_error(model, 5000, np.random.default_rng(7))
    assert not e[:5000].any()
    assert e[5000:].any()


def test_trial_streams_are_independent_and_reproducible():
    model = NoiseModel.depolarizing(0.1, q_meas=0.05)
    a = sample_error(model, 100, noisesim._trial_rng(42, 3))
    b = sample_error(model, 100, noisesim._trial_rng(42, 3))
    c = sample_error(model, 100, noisesim._trial_rng(42, 4))
    assert (a == b).all()
    assert (a != c).any()


def test_zero_noise_runs_clean():
    rot = cons.bssh(REP2)
    model = NoiseModel.depolarizing(0.0)
    summary, records = run_experiment(rot, model, trials=5, seed=1)
    assert summary["logical_failures"] == 0
    assert summary["failure_rate"] == 0.0
    assert all(r.residual == 0 for r in records)


def test_experiment_deterministic_in_seed():
    rot = cons.bssh(REP2)
    model = NoiseModel.z_biased(0.02, 10.0, q_meas=0.01)
    s1, r1 = run_experiment(rot, model, trials=20, seed=9)
    s2, r2 = run_experiment(rot, model, trials=20, seed=9)
    assert s1 == s2
    assert [r.row() for r in r1] == [r.row() for r in r2]
    s3, _ = run_experiment(rot, model, trials=20, seed=10)
    assert s3 != s1 or s3["logical_failures"] == s1["logical_failures"]


def test_summary_fields_and_ci():
    rot = cons.bssh(REP2)
    model = NoiseModel.depolarizing(0.03, q_meas=0.02)
    from fractions import Fraction
    summary, records = run_experiment(rot, model, trials=30, seed=4,
                                      regime_p=Fraction(1),
                                      regime_q=Fraction(1))
    lo, hi = summary["failure_rate_ci95"]
    assert 0.0 <= lo <= summary["failure_rate"] <= hi <= 1.0
    assert isinstance(lo, float) and isinstance(hi, float)
    assert summary["in_regime_trials"] == sum(r.in_regime for r in records)
    assert noisesim._binomial_ci(0, 0) == (0.0, 1.0)


def test_regime_classification():
    # u = 0 and e = 0 is in-regime for any positive thresholds
    from fractions import Fraction
    rot = cons.bssh(REP2)
    model = NoiseModel.depolarizing(0.0)
    _, records = run_experiment(rot, model, trials=3, seed=0,
                                regime_p=Fraction(1), regime_q=Fraction(1, 2))
    assert all(r.in_regime for r in records)
    _, records = run_experiment(rot, model, trials=3, seed=0)
    assert not any(r.in_regime for r in records)


def test_q_meas_requires_redundant_checks():
    # a full-rank check matrix leaves nothing to repair against
    from codeforge import f2
    from codeforge.css import CssCode
    c = CssCode(np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8),
                f2.zeros(0, 4))
    model = NoiseModel.depolarizing(0.05, q_meas=0.05)
    with pytest.raises(ValueError, match="redundant"):
        run_experiment(c, model, trials=1, seed=0)


def test_csv_output(tmp_path):
    rot = cons.bssh(REP2)
    model = NoiseModel.z_biased(0.02, 5.0, q_meas=0.01)
    out = tmp_path / "trials.csv"
    _, records = run_experiment(rot, model, trials=10, seed=2, out_csv=out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 11
    assert [int(r[0]) for r in rows[1:]] == list(range(10))
    # rewriting the same records is byte-identical
    out2 = tmp_path / "again.csv"
    write_records(out2, records)
    assert out.read_bytes() == out2.read_bytes()


def assert_matches_oracle(oracle, code, model, trials, seed, budget=4):
    """run_experiment's rows and summary equal those of the per-trial
    oracle on the same sampled trials; returns the oracle's aborted
    stage of each trial."""
    summary, records = run_experiment(code, model, trials, seed,
                                      regime_p=REGIME_P, regime_q=REGIME_Q,
                                      budget=budget)
    sm = StabilizerModel.from_code(code)
    n = sm.n
    rows, stages, passes = [], [], 0
    for trial in range(trials):
        rng = noisesim._trial_rng(seed, trial)
        e = sample_error(model, n, rng)
        u = sample_flips(model.q_meas, sm.m, rng)
        rw, passed, logical, aborted = oracle(sm, e, u, budget)
        uw = int(u.sum())
        regime = (uw < REGIME_P and quarter_square(2 * uw)
                  + int((e[:n] | e[n:]).sum()) < REGIME_Q)
        rows.append([trial, int(e[:n].sum()), int(e[n:].sum()), uw,
                     repr(rw) if isinstance(rw, LowerBound) else rw,
                     int(logical), int(regime)])
        stages.append(aborted)
        passes += regime and passed
    assert [r.row() for r in records] == rows
    in_regime = sum(r[6] for r in rows)
    assert summary["logical_failures"] == sum(r[5] for r in rows)
    assert summary["in_regime_trials"] == in_regime
    assert summary["in_regime_pass_rate"] == (passes / in_regime
                                              if in_regime else None)
    return stages


@pytest.mark.parametrize("family", sorted(CODES))
@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("q", [0.0, 0.02])
@given(seed=st.integers(0, 2 ** 32), p=st.sampled_from([0.02, 0.05, 0.08]))
@settings(max_examples=8, deadline=None)
def test_run_experiment_matches_per_trial_oracle(single_shot_trial, family,
                                                 channel, q, seed, p):
    assert_matches_oracle(single_shot_trial, CODES[family],
                          CHANNELS[channel](p, q), 8, seed)


def test_aborts_in_mid_batch_match_oracle(single_shot_trial):
    # at budget 2 repair and decode aborts fall between decoded trials
    stages = assert_matches_oracle(
        single_shot_trial, CODES["bssh"], NoiseModel.z_biased(0.05, 10.0, 0.03),
        30, 0, budget=2)
    decoded = [t for t, s in enumerate(stages) if s is None]
    inner = stages[decoded[0]:decoded[-1]]
    assert "repair" in inner and "decode" in inner


def test_all_aborts_leave_the_reduce_batch_empty(single_shot_trial):
    stages = assert_matches_oracle(
        single_shot_trial, CODES["bsh"], NoiseModel.depolarizing(0.5, 0.3),
        6, 1, budget=1)
    assert None not in stages


@pytest.mark.parametrize("family", sorted(CODES))
def test_one_trial_matches_oracle(single_shot_trial, family):
    for seed in range(4):
        assert_matches_oracle(single_shot_trial, CODES[family],
                              NoiseModel.z_biased(0.05, 10.0, 0.02), 1, seed)


def test_trial_blocks_match_one_block(single_shot_trial, monkeypatch):
    model = NoiseModel.z_biased(0.05, 10.0, 0.02)
    _, whole = run_experiment(CODES["bssh"], model, 10, 5)
    monkeypatch.setattr(noisesim, "TRIAL_BLOCK", 3)
    _, blocks = run_experiment(CODES["bssh"], model, 10, 5)
    assert [r.row() for r in blocks] == [r.row() for r in whole]
    assert_matches_oracle(single_shot_trial, CODES["bssh"], model, 10, 5)


def test_each_stage_is_one_search_per_block(monkeypatch):
    # repair, decode and reduce each make at most one find_min_batch call
    # per trial block, whatever the block holds
    calls = []
    batch = SupportMatcher.find_min_batch

    def counted(self, keys, words, cap):
        calls.append(len(keys))
        return batch(self, keys, words, cap)

    monkeypatch.setattr(SupportMatcher, "find_min_batch", counted)
    monkeypatch.setattr(noisesim, "TRIAL_BLOCK", 8)
    run_experiment(CODES["bssh"], NoiseModel.z_biased(0.05, 10.0, 0.02),
                   20, 7)
    assert 3 <= len(calls) <= 3 * 3
    assert sum(calls) > len(calls)
