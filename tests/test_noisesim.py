"""Channel sampling statistics and the Monte Carlo decoding harness."""
import csv

import numpy as np
import pytest

from codeforge import classical, noisesim
from codeforge import constructions as cons
from codeforge.noisesim import (CSV_COLUMNS, NoiseModel, run_experiment,
                                sample_error, sample_flips, write_records)

REP2 = classical.repetition_closed_loop(2)


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
