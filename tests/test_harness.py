import math

import numpy as np
import pytest

from graphopt import (
    ExperimentConfig,
    Graph,
    TrialRecord,
    ValueTable,
    gap_statistics,
    make_grid_graph,
    records_to_csv,
    run_trials,
    stats_to_csv,
    trial_rng,
)
from graphopt import GridSpec, harness
from graphopt.harness import CSV_HEADER


def small_instance():
    g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    return g, ValueTable(np.array([0.5, 0.2, 0.9, 0.0, 0.1]))


def strip_time(csv_text):
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


def test_config_validation():
    g, t = small_instance()
    with pytest.raises(ValueError):
        ExperimentConfig(g, t, "nope", (10,), 1, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(g, t, "sr", (), 1, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(g, t, "sr", (10, 5), 1, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(g, t, "sr", (0,), 1, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(g, t, "sr", (10,), 0, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(g, t, "sr", (10,), 1, None)


def test_non_finite_settings_rejected_up_front():
    # a NaN/inf setting must be refused, not surface as node=-1, gap=nan rows
    g, t = small_instance()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise_scale"):
            ExperimentConfig(g, t, "sr", (20,), 2, 3, noise="gaussian", noise_scale=bad)
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(g, t, "sa", (20,), 2, 3, params={"gamma": bad})
        with pytest.raises(ValueError, match="steps"):
            ExperimentConfig(g, t, "sa", (20,), 2, 3, params={"gamma": 1.0, "steps": bad})
    # finite settings, restarts=None and exact numbers still pass
    ExperimentConfig(g, t, "ed", (20,), 2, 3, params={"path_len": 4, "restarts": None})
    ExperimentConfig(g, t, "sa", (20,), 2, 3, params={"gamma": np.float32(2.0), "s": 3})


def test_trial_rng_streams_are_distinct():
    a = trial_rng(1, 100, 0).random(4)
    b = trial_rng(1, 100, 1).random(4)
    c = trial_rng(1, 200, 0).random(4)
    d = trial_rng(2, 100, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)
    assert np.allclose(a, trial_rng(1, 100, 0).random(4))


def test_runs_are_reproducible_byte_for_byte():
    g, t = small_instance()
    cfg = ExperimentConfig(g, t, "sr", (10, 40), 8, seed=77)
    csv1 = records_to_csv(run_trials(cfg))
    csv2 = records_to_csv(run_trials(cfg))
    assert strip_time(csv1) == strip_time(csv2)
    assert csv1.splitlines()[0] == CSV_HEADER


def test_budget_honesty():
    g, t = small_instance()
    for algo, params in (("sr", {}), ("ed", {"path_len": 2}), ("sa", {"gamma": 50.0, "s": 2})):
        cfg = ExperimentConfig(g, t, algo, (12, 60), 10, seed=5, params=params)
        for rec in run_trials(cfg):
            assert rec.samples <= rec.budget


def test_sr_fallback_below_node_count():
    # budget 3 covers a single pull of arms 0..2 only; noiseless minimize
    g, t = small_instance()
    cfg = ExperimentConfig(
        g, t, "sr", (3,), 4, seed=1, noise="gaussian", noise_scale=0.0
    )
    for rec in run_trials(cfg):
        assert rec.node == 1
        assert rec.samples == 3
        assert rec.gap == pytest.approx(0.2)


def test_sr_full_run_above_node_count():
    g, t = small_instance()
    cfg = ExperimentConfig(
        g, t, "sr", (100,), 4, seed=2, noise="gaussian", noise_scale=0.0
    )
    for rec in run_trials(cfg):
        assert rec.node == 3
        assert rec.gap == 0.0


def test_failed_trials_become_nan_rows():
    g, t = small_instance()
    cfg = ExperimentConfig(g, t, "sa", (20,), 3, seed=3)  # gamma missing
    recs = run_trials(cfg)
    assert len(recs) == 3
    assert all(r.node == -1 and math.isnan(r.gap) for r in recs)
    text = records_to_csv(recs)
    assert "nan" in text


def test_unexpected_trial_errors_propagate(monkeypatch):
    # only budget exhaustion and rejected parameters become failed rows;
    # a programming error must not turn into a silent NaN row
    def broken(*args):
        raise IndexError("bug in the elimination loop")

    monkeypatch.setattr(harness, "successive_reject", broken)
    g, t = small_instance()
    cfg = ExperimentConfig(g, t, "sr", (20,), 2, seed=3)
    with pytest.raises(IndexError):
        run_trials(cfg)


def test_records_sorted_by_algo_budget_trial():
    g, t = small_instance()
    cfg = ExperimentConfig(g, t, "sr", (10, 20), 3, seed=4)
    recs = run_trials(cfg)
    keys = [(r.algo, r.budget, r.trial) for r in recs]
    assert keys == sorted(keys)
    assert len(recs) == 6


def test_gap_statistics_moments():
    recs = [
        TrialRecord(node=0, gap=0.1, samples=10, time_ms=1.0, trial=0, algo="sr", budget=10),
        TrialRecord(node=1, gap=0.3, samples=10, time_ms=1.0, trial=1, algo="sr", budget=10),
        TrialRecord(node=-1, gap=math.nan, samples=0, time_ms=0.0, trial=2, algo="sr", budget=10),
        TrialRecord(node=2, gap=0.5, samples=20, time_ms=1.0, trial=0, algo="sr", budget=40),
    ]
    stats = gap_statistics(recs)
    assert [s.budget for s in stats] == [10, 40]
    s10 = stats[0]
    assert s10.trials == 3  # failed row still counted
    assert s10.mean_gap == pytest.approx(0.2)
    want_stderr = np.std([0.1, 0.3], ddof=1) / math.sqrt(2)
    assert s10.stderr_gap == pytest.approx(want_stderr)
    assert stats[1].stderr_gap == 0.0
    text = stats_to_csv(stats)
    assert text.startswith("algo,budget,trials,")


def test_ed_on_the_augmented_grid_smoke():
    g, t = make_grid_graph(GridSpec(D=4, target_degree=10, seed=0))
    cfg = ExperimentConfig(g, t, "ed", (200,), 5, seed=11)
    recs = run_trials(cfg)
    assert all(r.node >= 0 for r in recs)
    assert all(r.samples <= 200 for r in recs)
