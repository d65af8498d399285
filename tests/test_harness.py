import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt import (
    ExperimentConfig,
    Graph,
    NoisyOracle,
    TrialRecord,
    ValueTable,
    gap_statistics,
    make_grid_graph,
    make_plain_grid,
    records_to_csv,
    run_trials,
    stats_to_csv,
    trial_rng,
)
from graphopt import GridSpec, harness, save_graph
from graphopt.cli import cli
from graphopt.harness import ALGORITHMS, CSV_HEADER


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
    # counts must be whole: these used to be truncated or to fail mid-run
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig(g, t, "sr", (100.7,), 1, 0)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(g, t, "sr", (10,), 2.5, 0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(g, t, "sr", (10,), 1, 1.5)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(g, t, "sr", (10,), 1, -1)


@pytest.mark.parametrize("k", [20, 26])
@pytest.mark.parametrize("algo", ["sr", "ed", "sa"])
def test_config_refuses_a_value_table_that_does_not_fit_the_graph(algo, k):
    # 26 values made a gap against a value no node has; 20 failed in sr's
    # draws or gave ed a gap of 0.0
    g, _ = make_plain_grid(2)
    values = ValueTable(np.linspace(0.0, 0.95, k))
    with pytest.raises(ValueError, match=f"^{k} values for a graph of 25 nodes$"):
        ExperimentConfig(g, values, algo, (200,), 2, 0, maximize=True, params={"gamma": 1.0} if algo == "sa" else {})


def _saved_values(g, values, tmp):
    save_graph(g, tmp / "g.txt", values=values)
    return (tmp / "g.txt.values").read_bytes()


# each entry that takes a value table, run on (graph, values, directory);
# what it kept of the values comes back
VALUE_ENTRIES = {
    "NoisyOracle": lambda g, values, tmp: NoisyOracle(values).values.floats,
    "ExperimentConfig": lambda g, values, tmp: ExperimentConfig(g, values, "sr", (100,), 1, 0).values.floats,
    "save_graph": _saved_values,
}


@pytest.mark.parametrize("entry", sorted(VALUE_ENTRIES))
def test_a_list_of_values_is_taken_as_its_value_table(entry, tmp_path):
    # a list used to fail with an AttributeError (no '_bounds', no 'n'); a
    # bad one is refused by ValueTable before anything is written
    g, table = small_instance()
    run = VALUE_ENTRIES[entry]
    assert run(g, table.means.tolist(), tmp_path) == run(g, table, tmp_path)
    refused = tmp_path / "refused"
    refused.mkdir()
    for bad, message in (([], "non-empty"), ([0.5, math.nan, 0.9, 0.0, 0.1], "finite")):
        with pytest.raises(ValueError, match=message):
            run(g, bad, refused)
    assert not any(refused.iterdir())


def test_maximize_must_equal_true_or_false():
    # "no" used to be kept and, being truthy, negated every observation;
    # ExperimentConfig refuses it by the oracle's own rule
    g, t = small_instance()
    makers = (
        lambda m: NoisyOracle(t, maximize=m),
        lambda m: ExperimentConfig(g, t, "sr", (100,), 1, 0, maximize=m),
    )
    for make in makers:
        for bad in ("no", "", None, 2, 0.5):
            with pytest.raises(ValueError, match=f"maximize must be True or False, got {re.escape(repr(bad))}$"):
                make(bad)
        for good in (True, False, 0, 1, np.bool_(True), np.bool_(False)):
            make(good)
    draws = [NoisyOracle(t, maximize=m).sample_means((0, 2), 5, np.random.default_rng(0))[0] for m in (True, 1, np.bool_(True))]
    assert draws[0] == draws[1] == draws[2]


def test_a_bad_maximize_is_not_blamed_on_the_noise_settings():
    # the noise prefix used to come before every oracle error, maximize's too
    g, t = make_plain_grid(1)
    with pytest.raises(ValueError, match=r"^maximize must be True or False, got 'no'$"):
        ExperimentConfig(g, t, "sr", (20,), 2, 3, maximize="no")
    with pytest.raises(ValueError, match=r"^noise='gaussian', noise_scale=nan: R must be finite"):
        ExperimentConfig(g, t, "sr", (20,), 2, 3, noise="gaussian", noise_scale=math.nan)


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


@pytest.mark.parametrize(
    "settings, flags",
    [
        pytest.param({"algo": "ed", "params": {"path_len": 0}},
                     ["--algo", "ed", "--path-len", "0"], id="path-len-0"),
        pytest.param({"algo": "ed", "params": {"restarts": 0}},
                     ["--algo", "ed", "--restarts", "0"], id="restarts-0"),
        pytest.param({"algo": "ed", "params": {"restarts": -3}},
                     ["--algo", "ed", "--restarts", "-3"], id="restarts-negative"),
        pytest.param({"algo": "sa", "params": {"gamma": 1.0, "steps": -1}},
                     ["--algo", "sa", "--gamma", "1", "--steps", "-1"], id="steps-negative"),
        pytest.param({"algo": "sa", "params": {"gamma": -1.0}},
                     ["--algo", "sa", "--gamma", "-1"], id="gamma-negative"),
        pytest.param({"algo": "sa", "params": {"gamma": 1.0, "s": 0}},
                     ["--algo", "sa", "--gamma", "1", "--samples-per-eval", "0"],
                     id="samples-per-eval-0"),
        pytest.param({"algo": "sr", "values": ValueTable(np.array([0.5, 1.5, 0.9, 0.0, 0.1]))},
                     ["--algo", "sr"], id="bernoulli-values-outside-unit-interval"),
        pytest.param({"algo": "sr", "noise": "gaussian", "noise_scale": -1.0},
                     ["--algo", "sr", "--noise", "gaussian", "--noise-scale", "-1"],
                     id="gaussian-scale-negative"),
        pytest.param({"algo": "sa", "params": {"gamma": 1.0},
                      "graph": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])},
                     ["--algo", "sa", "--gamma", "1"], id="node-without-neighbours"),
        # argparse already refuses these on the command line
        pytest.param({"algo": "sr", "noise": "cauchy"}, None, id="unknown-noise-kind"),
        pytest.param({"algo": "ed", "params": {"path_length": 8}}, None, id="unknown-parameter"),
        # a repeated budget replays the same trial streams
        pytest.param({"algo": "sr", "budgets": (20, 20)}, ["--algo", "sr", "--budget", "20,20"],
                     id="repeated-budget"),
        pytest.param({"algo": "sr", "budgets": (10, 20, 20)}, ["--algo", "sr", "--budget", "10,20,20"],
                     id="repeated-last-budget"),
        # integer knobs used to be truncated with int()
        pytest.param({"algo": "ed", "params": {"path_len": 2.7}}, None, id="fractional-path-len"),
        pytest.param({"algo": "ed", "params": {"restarts": 1.5}}, None, id="fractional-restarts"),
        pytest.param({"algo": "sa", "params": {"gamma": 1.0, "s": 2.5}}, None, id="fractional-s"),
        pytest.param({"algo": "sa", "params": {"gamma": 1.0, "steps": 3.5}}, None,
                     id="fractional-steps"),
        # a fractional budget was truncated; a fractional trial count or seed,
        # or a negative seed, failed inside run_trials
        pytest.param({"algo": "sr", "budgets": (100.7,)}, None, id="fractional-budget"),
        pytest.param({"algo": "sr", "trials": 2.5}, None, id="fractional-trials"),
        pytest.param({"algo": "sr", "seed": 1.5}, None, id="fractional-seed"),
        pytest.param({"algo": "sr", "seed": -1}, ["--algo", "sr", "--seed", "-1"],
                     id="negative-seed"),
    ],
)
def test_bad_settings_refused_before_any_trial(tmp_path, capsys, settings, flags):
    # each used to give all-NaN rows with exit 0, or a traceback
    g, t = small_instance()
    settings = {"graph": g, "values": t, "budgets": (20,), **settings}
    with pytest.raises(ValueError):
        ExperimentConfig(**{"trials": 2, "seed": 3, **settings})
    if flags is None:
        return
    path = tmp_path / "path.txt"
    save_graph(settings["graph"], path, values=settings["values"])
    code = cli(["run", "--graph", str(path), "--budget", "20", "--trials", "2", "--seed", "3", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_whole_float_parameters_are_taken_as_ints():
    g, t = small_instance()
    cfg = ExperimentConfig(g, t, "ed", (20,), 2, 3, params={"path_len": 4.0, "restarts": 2.0})
    assert cfg.params == {"path_len": 4, "restarts": 2}
    assert type(cfg.params["path_len"]) is int
    cfg = ExperimentConfig(g, t, "sa", (20,), 2, 3, params={"gamma": 1, "s": 3.0, "steps": 5.0})
    assert cfg.params == {"gamma": 1.0, "s": 3, "steps": 5}
    cfg = ExperimentConfig(g, t, "sr", (20.0,), 2.0, 3.0)
    assert (cfg.budgets, cfg.trials, cfg.seed) == ((20,), 2, 3)
    assert {type(cfg.budgets[0]), type(cfg.trials), type(cfg.seed)} == {int}


def test_missing_gamma_is_refused_at_construction():
    g, t = small_instance()
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(g, t, "sa", (20,), 3, seed=3)


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


@st.composite
def sweeps(draw):
    """A random connected graph with values in [0, 1] and one sweep on it."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # spanning tree
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(a, b) for a, b in draw(st.lists(pairs, max_size=2 * n)) if a < b}
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    algo = draw(st.sampled_from(ALGORITHMS))
    if algo == "ed":
        restarts = draw(st.one_of(st.none(), st.just(1), st.integers(2, 4)))
        params = {"path_len": draw(st.integers(1, 4)), "restarts": restarts}
    elif algo == "sa":
        steps = draw(st.one_of(st.none(), st.integers(0, 30)))
        params = {"gamma": draw(st.floats(0.0, 50.0)), "s": draw(st.integers(1, 5)), "steps": steps}
    else:
        params = {}
    # small budgets half the time, so budget-capped and unsplittable runs are common
    budget = st.one_of(st.integers(1, 60), st.integers(61, 2500))
    budgets = sorted(draw(st.lists(budget, min_size=1, max_size=3, unique=True)))
    return ExperimentConfig(
        Graph.from_edges(n, sorted(edges)), ValueTable(np.array(values)), algo, budgets,
        trials=2, seed=draw(st.integers(0, 2**16)), maximize=draw(st.booleans()),
        noise=draw(st.sampled_from(["bernoulli", "gaussian"])), params=params,
    )


@settings(max_examples=80, deadline=None)
@given(cfg=sweeps())
def test_budget_honesty_property(cfg):
    p = cfg.params
    for rec in run_trials(cfg):
        assert rec.samples <= rec.budget
        if rec.node == -1:
            # only an ed budget too small to split into rounds or restarts fails
            assert cfg.algo == "ed"
            r = 1 + rec.budget // 1000 if p["restarts"] is None else p["restarts"]
            assert rec.budget < 2 * r * (p["path_len"] + 2)
        elif cfg.algo == "sa":
            steps = rec.budget // (2 * p["s"]) if p["steps"] is None else p["steps"]
            # a chain with budget to spare spends exactly 2 s per step
            assert rec.samples == min(rec.budget, 2 * p["s"] * steps)


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
    # 3 samples cannot be split into 4 descent rounds
    cfg = ExperimentConfig(g, t, "ed", (3,), 3, seed=3, params={"path_len": 4})
    recs = run_trials(cfg)
    assert len(recs) == 3
    assert all(r.node == -1 and math.isnan(r.gap) for r in recs)
    text = records_to_csv(recs)
    assert "nan" in text


def test_sr_on_a_one_node_graph_returns_the_node_at_every_budget():
    # budget 5 used to be refused as a one-arm elimination schedule (node -1, gap nan)
    one = Graph.from_edges(1, [])
    cfg = ExperimentConfig(one, ValueTable(np.array([0.3])), "sr", (1, 5), 3, seed=0)
    rows = [(r.budget, r.node, r.gap, r.samples) for r in run_trials(cfg)]
    assert rows == [(1, 0, 0.0, 1)] * 3 + [(5, 0, 0.0, 1)] * 3


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


def test_gap_statistics_of_a_group_that_all_failed():
    recs = [
        TrialRecord(node=-1, gap=math.nan, samples=s, time_ms=1.0, trial=t, algo="ed", budget=10)
        for t, s in enumerate((4, 6))
    ]
    (stats,) = gap_statistics(recs)
    assert stats.trials == 2
    assert math.isnan(stats.mean_gap) and math.isnan(stats.stderr_gap)
    assert stats.mean_samples == 5.0


def test_ed_on_the_augmented_grid_smoke():
    g, t = make_grid_graph(GridSpec(D=4, target_degree=10, seed=0))
    cfg = ExperimentConfig(g, t, "ed", (200,), 5, seed=11)
    recs = run_trials(cfg)
    assert all(r.node >= 0 for r in recs)
    assert all(r.samples <= 200 for r in recs)


@pytest.mark.parametrize(
    "algo, budgets, maximize, want",
    [
        # direct successive rejects over all 441 nodes, budgets above n
        ("sr", (1000, 4000), True, "c57d16d54daa0b91fa820eabef8ad62265091c78d5cc7fe9dfb75120e0cda0b1"),
        ("sr", (1000, 4000), False, "9fa10f8a9b60ba6eccc66e56db6c044242ec51c310afd8f241ac633425d86800"),
        # at 2000, three restarts run and their finals are re-estimated
        ("ed", (200, 2000), True, "4282c55bcf454a1250e6cad0c1fffcdf054566c8fe433f584810564aada8e8c9"),
        ("ed", (300,), False, "50f2eb972d7ec1105e336c04822421c0bf4cedd83c5a0768b486ee7e56805773"),
    ],
)
def test_sweep_bytes_are_pinned(algo, budgets, maximize, want):
    # the row bytes less time_ms pin every winner, gap and sample count, and
    # so the draws that chose them; a change to the draws or to a tie must
    # say so and update these digests
    g, t = make_grid_graph(GridSpec(D=10, target_degree=15, seed=0))
    cfg = ExperimentConfig(g, t, algo, budgets, 10, seed=7, maximize=maximize)
    text = strip_time(records_to_csv(run_trials(cfg)))
    assert hashlib.sha256(text.encode()).hexdigest() == want
