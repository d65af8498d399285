import csv
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graphopt
from graphopt import Graph, PointSet, load_graph, save_graph, save_points
from graphopt import cli as cli_module
from graphopt.cli import build_parser, cli


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_grid_writes_a_loadable_instance(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    code, _, _ = run_cli(
        capsys, "gen-grid", "--D", "4", "--target-degree", "10", "--seed", "7", "--out", str(out)
    )
    assert code == 0
    g, table = load_graph(out)
    assert g.n == 81
    assert table is not None
    assert min(g.degree(i) for i in range(g.n)) >= 3


def test_gen_grid_is_seed_deterministic(tmp_path, capsys):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    for path, seed in ((a, 7), (b, 7), (c, 8)):
        assert run_cli(
            capsys, "gen-grid", "--D", "3", "--target-degree", "9",
            "--seed", str(seed), "--out", str(path),
        )[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_certify_roundtrip_on_generated_grid(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "4", "--target-degree", "8", "--seed", "1", "--out", str(out))
    # the plain-grid hill certifies (negated) exactly at m = 2/5 for D=4;
    # augmentation only adds edges, which can only help the certificate
    code, stdout, stderr = run_cli(
        capsys, "certify", "--graph", str(out), "--m", "2/5", "--negate"
    )
    assert code == 0
    assert stdout.splitlines()[0] == "node,M"
    assert len(stdout.splitlines()) == 82
    assert "strongly convex" in stderr
    code, _, stderr = run_cli(
        capsys, "certify", "--graph", str(out), "--m", "0.75", "--negate"
    )
    assert code == 1
    assert "not certifiable" in stderr


def test_certify_nearly_mode(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "3", "--target-degree", "8", "--seed", "2", "--out", str(out))
    code, stdout, stderr = run_cli(
        capsys, "certify", "--graph", str(out), "--nearly",
        "--alpha", "2/5", "--c", "0", "--negate",
    )
    assert code == 0
    assert stdout.splitlines()[0] == "node,in_C,r"
    assert "nearly convex" in stderr


def test_certify_nearly_rows_and_summaries(tmp_path, capsys):
    # path 0-1-2-3 valued 0,2,1,3: node 2 is a local minimum outside the
    # core whose only way in climbs 1, to node 1
    out = tmp_path / "path.txt"
    save_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), out)
    (tmp_path / "path.txt.values").write_text("0,0\n1,2\n2,1\n3,3\n")
    nearly = ("certify", "--graph", str(out), "--nearly", "--alpha", "1/2")
    code, stdout, stderr = run_cli(capsys, *nearly, "--c", "1")
    assert code == 0
    assert stdout == "node,in_C,r\n0,1,0\n1,1,0\n2,0,1\n3,1,0\n"
    assert stderr == (
        "nearly convex: alpha=1/2 c=1 r=1 core=3/4 (minimizer 0 in core by convention)\n"
    )
    code, stdout, stderr = run_cli(capsys, *nearly, "--c", "0")
    assert code == 1
    assert stdout == "node,in_C,r\n0,1,0\n1,1,0\n2,0,\n3,1,0\n"
    assert stderr == "not nearly convex: 1 nodes cannot reach the core\n"


def test_certify_reports_tied_minima(tmp_path, capsys):
    # path 0-1-2 valued 0,1,0: certification targets node 0, and the other
    # minimum, node 2, has no lower neighbour to step to
    out = tmp_path / "path.txt"
    save_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), out)
    (tmp_path / "path.txt.values").write_text("0,0\n1,1\n2,0\n")
    code, stdout, stderr = run_cli(capsys, "certify", "--graph", str(out), "--m", "1")
    assert code == 1
    # node 2, uncertifiable, gets an empty field as near mode writes
    assert stdout == "node,M\n0,0.0\n1,1.0\n2,\n"
    assert stderr == "not certifiable at m=1: nodes [2]; tied minima [0, 2]\n"


def test_certify_reads_the_value_file_once_and_exactly(tmp_path, capsys):
    # certify parses <graph>.values once, as Fractions: "1/3" is no float
    # literal, and steps 4/9 then 1/3 certify exactly up to m = 1/3
    out = tmp_path / "path.txt"
    save_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), out)
    values = tmp_path / "path.txt.values"
    values.write_text("0,0\n1,1/3\n2,7/9\n")
    code, stdout, stderr = run_cli(capsys, "certify", "--graph", str(out), "--m", "1/3")
    assert code == 0, stderr
    assert stdout == "node,M\n0,0.0\n1,0.3333333333333333\n2,0.4444444444444444\n"
    above = f"{10**30 + 3}/{3 * 10**30}"  # 1/3 + 1e-30
    code, _, stderr = run_cli(capsys, "certify", "--graph", str(out), "--m", above)
    assert code == 1 and "not certifiable" in stderr
    values.write_text("0,0\n1,one third\n2,7/9\n")
    code, _, stderr = run_cli(capsys, "certify", "--graph", str(out), "--m", "1/3")
    assert code == 1
    assert f"{values}:2:" in stderr


def test_certify_pins_mixed_tokens_at_the_knife_edges(tmp_path, capsys):
    # decimals over 10**0..10**4 mixed with 1/3; node 4's step to node 2
    # holds up to m = 1601/199, and its core membership up to alpha = 14/15
    out = tmp_path / "mixed.txt"
    save_graph(Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]), out)
    (tmp_path / "mixed.txt.values").write_text("0,-0\n1,2.5e-3\n2,.5\n3,1/3\n4,5.\n5,1e+20\n")
    above_m = f"{1601 * 10**30 + 1}/{199 * 10**30}"
    above_alpha = f"{14 * 10**30 + 1}/{15 * 10**30}"
    cases = [
        (["--m", "1601/199"], 0,
         "node,M\n0,0.0\n1,0.0025\n2,0.4975\n3,0.3308333333333333\n4,4.5\n5,1e+20\n",
         "strongly convex at m=1601/199 (minimizer 0)\n"),
        (["--m", above_m], 0,
         "node,M\n0,0.0\n1,0.0025\n2,0.4975\n3,0.3308333333333333\n4,4.666666666666667\n"
         "5,1e+20\n",
         f"strongly convex at m={above_m} (minimizer 0)\n"),
        (["--negate", "--m", "1601/199"], 1,
         "node,M\n0,\n1,\n2,\n3,\n4,1e+20\n5,0.0\n",
         "not certifiable at m=1601/199: nodes [0, 1, 2, 3]\n"),
        (["--nearly", "--alpha", "14/15", "--c", "1/7"], 0,
         "node,in_C,r\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n4,1,0\n5,1,0\n",
         "nearly convex: alpha=14/15 c=1/7 r=0 core=6/6 (minimizer 0 in core by convention)\n"),
        (["--nearly", "--alpha", above_alpha, "--c", "1/7"], 0,
         "node,in_C,r\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n4,0,1\n5,1,0\n",
         "nearly convex: alpha=4666666666666666666666666666667/5000000000000000000000000000000 "
         "c=1/7 r=1 core=5/6 (minimizer 0 in core by convention)\n"),
        (["--negate", "--nearly", "--alpha", "1/2", "--c", "1/7"], 0,
         "node,in_C,r\n0,0,3\n1,0,2\n2,0,1\n3,0,1\n4,1,0\n5,1,0\n",
         "nearly convex: alpha=1/2 c=1/7 r=3 core=2/6 (minimizer 5 in core by convention)\n"),
    ]
    for argv, code, stdout, stderr in cases:
        assert run_cli(capsys, "certify", "--graph", str(out), *argv) == (code, stdout, stderr)


@pytest.mark.parametrize(
    "token, message",
    [
        ("nan", "Invalid literal for Fraction: 'nan'"),
        ("0x1", "Invalid literal for Fraction: '0x1'"),
        ("1/0", "Fraction(1, 0)"),
    ],
)
def test_certify_names_the_line_of_a_bad_value(tmp_path, capsys, token, message):
    out = tmp_path / "path.txt"
    save_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), out)
    values = tmp_path / "path.txt.values"
    values.write_text(f"0,0\n1,{token}\n2,1\n")
    code, stdout, stderr = run_cli(capsys, "certify", "--graph", str(out), "--m", "1")
    assert (code, stdout, stderr) == (1, "", f"error: {values}:2: {message}\n")


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["--m", "1e-5000"], "--m", "1e-5000"),
        (["--nearly", "--alpha", "1e-20000", "--c", "0.1"], "--alpha", "1e-20000"),
        (["--nearly", "--alpha", "0.3", "--c", "1e-20000"], "--c", "1e-20000"),
        (["--nearly", "--alpha", "0.3", "--c", "1e-2000"], "--c", "1e-2000"),
    ],
)
def test_certify_options_follow_the_value_reader_range_rule(tmp_path, capsys, argv, option, value):
    # such a token used to run the certificate and then fail formatting the
    # summary, or put every value over a 10**2000 denominator
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "2", "--target-degree", "8", "--seed", "3", "--out", str(out))
    with pytest.raises(SystemExit) as exc:
        cli(["certify", "--graph", str(out), "--negate", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: " in captured.err
    assert f"nonzero value {value} is below the least float" in captured.err


def test_certify_needs_parameters(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "2", "--target-degree", "8", "--seed", "3", "--out", str(out))
    code, _, err = run_cli(capsys, "certify", "--graph", str(out))
    assert code == 2
    assert "usage error" in err
    code, _, err = run_cli(capsys, "certify", "--graph", str(out), "--nearly")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--nearly", "--m", "1/1000", "--alpha", "0.3", "--c", "0.1"], "--nearly takes no --m"),
        (["--m", "1/1000", "--alpha", "0.3", "--c", "0.1"], "--alpha needs --nearly"),
        (["--m", "1/1000", "--c", "1e-300"], "--c needs --nearly"),
        (["--nearly"], "--nearly needs --alpha and --c"),
        ([], "strong certification needs --m"),
    ],
    ids=["nearly-m", "strong-alpha", "strong-c", "nearly-alone", "strong-alone"],
)
def test_certify_refuses_the_other_modes_options_before_reading_a_file(tmp_path, capsys, argv, message):
    # a strong run with --alpha and --c used to ignore them, with --c a
    # value that joined the common denominator; the graph file does not
    # exist, so each refusal must come before any file is read
    missing = tmp_path / "missing.txt"
    code, stdout, stderr = run_cli(capsys, "certify", "--graph", str(missing), *argv)
    assert (code, stdout, stderr) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "0"], "m must be finite and > 0, got 0"),
        (["--nearly", "--alpha", "0", "--c", "1/10"], "alpha must be finite and > 0, got 0"),
        (["--nearly", "--alpha", "3/10", "--c", "-1"], "c must be finite and >= 0, got -1"),
    ],
    ids=["m", "alpha", "c"],
)
def test_certify_checks_its_options_before_reading_a_file(tmp_path, capsys, argv, message):
    # these used to be refused only after both files were read, so a missing
    # graph hid them, and --c was reported times the values' common denominator
    missing = tmp_path / "missing.txt"
    code, stdout, stderr = run_cli(capsys, "certify", "--graph", str(missing), *argv)
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")


def test_run_emits_rows_and_aggregate(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "3", "--target-degree", "8", "--seed", "4", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys, "run", "--algo", "sr", "--graph", str(out),
        "--budget", "20,60", "--trials", "5", "--seed", "9",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "trial,algo,budget,node,gap,samples,time_ms"
    assert len(lines) == 11
    code, stdout, _ = run_cli(
        capsys, "run", "--algo", "ed", "--graph", str(out),
        "--budget", "100", "--trials", "4", "--seed", "9", "--aggregate",
    )
    assert code == 0
    assert stdout.splitlines()[0].startswith("algo,budget,trials,")
    assert len(stdout.splitlines()) == 2


def test_run_sa_needs_gamma(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "2", "--target-degree", "8", "--seed", "5", "--out", str(out))
    code, _, err = run_cli(
        capsys, "run", "--algo", "sa", "--graph", str(out),
        "--budget", "100", "--trials", "2", "--seed", "1",
    )
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize(
    "extra",
    [
        ("--algo", "sr", "--gamma", "5"),
        ("--algo", "sr", "--path-len", "0"),
        ("--algo", "ed", "--steps", "10"),
        ("--algo", "ed", "--samples-per-eval", "3"),
        ("--algo", "sa", "--gamma", "5", "--restarts", "auto"),
    ],
    ids=["sr-gamma", "sr-path-len", "ed-steps", "ed-samples-per-eval", "sa-restarts"],
)
def test_run_refuses_options_the_algorithm_does_not_take(tmp_path, capsys, extra):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "2", "--target-degree", "8", "--seed", "5", "--out", str(out))
    code, stdout, err = run_cli(
        capsys, "run", "--graph", str(out), "--budget", "100", "--trials", "2", "--seed", "1", *extra
    )
    assert code == 1
    assert err.startswith("error: ") and "takes no parameter" in err
    assert stdout == ""


@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_run_says_what_restarts_takes(capsys, value):
    # the message used to name the private parser, "invalid _restarts value"
    with pytest.raises(SystemExit) as exc:
        cli(["run", "--algo", "ed", "--graph", "g.txt", "--budget", "100", "--seed", "1",
             "--restarts", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(
        f"argument --restarts: expected 'auto' or a whole number, got {value!r}\n"
    )


def test_run_rejects_non_finite_settings(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "2", "--target-degree", "8", "--seed", "5", "--out", str(out))
    for extra in (
        ("--algo", "sr", "--noise", "gaussian", "--noise-scale", "nan"),
        ("--algo", "sa", "--gamma", "inf"),
    ):
        code, stdout, err = run_cli(
            capsys, "run", "--graph", str(out), "--budget", "100", "--trials", "2",
            "--seed", "1", *extra,
        )
        assert code == 1
        assert err.startswith("error: ") and "must be finite" in err
        assert stdout == ""


def test_run_rejects_malformed_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a graph\n")
    code, _, err = run_cli(
        capsys, "run", "--algo", "sr", "--graph", str(bad),
        "--budget", "10", "--trials", "1", "--seed", "1",
    )
    assert code == 1
    assert "error" in err


def test_run_needs_the_value_file_beside_the_graph(tmp_path, capsys):
    out = tmp_path / "plain.txt"
    save_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), out)
    code, stdout, err = run_cli(
        capsys, "run", "--algo", "sr", "--graph", str(out),
        "--budget", "10", "--trials", "1", "--seed", "1",
    )
    assert code == 2
    assert err == f"usage error: no value file {out}.values\n"
    assert stdout == ""


def write_cloud(tmp_path, n=80, with_labels=True):
    rng = np.random.default_rng(0)
    coords = np.vstack([
        rng.normal(-2.0, 1.0, size=(n // 2, 3)),
        rng.normal(2.0, 1.0, size=(n // 2, 3)),
    ])
    labels = tuple(["a"] * (n // 2) + ["b"] * (n // 2))
    ps = PointSet(coords, labels=labels if with_labels else None)
    ppath = tmp_path / "pts.csv"
    save_points(ps, ppath)  # labels go to the sibling pts.csv.labels
    qs = PointSet(rng.normal(0.0, 2.0, size=(6, 3)))
    qpath = tmp_path / "qs.csv"
    save_points(qs, qpath)
    return ppath, qpath


def test_nn_exact_and_sgnn(tmp_path, capsys):
    ppath, qpath = write_cloud(tmp_path)
    code, stdout, _ = run_cli(
        capsys, "nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "exact", "--K", "5",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "query_id,algo,predicted_label,recall_at_K,distance_evals,time_ms"
    assert len(lines) == 7
    assert all(row.split(",")[2] in ("a", "b") for row in lines[1:])
    assert all(row.split(",")[3] == "1.0" for row in lines[1:])
    code, stdout, _ = run_cli(
        capsys, "nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "sgnn", "--N", "8",
        "--I", "6", "--J", "6", "--K", "5", "--seed", "3",
    )
    assert code == 0
    rows = [r.split(",") for r in stdout.splitlines()[1:]]
    assert all(r[2] in ("a", "b") for r in rows)
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)
    assert all(int(r[4]) <= 80 for r in rows)


def test_nn_time_ms_gives_exact_rows_a_share_of_the_one_scan(tmp_path, capsys, monkeypatch):
    # a clock that moves only inside the searches: the exact scan of all six
    # queries takes 3 s and each SGNN query 0.25 s
    now = [0.0]

    def advancing(fn, seconds):
        def run(*args, **kwargs):
            now[0] += seconds
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(graphopt.cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(graphopt.cli, "exact_nn_all", advancing(graphopt.cli.exact_nn_all, 3.0))
    monkeypatch.setattr(graphopt.cli, "sgnn_query", advancing(graphopt.cli.sgnn_query, 0.25))
    ppath, qpath = write_cloud(tmp_path)
    base = ("nn", "--points", str(ppath), "--queries", str(qpath), "--K", "5")
    _, exact, _ = run_cli(capsys, *base, "--algo", "exact")
    assert [row.split(",")[-1] for row in exact.splitlines()[1:]] == ["500.000"] * 6
    _, sgnn, _ = run_cli(capsys, *base, "--algo", "sgnn", "--N", "8", "--seed", "3")
    assert [row.split(",")[-1] for row in sgnn.splitlines()[1:]] == ["250.000"] * 6


def test_nn_refuses_queries_of_another_dimension(tmp_path, capsys):
    ppath, _ = write_cloud(tmp_path)
    qpath = tmp_path / "flat.csv"
    save_points(PointSet(np.zeros((2, 2))), qpath)
    code, stdout, err = run_cli(
        capsys, "nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "exact"
    )
    assert code == 2
    assert err == "usage error: queries and points must share a dimension\n"
    assert stdout == ""


def test_nn_sgnn_requires_seed(tmp_path, capsys):
    ppath, qpath = write_cloud(tmp_path, with_labels=False)
    code, _, err = run_cli(
        capsys, "nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "sgnn"
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "seed, code, err",
    [
        ((), 2, "usage error: --algo sgnn needs --seed\n"),
        (("--seed", "-1"), 1, "error: seed must be a whole number >= 0, got -1\n"),
    ],
    ids=["missing", "negative"],
)
def test_nn_checks_the_seed_before_it_reads_a_file(tmp_path, capsys, seed, code, err):
    missing = str(tmp_path / "missing.csv")
    argv = ("nn", "--points", missing, "--queries", missing, "--algo", "sgnn", *seed)
    assert run_cli(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize(
    "option, message",
    [
        (("--T", "-1"), "T must be a whole number >= 0, got -1"),
        (("--J", "-1"), "J must be a whole number >= 0, got -1"),
        (("--I", "0"), "I must be a whole number >= 1, got 0"),
    ],
    ids=["T", "J", "I"],
)
def test_nn_checks_the_sgnn_options_before_it_reads_a_file(tmp_path, capsys, option, message):
    missing = str(tmp_path / "missing.csv")
    argv = ("nn", "--points", missing, "--queries", missing, "--algo", "sgnn", "--seed", "0", *option)
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    # the exact scan takes none of the three, so it ignores them as before
    ppath, qpath = write_cloud(tmp_path)
    argv = ("nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "exact", "--K", "5", *option)
    assert run_cli(capsys, *argv)[0] == 0


def test_nn_checks_k_before_the_knn_graph_and_the_exact_scan(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before --K was checked")

    monkeypatch.setattr(graphopt.cli, "make_knn_graph", never)
    monkeypatch.setattr(graphopt.cli, "exact_nn_all", never)
    ppath, qpath = write_cloud(tmp_path)
    argv = ("nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "sgnn", "--seed", "0", "--K", "0")
    assert run_cli(capsys, *argv) == (1, "", "error: K must be in 1..80\n")


def test_nn_quotes_a_label_that_holds_a_comma_or_a_quote(tmp_path, capsys):
    # each query sits on one point of its own label, so K = 1 predicts that label
    labels = ("x,y", 'say "hi"', "plain")
    ppath, qpath = tmp_path / "pts.csv", tmp_path / "qs.csv"
    save_points(PointSet(np.eye(3), labels), ppath)
    save_points(PointSet(np.eye(3)), qpath)
    code, stdout, _ = run_cli(
        capsys, "nn", "--points", str(ppath), "--queries", str(qpath), "--algo", "exact", "--K", "1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert [r["predicted_label"] for r in rows] == list(labels)
    assert [r["recall_at_K"] for r in rows] == ["1.0"] * 3
    lines = stdout.split("\n")
    assert lines[1].startswith('0,exact,"x,y",1.0,')
    assert lines[2].startswith('1,exact,"say ""hi""",1.0,')
    assert lines[3].startswith("2,exact,plain,1.0,")


def test_nn_is_seed_deterministic(tmp_path, capsys):
    ppath, qpath = write_cloud(tmp_path)
    args = (
        "nn", "--points", str(ppath), "--queries", str(qpath),
        "--algo", "sgnn", "--N", "8", "--K", "5", "--seed", "21",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    strip = lambda text: ["," .join(r.split(",")[:-1]) for r in text.splitlines()]
    assert strip(out1) == strip(out2)


def test_gen_knn_builds_directed_graph(tmp_path, capsys):
    ppath, _ = write_cloud(tmp_path, with_labels=False)
    out = tmp_path / "knn.txt"
    code, _, _ = run_cli(capsys, "gen-knn", "--points", str(ppath), "--N", "4", "--out", str(out))
    assert code == 0
    g, _ = load_graph(out)
    assert g.directed
    assert all(g.degree(i) == 4 for i in range(g.n))


def test_bound_commands(capsys):
    code, out, _ = run_cli(capsys, "bound", "sr", "--K", "4", "--H", "50", "--B", "200")
    assert code == 0
    assert out.strip() == "0.504579"
    code, out, _ = run_cli(capsys, "bound", "sr-loose", "--n", "10", "--delta1", "0.3", "--B", "500")
    assert out.strip() == "1"
    code, out, _ = run_cli(
        capsys, "bound", "ed", "--d", "8", "--schedule", "500,500", "--gaps", "0.5,0.5"
    )
    assert code == 0
    assert float(out.strip()) < 1.0
    code, out, _ = run_cli(
        capsys, "bound", "sa-convex", "--alpha", "0.3", "--d", "9", "--eps", "0.001", "--gap", "0.8"
    )
    assert code == 0
    assert "t_min=97" in out
    code, out, _ = run_cli(capsys, "bound", "sa-samples", "--r", "2", "--gamma", "10", "--R", "0.5")
    assert out.strip() == "100"
    code, out, _ = run_cli(
        capsys, "bound", "sa-nearly", "--alpha", "0.5", "--c", "0.01", "--r", "1", "--d", "2", "--F", "1"
    )
    assert code == 0
    assert out == "gamma=100\nbeta=0.9540150699\nt_min=84\nfinal_bound=0.652388\n"


def test_bound_commands_at_extreme_inputs(capsys):
    # each of these used to end in a traceback from a float overflow
    argv = ("bound", "ed", "--d", "3", "--schedule", "1", "--gaps", "1000")
    assert run_cli(capsys, *argv) == (0, "1\n", "")
    argv = ("bound", "sr-loose", "--n", "10", "--delta1", "1e200", "--B", "5000")
    assert run_cli(capsys, *argv) == (0, "0\n", "")
    argv = ("bound", "sa-samples", "--r", "2", "--gamma", "1e200", "--R", "1")
    assert run_cli(capsys, *argv) == (
        1, "", "error: gamma=1e+200 and R=1.0 put 2 r gamma^2 R^2 beyond a float\n"
    )


@pytest.mark.parametrize("r, d", [(11, 9), (400, 9), (40, 1)])
def test_bound_sa_nearly_refuses_a_vacuous_bound(capsys, r, d):
    # beta rounds to 1 here (at r=400, d=9 the power itself is past a float)
    argv = ("--alpha", "0.3", "--c", "0.05", "--r", str(r), "--d", str(d), "--F", "3000")
    code, out, err = run_cli(capsys, "bound", "sa-nearly", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: r={r} and d={d} make the bound vacuous: beta rounds to 1\n"


def test_bound_ed_length_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "bound", "ed", "--d", "8", "--schedule", "500", "--gaps", "0.5,0.5"
    )
    assert code == 2
    assert "usage error" in err


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "bound.txt"
    code, stdout, _ = run_cli(
        capsys, "bound", "sr", "--K", "4", "--H", "50", "--B", "200", "--out", str(dest)
    )
    assert code == 0
    assert stdout == ""
    assert dest.read_text().strip() == "0.504579"


@pytest.mark.parametrize(
    "argv",
    [
        ("sr", "--K", "4", "--H", "nan", "--B", "100"),
        ("sr-loose", "--n", "10", "--delta1", "inf", "--B", "100"),
        ("ed", "--d", "8", "--schedule", "500,500", "--gaps", "nan,0.1"),
        ("sa-convex", "--alpha", "0.3", "--d", "9", "--eps=-inf", "--gap", "0.8"),
        ("sa-nearly", "--alpha", "0.3", "--c", "nan", "--r", "2", "--d", "9", "--F", "1"),
        ("sa-samples", "--r", "2", "--gamma", "inf", "--R", "0.5"),
    ],
)
def test_bound_rejects_non_finite_inputs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli(["bound", *argv])
    captured = capsys.readouterr()
    assert exc.value.code != 0
    assert "must be finite" in captured.err
    assert captured.out == ""


def test_the_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    grid = tmp_path / "grid.txt"
    run_cli(capsys, "gen-grid", "--D", "2", "--target-degree", "8", "--seed", "5", "--out", str(grid))
    run = ("run", "--graph", str(grid), "--budget", "200", "--trials", "3", "--seed", "1")
    calls = [
        # sa's --gamma has a SUPPRESS default: a later sr run must not see it
        (*run, "--algo", "sa", "--gamma", "250"),
        (*run, "--algo", "sr"),
        ("certify", "--graph", str(grid), "--nearly", "--c", "1/10"),
        ("certify", "--graph", str(grid), "--nearly", "--alpha", "3/10", "--c", "1/10", "--negate"),
        ("bound", "sr", "--K", "4", "--H", "50", "--B", "200"),
        ("bound", "sa-samples", "--r", "2", "--gamma", "10", "--R", "0.5"),
    ]

    def outcomes():
        # a run row's last field is its time_ms
        return [
            (code, "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines()), err)
            for code, out, err in (run_cli(capsys, *argv) for argv in calls)
        ]

    cached = outcomes()
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0]
    monkeypatch.setattr(cli_module, "build_parser", build_parser.__wrapped__)
    assert outcomes() == cached


def test_python_m_graphopt_cli_runs_the_command(tmp_path):
    src = str(Path(graphopt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "graphopt.cli", "gen-grid", "--D", "3", "--seed", "0", "--out", "g.txt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    g, table = load_graph(tmp_path / "g.txt")
    assert g.n == 49 and table is not None
