"""Refusals that no other test reaches, one row each: the call, and the
message its ValueError must carry."""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from graphopt import (
    Graph,
    GridSpec,
    NoisyOracle,
    Path,
    PointSet,
    SAConfig,
    ValueTable,
    certify_nearly_convex,
    certify_strongly_convex,
    classify_majority,
    exact_nn,
    exact_nn_all,
    exact_ratio,
    gap_statistics,
    parse_values,
    sa_step,
    sa_transition_probs,
)
from graphopt.cli import cli
from graphopt.values import _bulk_exact, _finite

# node 2 has no neighbours
LONELY = Graph.from_edges(3, [(0, 1)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
POINTS = PointSet(np.arange(6.0).reshape(3, 2), labels=("a", "b", "a"))


def parse_error(*argv):
    """Run a command line that argparse refuses, and raise what it prints
    as a ValueError; its exit status must be 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli(list(argv))
    assert exc.value.code == 2
    raise ValueError(err.getvalue())


def short_value_file(tmp_path):
    """A file in the form save_values writes, one line short of n = 3: the
    bulk pass declines it, and the line walk names the count."""
    path = tmp_path / "short.values"
    path.write_bytes(b"0,1\n1,0.5\n")
    assert _bulk_exact(path.read_bytes(), 2) is not None
    assert _bulk_exact(path.read_bytes(), 3) is None
    parse_values(path, 3, number=exact_ratio)


REFUSALS = {
    "sa_step-lonely": (
        lambda _: sa_step(
            LONELY, NoisyOracle(ValueTable(np.zeros(3))), 2, SAConfig(gamma=1.0), np.random.default_rng(0)
        ),
        "node 2 has no neighbors",
    ),
    "sa_transition_probs-lonely": (
        lambda _: sa_transition_probs(LONELY, [0.0, 0.5, 1.0], 2, 1.0),
        "node 2 has no neighbors",
    ),
    "certify_strongly_convex-size": (
        lambda _: certify_strongly_convex(PATH3, [0, 1], 1),
        "value table size does not match graph",
    ),
    "certify_nearly_convex-size": (
        lambda _: certify_nearly_convex(PATH3, [0, 1, 2, 3], 1, 0),
        "value table size does not match graph",
    ),
    "witness_path-uncertified": (
        lambda _: certify_strongly_convex(PATH3, [0, 1, 0], 1).witness_path(2),
        "node 2 carries no certificate",
    ),
    "Graph-adjacency-length": (
        lambda _: Graph(3, False, ((1,), (0,))),
        "adjacency length must equal n",
    ),
    "Path-empty": (lambda _: Path(PATH3, ()), "path must contain at least one node"),
    "GridSpec-degree": (
        lambda _: GridSpec(D=1, target_degree=9),
        "target_degree must be < number of nodes",
    ),
    "gap_statistics-empty": (lambda _: gap_statistics([]), "no records to aggregate"),
    "PointSet-1d": (lambda _: PointSet(np.zeros(3)), "coords must be a non-empty (n, dim) array"),
    "PointSet-empty": (
        lambda _: PointSet(np.zeros((0, 2))),
        "coords must be a non-empty (n, dim) array",
    ),
    "PointSet-nan": (lambda _: PointSet([[0.0, math.nan]]), "coordinates must be finite"),
    "exact_nn-dimension": (lambda _: exact_nn(POINTS, (0.0, 0.0, 0.0), 1), "query must have dimension 2"),
    "exact_nn_all-K0": (lambda _: exact_nn_all(POINTS, [[0.0, 0.0]], 0), "K must be in 1..3"),
    "exact_nn_all-K4": (lambda _: exact_nn_all(POINTS, [[0.0, 0.0]], 4), "K must be in 1..3"),
    "exact_nn_all-nan": (
        lambda _: exact_nn_all(POINTS, [[0.0, math.inf]], 1),
        "query coordinates must be finite",
    ),
    "classify_majority-label": (
        lambda _: classify_majority([0, 5], POINTS.labels),
        "label missing for candidate 5: 3 labels",
    ),
    "_finite-str": (lambda _: _finite("x", "abc"), "x must be finite, got abc"),
    "_finite-None": (lambda _: _finite("x", None), "x must be finite, got None"),
    "_bulk_exact-line-count": (short_value_file, "short.values: expected 3 values, found 2"),
    "run-budget": (
        lambda _: parse_error("run", "--algo", "sr", "--graph", "g.txt", "--budget", "1,x", "--seed", "1"),
        "argument --budget: expected comma-separated integers: invalid literal for int() with base 10: 'x'",
    ),
    "bound-sr-H": (
        lambda _: parse_error("bound", "sr", "--K", "4", "--H", "abc", "--B", "200"),
        "argument --H: invalid float value: 'abc'",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_its_fault(tmp_path, case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
