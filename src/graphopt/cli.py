"""Command-line interface.

Subcommands: gen-grid, gen-knn, certify, run, nn, bound. Stochastic
commands require --seed; nothing is ever seeded from the clock. Results
go to stdout unless --out names a file.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import annealing, bandit, descend, nnsearch
from .convexity import certify_nearly_convex, certify_strongly_convex
from .graphs import GridSpec, load_graph, make_grid_graph, make_knn_graph, save_graph
from .harness import ExperimentConfig, gap_statistics, records_to_csv, run_trials, stats_to_csv
from .nnsearch import (
    classify_majority,
    default_rounds,
    exact_nn_all,
    load_points,
    recall_at_k,
    sgnn_query,
)
from .values import common_denominator, exact_ratio, parse_values


class UsageError(Exception):
    """Bad command usage beyond what argparse can express."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [_finite_float(tok) for tok in text.split(",") if tok]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}")


def _restarts(text: str) -> int | None:
    """'auto' (None, the 1 + budget/1000 rule) or a restart count."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a whole number, got {text!r}")


def _fraction(text: str) -> Fraction:
    """``text`` read as the value reader reads a value (``exact_ratio``): a
    nonzero value beyond the float range is refused."""
    try:
        return Fraction(*exact_ratio(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 0.2 or 2/17: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen_grid(args) -> int:
    spec = GridSpec(D=args.D, target_degree=args.target_degree, seed=args.seed)
    g, table = make_grid_graph(spec)
    save_graph(g, args.out, values=table)
    return 0


def _cmd_gen_knn(args) -> int:
    points = load_points(args.points)
    g = make_knn_graph(points, args.N)
    save_graph(g, args.out)
    return 0


def _cmd_certify(args) -> int:
    # each mode refuses the other's options, before any file is read
    if args.nearly:
        if args.m is not None:
            raise UsageError("--nearly takes no --m")
        if args.alpha is None or args.c is None:
            raise UsageError("--nearly needs --alpha and --c")
    else:
        for flag in ("alpha", "c"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} needs --nearly")
        if args.m is None:
            raise UsageError("strong certification needs --m")
    g, _ = load_graph(args.graph, with_values=False)
    # the values and --c (a value too) as integer numerators over one common
    # denominator L, so knife-edge instances certify exactly on ints; --m and
    # --alpha compare values with values and need no scaling
    c_pair = [] if args.c is None else [(args.c.numerator, args.c.denominator)]
    vals, L = common_denominator(parse_values(f"{args.graph}.values", g.n, number=exact_ratio) + c_pair)
    c = vals.pop() if c_pair else None
    if args.negate:
        vals = [-v for v in vals]
    lines = []
    if args.nearly:
        report = certify_nearly_convex(g, vals, args.alpha, c)
        lines.append("node,in_C,r\n")
        for x in range(g.n):
            if x in report.core:
                lines.append(f"{x},1,0\n")
            elif x in report.hops:
                lines.append(f"{x},0,{report.hops[x]}\n")
            else:
                lines.append(f"{x},0,\n")
        ok = report.certified
        summary = (
            f"nearly convex: alpha={args.alpha} c={args.c} r={report.r} "
            f"core={len(report.core)}/{g.n} (minimizer {report.minimizer} in core by convention)"
            if ok
            else f"not nearly convex: {len(report.infeasible)} nodes cannot reach the core"
        )
    else:
        cert = certify_strongly_convex(g, vals, args.m)
        lines.append("node,M\n")
        for x in range(g.n):
            m_x = cert.first_step.get(x)
            lines.append(f"{x},{'' if m_x is None else repr(m_x / L)}\n")
        ok = cert.certified
        summary = (
            f"strongly convex at m={args.m} (minimizer {cert.minimizer})"
            if ok
            else f"not certifiable at m={args.m}: nodes {list(cert.uncertifiable)[:10]}"
            + ("..." if len(cert.uncertifiable) > 10 else "")
        )
        if len(cert.tied_minima) > 1:
            summary += f"; tied minima {list(cert.tied_minima)}"
    _emit("".join(lines), args.out)
    print(summary, file=sys.stderr)
    return 0 if ok else 1


def _cmd_run(args) -> int:
    g, table = load_graph(args.graph)
    if table is None:
        raise UsageError(f"no value file {args.graph}.values")
    # ExperimentConfig fills in defaults and refuses options the algorithm does not take
    params = {k: getattr(args, k) for k in ("path_len", "restarts", "gamma", "s", "steps") if k in args}
    if args.algo == "sa" and "gamma" not in params:
        raise UsageError("--algo sa needs --gamma")
    cfg = ExperimentConfig(
        graph=g,
        values=table,
        algo=args.algo,
        budgets=tuple(args.budget),
        trials=args.trials,
        seed=args.seed,
        maximize=args.maximize,
        noise=args.noise,
        noise_scale=args.noise_scale,
        params=params,
    )
    records = run_trials(cfg)
    text = stats_to_csv(gap_statistics(records)) if args.aggregate else records_to_csv(records)
    _emit(text, args.out)
    return 0


def _cmd_nn(args) -> int:
    points = load_points(args.points)
    queries = load_points(args.queries)
    if queries.dim != points.dim:
        raise UsageError("queries and points must share a dimension")
    if args.algo == "sgnn" and args.seed is None:
        raise UsageError("--algo sgnn needs --seed")
    K = args.K
    lines = ["query_id,algo,predicted_label,recall_at_K,distance_evals,time_ms\n"]
    g = make_knn_graph(points, args.N) if args.algo == "sgnn" else None
    I = args.I if args.I is not None else default_rounds(points.n)
    J = args.J if args.J is not None else default_rounds(points.n)
    t0 = time.perf_counter()
    truths = exact_nn_all(points, queries.coords, K)
    # one scan serves every query, so each exact row gets an equal share of it
    exact_ms = (time.perf_counter() - t0) * 1000.0
    for qi, truth in enumerate(truths):
        if args.algo == "sgnn":
            t0 = time.perf_counter()
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([args.seed, qi])))
            result = sgnn_query(g, points, queries.coords[qi], I, J, args.T, K, rng)
            elapsed = (time.perf_counter() - t0) * 1000.0
        else:
            result, elapsed = truth, exact_ms / len(truths)
        recall = 1.0 if args.algo == "exact" else recall_at_k(result, truth, K)
        label = ""
        if points.labels is not None and result.candidates:
            label = str(classify_majority(result.candidates, points.labels))
        lines.append(
            f"{qi},{args.algo},{label},{recall!r},{result.distance_evals},{elapsed:.3f}\n"
        )
    _emit("".join(lines), args.out)
    return 0


def _g6(x: float) -> str:
    return f"{x:.6g}\n"


# Each closed-form bound: its calculator, its options as (flag, argparse
# type) in the calculator's argument order, and the formatter of its result.
_BOUNDS = {
    "sr": (bandit.sr_error_bound, (("K", int), ("H", _finite_float), ("B", int)), _g6),
    "sr-loose": (bandit.sr_bound_loose, (("n", int), ("delta1", _finite_float), ("B", int)), _g6),
    "ed": (descend.ed_error_bound, (("d", int), ("schedule", _int_list), ("gaps", _float_list)), _g6),
    "sa-convex": (
        annealing.sa_round_bound_convex,
        (("alpha", _finite_float), ("d", int), ("eps", _finite_float), ("gap", _finite_float)),
        lambda b: f"gamma={b.gamma:.6g}\nt_min={b.t_min}\n",
    ),
    "sa-nearly": (
        annealing.sa_round_bound_nearly,
        (("alpha", _finite_float), ("c", _finite_float), ("r", int), ("d", int), ("F", _finite_float)),
        lambda b: (
            f"gamma={b.gamma:.6g}\nbeta={b.beta:.10g}\n"
            f"t_min={b.t_min}\nfinal_bound={b.final_bound:.6g}\n"
        ),
    ),
    "sa-samples": (
        annealing.theory_sample_size,
        (("r", int), ("gamma", _finite_float), ("R", _finite_float)),
        "{}\n".format,
    ),
}


def _cmd_bound(args) -> int:
    calculator, options, show = _BOUNDS[args.kind]
    # a usage error (exit 2), where ed_error_bound's own check would exit 1
    if args.kind == "ed" and len(args.schedule) != len(args.gaps):
        raise UsageError("--schedule and --gaps need equal lengths")
    _emit(show(calculator(*(getattr(args, flag) for flag, _ in options))), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. ``parse_args``
    makes a fresh namespace on every call, and each command reads this
    module's names when it runs, so reuse carries nothing between calls."""
    parser = argparse.ArgumentParser(prog="graphopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="generate the synthetic grid instance")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--target-degree", type=int, default=15)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="graph file path; values go to <out>.values")
    p.set_defaults(fn=_cmd_gen_grid)

    p = sub.add_parser("gen-knn", help="build a proximity graph from points")
    p.add_argument("--points", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_knn)

    p = sub.add_parser("certify", help="check convexity certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=_fraction, help="strong-convexity modulus")
    p.add_argument("--nearly", action="store_true")
    p.add_argument("--alpha", type=_fraction)
    p.add_argument("--c", type=_fraction)
    p.add_argument("--negate", action="store_true", help="certify -f (for hill instances)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("run", help="budget-sweep trials of sr/ed/sa")
    p.add_argument("--algo", choices=("sr", "ed", "sa"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=_int_list, required=True, help="comma-separated budgets")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--maximize", action="store_true")
    p.add_argument("--noise", choices=("bernoulli", "gaussian"), default="bernoulli")
    p.add_argument("--noise-scale", type=float, default=0.5)
    unset = argparse.SUPPRESS  # an algorithm option is passed on only when given
    p.add_argument("--path-len", type=int, default=unset)
    p.add_argument("--restarts", type=_restarts, default=unset, help="'auto' (1+budget/1000) or a count")
    p.add_argument("--gamma", type=float, default=unset)
    p.add_argument("--samples-per-eval", dest="s", type=int, default=unset)
    p.add_argument("--steps", type=int, default=unset)
    p.add_argument("--aggregate", action="store_true", help="emit per-budget stats instead of rows")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("nn", help="nearest-neighbor queries over a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--algo", choices=("sgnn", "exact"), required=True)
    p.add_argument("--N", type=int, default=30)
    p.add_argument("--I", type=int)
    p.add_argument("--J", type=int)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--K", type=int, default=50)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_nn)

    p = sub.add_parser("bound", help="closed-form error/round bounds")
    bsub = p.add_subparsers(dest="kind", required=True)
    for kind, (_, options, _) in _BOUNDS.items():
        b = bsub.add_parser(kind)
        for flag, type_ in options:
            b.add_argument(f"--{flag}", type=type_, required=True)
        b.add_argument("--out")
        b.set_defaults(fn=_cmd_bound)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
