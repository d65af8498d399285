"""Command-line interface.

Subcommands: gen-grid, gen-knn, certify, run, nn, bound. Stochastic
commands require --seed; nothing is ever seeded from the clock. Results
go to stdout unless --out names a file.
"""

from __future__ import annotations

import argparse
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
    return None if text == "auto" else int(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 0.2 or 2/17: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(graph_path: str, values_path: str | None):
    g, table = load_graph(graph_path, values_path)
    if table is None:
        raise UsageError(f"no value table found for {graph_path}; pass --values")
    return g, table


def _cmd_gen_grid(args) -> int:
    spec = GridSpec(D=args.D, target_degree=args.target_degree, seed=args.seed)
    g, table = make_grid_graph(spec)
    save_graph(g, args.out, values=table, values_path=args.values)
    return 0


def _cmd_gen_knn(args) -> int:
    points = load_points(args.points)
    g = make_knn_graph(points, args.N)
    save_graph(g, args.out)
    return 0


def _cmd_certify(args) -> int:
    g, _ = load_graph(args.graph, with_values=False)
    values_path = args.values if args.values else f"{args.graph}.values"
    # integer numerators over the common denominator L, so knife-edge
    # instances certify exactly; --m and --alpha compare values with values
    # and need no scaling, --c is a value and is scaled by L
    vals, L = common_denominator(parse_values(values_path, g.n, number=exact_ratio))
    if args.negate:
        vals = [-v for v in vals]
    lines = []
    if args.nearly:
        if args.alpha is None or args.c is None:
            raise UsageError("--nearly needs --alpha and --c")
        report = certify_nearly_convex(g, vals, args.alpha, args.c * L)
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
        if args.m is None:
            raise UsageError("strong certification needs --m")
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
    g, table = _load_instance(args.graph, args.values)
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
    points = load_points(args.points, args.labels)
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


def _cmd_bound(args) -> int:
    kind = args.kind
    if kind == "sr":
        out = f"{bandit.sr_error_bound(args.K, args.H, args.B):.6g}\n"
    elif kind == "sr-loose":
        out = f"{bandit.sr_bound_loose(args.n, args.delta1, args.B):.6g}\n"
    elif kind == "ed":
        if len(args.schedule) != len(args.gaps):
            raise UsageError("--schedule and --gaps need equal lengths")
        out = f"{descend.ed_error_bound(args.d, args.schedule, args.gaps):.6g}\n"
    elif kind == "sa-convex":
        b = annealing.sa_round_bound_convex(args.alpha, args.d, args.eps, args.gap)
        out = f"gamma={b.gamma:.6g}\nt_min={b.t_min}\n"
    elif kind == "sa-nearly":
        b = annealing.sa_round_bound_nearly(args.alpha, args.c, args.r, args.d, args.F)
        out = (
            f"gamma={b.gamma:.6g}\nbeta={b.beta:.10g}\n"
            f"t_min={b.t_min}\nfinal_bound={b.final_bound:.6g}\n"
        )
    else:
        out = f"{annealing.theory_sample_size(args.r, args.gamma, args.R)}\n"
    _emit(out, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="generate the synthetic grid instance")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--target-degree", type=int, default=15)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="graph file path")
    p.add_argument("--values", help="value file path (default: <out>.values)")
    p.set_defaults(fn=_cmd_gen_grid)

    p = sub.add_parser("gen-knn", help="build a proximity graph from points")
    p.add_argument("--points", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_knn)

    p = sub.add_parser("certify", help="check convexity certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--values", help="value file (default: <graph>.values)")
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
    p.add_argument("--values")
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
    p.add_argument("--labels")
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

    b = bsub.add_parser("sr")
    b.add_argument("--K", type=int, required=True)
    b.add_argument("--H", type=_finite_float, required=True)
    b.add_argument("--B", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bound)

    b = bsub.add_parser("sr-loose")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--delta1", type=_finite_float, required=True)
    b.add_argument("--B", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bound)

    b = bsub.add_parser("ed")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--schedule", type=_int_list, required=True)
    b.add_argument("--gaps", type=_float_list, required=True)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bound)

    b = bsub.add_parser("sa-convex")
    b.add_argument("--alpha", type=_finite_float, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--eps", type=_finite_float, required=True)
    b.add_argument("--gap", type=_finite_float, required=True)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bound)

    b = bsub.add_parser("sa-nearly")
    b.add_argument("--alpha", type=_finite_float, required=True)
    b.add_argument("--c", type=_finite_float, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--F", type=_finite_float, required=True)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bound)

    b = bsub.add_parser("sa-samples")
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--gamma", type=_finite_float, required=True)
    b.add_argument("--R", type=_finite_float, required=True)
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
