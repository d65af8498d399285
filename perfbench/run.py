"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-sweep [--seed 0] [--seconds 20] [--trace 0]

Run from the repository root. The graphopt sources are imported from
``src/`` beside this directory; without them the command fails without
printing a result.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: set-up
is repeated and its median reported, a few operations warm up, then
operations run in a closed loop for --seconds. Times are scaled to the
nominal speed of the reference loops in speedref.py, which cancels most of
a shared host's speed swings; the raw times are kept in the record.

--trace 1 gives the per-layer metrics. It repeats a fixed pass (set-up, the
workload's first ``trace_ops`` operations and the scoring) in pairs, one
pass untraced and one traced, alternating which goes first, until
--seconds have passed. Times are medians over passes; counts must repeat
exactly across passes. trace.overhead_frac is the traced pass's median wall
time over the untraced one's, minus one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full record (provenance, checks, every derived number) goes to
perfbench/out/, with the last traced pass's spans in trace mode. A failed
check prints the result with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0
MAX_ACCURACY_DELTA = 0.03  # criterion 7


def cap_threads() -> int:
    """Keep BLAS/OpenMP pools within the CPUs this process may use; must run
    before numpy is imported (the bundled OpenBLAS allows 64 threads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def provenance(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "graphopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_rev": git_revision(),
        "src_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def git_revision() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside
    a repository (the benchmark may run in a plain checkout)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(w, i, state, timer):
    """One guarded operation; a raise or a failed per-op check counts as a
    failed operation and the loop goes on."""
    state["attempted"] += 1
    try:
        result = w.op(i, timer)
    except Exception:  # the benchmark must keep measuring and report it
        state["failed"] += 1
        if state["failed"] == 1:
            traceback.print_exc()
        return None
    problem = w.op_problem(result)
    if problem is not None:
        state["failed"] += 1
        state["problems"].append(f"op {i}: {problem}")
        return None
    return result


def score(w, results, state):
    if any(r is None for r in results[: w.check_ops]):
        state["problems"].append("an operation the checks need failed")
        return {}, {}
    return w.score(results)


def check_facts(name, seed, facts, reference, problems):
    expected = reference.get(name, {}) if seed == DEFAULT_SEED else {}
    for key, value in facts.items():
        if key.endswith("_digest") and key in expected and value != expected[key]:
            problems.append(f"{key} {value[:12]} differs from the seed-{seed} reference")
        if key == "accuracy_delta" and value > MAX_ACCURACY_DELTA:
            problems.append(f"accuracy delta {value} > {MAX_ACCURACY_DELTA}")
        if key == "shape_ok" and not value:
            problems.append("generated files have the wrong shape")
    if seed == DEFAULT_SEED and set(expected) - set(facts):
        problems.append(f"missing facts {sorted(set(expected) - set(facts))}")


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure_end_to_end(w, seconds, state, speedref):
    """Closed-loop timing. Every time is scaled to the nominal speed of the
    speed reference; the raw figures go to the record's "extra"."""
    timer = speedref.ScaledTimer(w.setup_loops)
    setup_raw = []
    while len(setup_raw) < 5 or (sum(setup_raw) < 2.0 and len(setup_raw) < 50):
        timer.op = len(setup_raw)
        t0 = perf_counter()
        w.setup(timer)
        setup_raw.append(perf_counter() - t0)
        timer.flush()
    setup = [timer.scaled[k] for k in range(len(setup_raw))]
    reference_samples = timer.samples

    timer = speedref.ScaledTimer(w.op_loops)
    for i in range(w.warmup_ops):
        timer.op = ("warmup", i)
        run_op(w, i, state, timer)

    # Only the results the checks need are kept, so the heap (and with it
    # the garbage collector's work) does not grow with the run.
    results, raw = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(raw) < 2:
        timer.op = len(raw)
        t0 = perf_counter()
        result = run_op(w, len(raw), state, timer)
        raw.append(perf_counter() - t0)
        if len(results) < w.check_ops:
            results.append(result)
    timer.flush()
    scaled = [timer.scaled.get(i, 0.0) for i in range(len(raw))]
    timer.op = "check"
    while len(results) < w.check_ops:  # untimed, only for the checks
        results.append(run_op(w, len(results), state, timer))
    facts, _ = score(w, results, state)
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_ms.p50": percentile(scaled, 50) * 1e3,
        "op_ms.p90": percentile(scaled, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "timed_ops": len(raw),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_ms.p50": percentile(raw, 50) * 1e3,
        "raw_op_ms.p90": percentile(raw, 90) * 1e3,
        "raw_setup_s": statistics.median(setup_raw),
        "setup_runs": len(setup_raw),
        "reference_samples": reference_samples + timer.samples,
    }
    return metrics, facts, extra


def is_count(key: str) -> bool:
    return not key.endswith("_s")


def measure_layers(w, seconds, state, tracing, speedref):
    stopwatch = speedref.Stopwatch()

    def one_pass(tracer=None):
        op_tag = (lambda tag: setattr(tracer, "op", tag)) if tracer else (lambda tag: None)
        t0 = perf_counter()
        op_tag("setup")
        w.setup(stopwatch)
        results = []
        for i in range(w.trace_ops):
            op_tag(i)
            results.append(run_op(w, i, state, stopwatch))
        op_tag("score")
        facts, quality = score(w, results, state)
        return perf_counter() - t0, results, facts, quality

    one_pass()  # warm-up

    walls = {False: [], True: []}
    summaries, qualities, facts, parts, tracer = [], [], {}, [], None
    start = perf_counter()
    pair = 0
    while pair < 2 or perf_counter() - start < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer = tracing.Tracer()
                with tracer.installed():
                    wall, results, facts, quality = one_pass(tracer)
                summaries.append(tracer.summary())
                qualities.append(quality)
            else:
                wall, results, facts, _ = one_pass()
                parts.append([p for r in results if isinstance(r, list) for p in r])
            walls[traced].append(wall)
        pair += 1

    keys = set().union(*summaries)
    layer = {}
    for key in keys:
        values = [s[key] for s in summaries]
        if is_count(key) and len(set(values)) > 1:
            state["problems"].append(f"count {key} differs across traced passes: {values}")
        layer[key] = values[0] if is_count(key) else statistics.median(values)
    if any(q != qualities[0] for q in qualities):
        state["problems"].append("quality figures differ across traced passes")
    layer.update(qualities[0])

    def ratio(num, den):
        return layer.get(num, 0) / layer[den] if layer.get(den) else 0.0

    layer["bandit.arms_per_call"] = ratio("bandit.arms", "bandit.successive_reject.calls")
    layer["annealing.accept_ratio"] = ratio("annealing.sa_step.accepts", "annealing.sa_step.calls")
    misses = ratio("nnsearch.distance_evals", "nnsearch.cache_evaluate.calls")
    layer["nnsearch.cache_hit_ratio"] = 1.0 - misses if misses else 0.0
    for kind in {p.kind for ps in parts for p in ps}:
        units = sum(p.units for ps in parts for p in ps if p.kind == kind)
        busy = sum(p.seconds for ps in parts for p in ps if p.kind == kind)
        layer[f"trials_per_s.{kind}"] = units / busy
        layer[f"{kind}_s"] = statistics.median(
            sum(p.seconds for p in ps if p.kind == kind) / w.trace_ops for ps in parts
        )
    layer["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    extra = {"passes": len(walls[True]), "untraced_s": walls[False], "traced_s": walls[True]}
    return layer, tracer, facts, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphopt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "graphopt", "__init__.py")):
        print(f"error: no graphopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import graphopt

    if os.path.dirname(os.path.abspath(graphopt.__file__)) != os.path.join(SRC, "graphopt"):
        print(f"error: graphopt imported from {graphopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speedref
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    state = {"attempted": 0, "failed": 0, "problems": []}
    w = workloads.make(args.workload, args.seed, OUT)
    tracer = None
    try:
        if args.trace:
            measured, tracer, facts, extra = measure_layers(w, args.seconds, state, tracing, speedref)
            wanted = declared["per_layer"]
        else:
            measured, facts, extra = measure_end_to_end(w, args.seconds, state, speedref)
            wanted = declared["end_to_end"]
    finally:
        w.close()
    check_facts(args.workload, args.seed, facts, reference, state["problems"])

    # In trace mode a layer the workload never reaches reads 0.
    metrics = {
        m["name"]: {"value": measured[m["name"]] if not args.trace else measured.get(m["name"], 0),
                    "unit": m["unit"]}
        for m in wanted
    }

    correct = state["failed"] == 0 and not state["problems"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": state["attempted"],
        "failed": state["failed"], "problems": state["problems"], "facts": facts,
        "metrics": metrics, "extra": extra, "provenance": provenance(nproc),
    }
    stem = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for key, value in {**record["provenance"], **facts}.items():
        print(f"# {key}: {value}")
    for problem in state["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": state["attempted"],
        "failed": state["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
