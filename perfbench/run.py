"""blockeq benchmark: end-to-end figures per workload, or per-layer figures.

    python3 perfbench/run.py --workload sweep|certify|flowers|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; it benchmarks the checkout it lives in (`src/` and
`schemas/` next to this directory) and uses the standard library only.

With `--trace 0` it sets up the inputs several times (fresh interpreter
each time) and reports the median as `setup_s`.  It then runs whole
passes of the workload, each in a fresh interpreter, as many as fit in
`--seconds` of timed work (at least one).  A pass times every
per-instance command in several rounds.  Times are rescaled to nominal
seconds by a reference task timed throughout the pass (see `pace.py`).
A figure takes each instance's median over all its repetitions in the
run, then the median or tail percentile over the instances:

    sweep_items_per_s  items of the exhaustive phase per second (graphs
                       of the verify sweeps; color-uniform pairs)
    op_p50_s           median over instances of the main command
    op_tail_s          its highest percentile with ten or more
                       instances beyond it (p75 of 40)
    aux_op_p50_s       median over instances of the auxiliary command

(commands per workload in `workloads.py`), with `setup_s`, the median
set-up time, and `peak_rss_mb`, the largest resident set of a pass.

With `--trace 1` it runs one untraced and one traced pass and reports
the per-layer figures of the traced one (see `spans.py`); the
difference of their times is the tracing overhead.

Every output is validated against `schemas/` and rechecked outside the
timed region.  An operation the program reports as failed (a sweep
violation, `found: false`, an internal error, a nonzero exit) counts in
`failed`; an output that claims success and is wrong makes the result
`correct: false` and the exit code 1.  The last line of standard output
is the JSON result; a record with run metadata goes to
`perfbench/out/BENCH_<workload>.json` and, when tracing, every span to
`perfbench/out/spans_<workload>.tsv`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from pace import Pace  # noqa: E402

SETUP_REPEATS = 9
# Every run has to end within 180 s; no pass may start past this point.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sweep_items_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("aux_op_p50_s", "s"),
)

# Layers as they appear in the span names: module.function.
TIMED_LAYERS = (
    "cli.main",
    "oracle.enumerate_block_graphs", "oracle.canonical_form",
    "formats.graph_from_json_dict",
    "oracle.exact_equitable_colorable", "oracle.exact_chi_eq",
    "invariants.dc_exact", "invariants.bounds_report",
    "invariants.alpha_min", "invariants.alpha_with", "invariants.is_v_ais",
    "characterization.find_decomposition", "characterization.verify_certificate",
    "characterization.generate_with_alphamin",
    "graph.induced_subgraph",
    "gls.color_nplus2", "gls.build_gls", "gls.color_uniform", "gls.realize_flower",
    "oracle.check_coloring",
)
COUNTED_LAYERS = (
    "oracle.canonical_form", "formats.graph_from_json_dict",
    "oracle.exact_equitable_colorable", "invariants.alpha_min", "invariants.alpha_with",
    "invariants.is_v_ais", "characterization.apply_operation", "graph.decompose",
    "graph.clique_levels", "graph.induced_subgraph", "gls.color_uniform",
)
INCLUSIVE_LAYERS = (
    "oracle.enumerate_block_graphs", "characterization.find_decomposition",
    "gls.color_nplus2", "gls.build_gls", "gls.color_uniform",
)
# Per-layer figures that repeat exactly for a given seed: counts of work
# and ratios of counts.  Later changes may cite them as counts.
EXACT = (
    tuple(f"{x}.calls" for x in COUNTED_LAYERS)
    + ("oracle.enumerate.keep_ratio", "characterization.find_decomposition.found_ratio",
       "characterization.apply_operation.accept_ratio", "gls.color_nplus2.moves",
       "trace.spans")
)


def per_layer_names():
    """(name, unit, better) of every per-layer figure, in output order."""
    out = [(f"{x}.self_s", "s", "lower") for x in TIMED_LAYERS]
    out += [(f"{x}.incl_s", "s", "lower") for x in INCLUSIVE_LAYERS]
    out += [(f"{x}.calls", "count", "lower") for x in COUNTED_LAYERS]
    out += [
        ("oracle.enumerate.keep_ratio", "ratio", "higher"),
        ("characterization.find_decomposition.found_ratio", "ratio", "higher"),
        ("characterization.apply_operation.accept_ratio", "ratio", "higher"),
        ("gls.color_nplus2.moves", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


class BenchError(Exception):
    """The benchmark itself could not run."""


def percentile(values, pct):
    """Harrell-Davis estimate of a percentile of a non-empty list.

    A weighted mean of all order statistics, with Beta-distribution
    weights centred on the percentile's rank.  Unlike a single order
    statistic it does not jump when one instance's time crosses the
    rank, which matters where instance times form clusters.
    """
    xs = sorted(values)
    n, q = len(xs), pct / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n]
        lo, h = i / n, 1 / (16 * n)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, 16))
        weights.append((density(lo) + inner + density(lo + 16 * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_pct(n):
    """Highest listed percentile with at least ten samples beyond it."""
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - pct) / 100 >= 10:
            best = pct
    return best if best is not None else 50


def child(argv, timeout):
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def run_pass(workdir, index, trace, deadline, spans=None, pace="timer"):
    result = workdir / f"pass_{index}.json"
    argv = ["pass", "--workdir", str(workdir), "--trace", str(trace), "--pace", pace,
            "--result", str(result)]
    if spans:
        argv += ["--spans", str(spans)]
    child(argv, max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic())))
    return json.loads(result.read_text())


def instance_times(passes, kind):
    """Median time of each instance over its repetitions in the run, in
    nominal seconds (see `pace`)."""
    samples = {}
    for p in passes:
        for inst, values in p["times"][kind].items():
            samples.setdefault(inst, []).extend(values)
    return [statistics.median(v) for v in samples.values()]


def end_to_end(passes, setup_times):
    op = instance_times(passes, "op")
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "sweep_items_per_s": passes[0]["sweep_items"] / sum(instance_times(passes, "sweep")),
        "op_p50_s": percentile(op, 50),
        "op_tail_s": percentile(op, tail_pct(len(op))),
        "aux_op_p50_s": percentile(instance_times(passes, "aux"), 50),
    }


def per_layer(traced, untraced):
    t = traced["trace"]
    layers = t["layers"]
    counts = t["counts"]

    def layer(name, field):
        return layers.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for x in TIMED_LAYERS:
        values[f"{x}.self_s"] = layer(x, "self_s")
    for x in INCLUSIVE_LAYERS:
        values[f"{x}.incl_s"] = layer(x, "incl_s")
    for x in COUNTED_LAYERS:
        values[f"{x}.calls"] = layer(x, "calls")
    values["oracle.enumerate.keep_ratio"] = ratio(t["enumerate_yields"],
                                                  t["enumerate_candidates"])
    for x, key in (("characterization.find_decomposition", "found_ratio"),
                   ("characterization.apply_operation", "accept_ratio")):
        values[f"{x}.{key}"] = ratio(counts.get(f"{x}.succeeded", 0),
                                     counts.get(f"{x}.attempted", 0))
    values["gls.color_nplus2.moves"] = counts.get("gls.color_nplus2.moves", 0)
    self_sum = sum(v["self_s"] for v in layers.values())
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    # in nominal seconds, so that a change of machine speed between the
    # two passes does not read as overhead
    values["trace.overhead_s"] = traced["commands_s"] - untraced["commands_s"]
    values["trace.self_sum_s"] = self_sum
    values["trace.unattributed_s"] = traced["wall_s"] - self_sum
    values["trace.spans"] = t["spans"]
    return values


def metadata(args):
    return {
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def preflight():
    missing = [p for p in (ROOT / "src" / "blockeq" / "cli.py", ROOT / "schemas")
               if not p.exists()]
    if missing:
        raise BenchError(
            "cannot benchmark: missing " + ", ".join(str(p.relative_to(ROOT)) for p in missing)
            + " (run from a full checkout of the repository)"
        )


def measure(args, workdir):
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_times, pace = [], Pace()
    for _ in range(SETUP_REPEATS):
        pace.sample()
        pace.sample()
        t0 = time.perf_counter()
        child(["setup", "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--workdir", str(workdir)], CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        pace.sample()
        pace.sample()
        setup_times.append((t1 - t0) * pace.scale(t0, t1))

    if args.trace:
        untraced = run_pass(workdir, 0, 0, deadline, pace="between")
        traced = run_pass(workdir, 1, 1, deadline, OUT / f"spans_{args.workload}.tsv",
                          pace="between")
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in per_layer_names()}
    else:
        passes, measured = [], 0.0
        while True:
            passes.append(run_pass(workdir, len(passes), 0, deadline))
            last = passes[-1]["wall_s"]
            measured += last
            if measured + last > args.seconds or time.monotonic() + 2 * last > deadline:
                break
        metrics = end_to_end(passes, setup_times)
        units = dict(END_TO_END)
    return passes, metrics, units, setup_times


def report(args, passes, metrics, units, setup_times):
    meta = metadata(args)
    attempted = passes[0]["attempted"]
    failed = passes[0]["failed"]
    errors = sorted({e for p in passes for e in p["errors"]})
    n_op, n_aux = len(passes[0]["times"]["op"]), len(passes[0]["times"]["aux"])
    print(f"# {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"passes={len(passes)} python={meta['python']} nproc={meta['nproc']} "
          f"src_lines={meta['src_lines']} git={meta['git_sha'][:12]}")
    print(f"# setup runs={len(setup_times)}; instances: op {n_op} "
          f"(tail = p{tail_pct(n_op)}), aux {n_aux}; each timed "
          f"{len(passes)} pass(es) x {passes[0]['rounds']} round(s)")
    print(f"# fail_share {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
    for line in sorted(set(passes[0]["failures"]))[:12]:
        print(f"#   failed: {line}")
    for line in errors[:12]:
        print(f"#   ERROR: {line}")
    if args.trace:
        layers = passes[1]["trace"]["layers"]
        for field, what in (("incl_s", "inclusive"), ("top_s", "called by a command")):
            top = max((k for k in layers if not k.startswith("cli.")),
                      key=lambda k: layers[k][field], default=None)
            if top:
                print(f"# largest layer ({what}): {top} {layers[top][field]:.3f} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    record = {"meta": meta, "metrics": {k: {"value": v, "unit": units[k]}
                                        for k, v in metrics.items()},
              "exact": [k for k in metrics if k in EXACT],
              "attempted": attempted, "failed": failed, "failures": passes[0]["failures"],
              "errors": errors, "setup_s": setup_times,
              "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "sweep_items", "times",
                                            "wall_times", "pace_s")}
                         for p in passes]}
    (OUT / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return not errors


def run_one(args):
    """Measure and report one workload; the exit code of the run."""
    try:
        preflight()
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"run_{args.workload}_{args.seed}_{os.getpid()}"
        try:
            passes, metrics, units, setup_times = measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 0 if report(args, passes, metrics, units, setup_times) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="'all' runs every workload in turn, each with its own result line")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'tiny' runs a seconds-long version, for the smoke test")
    args = p.parse_args(argv)
    # a terminated run unwinds through subprocess.run, which kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload != "all":
        return run_one(args)
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": w}))
             for w in workloads.WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
