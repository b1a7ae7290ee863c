"""Child process of the benchmark: one set-up, or one pass, per interpreter.

    python3 perfbench/worker.py setup --workload W --seed N --size S --workdir D
    python3 perfbench/worker.py pass --workdir D --trace 0|1 --pace timer|between --result R [--spans F]

A fresh interpreter per pass keeps the program's caches (the uniform
flower-graph `lru_cache`, the per-graph decomposition caches) cold at
the start of every pass, as they are for a user who runs the command.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_blockeq():
    """Import the checkout's own `src/blockeq`, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    blockeq = importlib.import_module("blockeq")
    importlib.import_module("blockeq.cli")
    origin = Path(blockeq.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"imported blockeq from {origin}, not from {ROOT / 'src'}")
    return blockeq


def setup(args):
    import_blockeq()
    import workloads

    workloads.make_inputs(args.workload, args.seed, args.size, Path(args.workdir))


def run(args):
    blockeq = import_blockeq()
    import spans
    import workloads
    from pace import Pace
    from schemacheck import SchemaStore

    workdir = Path(args.workdir)
    plan = json.loads((workdir / "plan.json").read_text())
    tracer = uninstall = None
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer, blockeq)
    clock = Pace()
    timer = args.pace == "timer"
    if timer:
        clock.start()
    else:
        clock.sample()
    os.chdir(workdir)
    t0 = time.perf_counter()
    session = workloads.run_pass(plan, blockeq.cli, None if timer else clock)
    t1 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if timer:
        clock.stop()
    else:
        clock.sample()
    if uninstall is not None:
        uninstall()
    wall = clock.own_time(t0, t1)

    verdict = workloads.check_pass(session, blockeq, SchemaStore(ROOT / "schemas"))
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failures": verdict.failures,
        "errors": verdict.errors,
        "rounds": plan["sizes"]["rounds"][plan["workload"]],
        **workloads.pass_figures(session, clock),
    }
    if tracer is not None:
        result["trace"] = trace_figures(spans, tracer)
        if args.spans:
            tracer.write_tsv(args.spans)
    Path(args.result).write_text(json.dumps(result))


def trace_figures(spans, tracer):
    stats = spans.layer_stats(tracer)
    c = tracer.counts
    enum = "oracle.enumerate_block_graphs"
    stats["counts"] = dict(c)
    stats["enumerate_candidates"] = spans.child_calls(tracer, "oracle.canonical_form", enum)
    stats["enumerate_yields"] = c.get(f"{enum}.yields", 0)
    return stats


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--size", required=True)
    s.add_argument("--workdir", required=True)
    s.set_defaults(fn=setup)
    r = sub.add_parser("pass")
    r.add_argument("--workdir", required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--result", required=True)
    r.add_argument("--spans", default=None)
    r.add_argument("--pace", choices=("timer", "between"), default="timer",
                   help="time the reference task (see pace.py) on a timer that "
                        "interrupts commands, or only between commands")
    r.set_defaults(fn=run)
    args = p.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
