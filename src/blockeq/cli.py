"""Command-line surface: parameter reports, certificate tooling, flower
colorings, exact oracles, enumeration, and the verification sweeps that
turn the structural claims into reproducible reports."""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
import time
from pathlib import Path

from . import characterization as char
from . import formats, gls, invariants, oracle
from .errors import BlockeqError, NotABlockGraphError, SelfLoopError
from .graph import clique_levels, decompose, generate_block_graphs


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _positive_int(text):
    """argparse type for counts that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


# -- sweep machinery ------------------------------------------------------

# graphs handed to a worker process at a time by `verify --jobs N`
_SWEEP_CHUNK = 64


def _sweep_one(args):
    """Worker: run one check on one generated graph, passed as
    (check, graph, key) with key its canonical form."""
    check, g, key = args
    record = {"graph": key, "n": g.n, "edges": [[u, v] for u, v in g.edges()], "check": check}
    if check == "dc-le-alphamin":
        dc = invariants.dc_exact(g).value
        am = invariants.alpha_min(g).value
        if dc > am:
            record["details"] = f"dc={dc} > alpha_min={am}"
            return ("violation", record)
    elif check in ("conjecture", "eq1"):
        am = invariants.alpha_min(g).value
        lower = invariants.counting_lower_bound(g.n, am, decompose(g).max_block_size())
        chi = oracle.exact_chi_eq(g)
        upper = lower + 1 if check == "conjecture" else g.max_degree() + 1
        if not lower <= chi <= upper:
            record["details"] = f"chi_eq={chi} outside [{lower}, {upper}]"
            return ("violation", record)
    elif check == "characterization":
        if not decompose(g).cut_vertices:
            record["details"] = "skipped: no cut vertex"
            return ("skipped", record)
        am = invariants.alpha_min(g).value
        cert = char.find_decomposition(g)
        if cert is None:
            record["details"] = "no certificate found"
            return ("violation", record)
        if cert.r != am:
            record["details"] = f"certificate length {cert.r} != alpha_min {am}"
            return ("violation", record)
    else:
        raise ValueError(f"unknown check {check}")
    return ("ok", record)


def _tally(max_n, results):
    """Graph count, skipped count and sorted violations of a result stream."""
    count = skipped = 0
    violations = []
    for status, record in results:
        count += 1
        if status == "skipped":
            skipped += 1
        elif status == "violation":
            violations.append(record)
    violations.sort(key=lambda r: r["graph"])
    return {"max_n": max_n, "graph_count": count, "skipped": skipped}, violations


def _run_sweep(check, max_n, jobs):
    t0 = time.time()
    tasks = ((check, g, key) for g, key in generate_block_graphs(max_n))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            scope, violations = _tally(
                max_n, pool.imap(_sweep_one, tasks, chunksize=_SWEEP_CHUNK)
            )
    else:
        scope, violations = _tally(max_n, map(_sweep_one, tasks))
    return {
        "check": check,
        "scope": scope,
        "violations": violations,
        "runtime_seconds": round(time.time() - t0, 3),
        "jobs": jobs,
    }


# -- subcommand handlers ---------------------------------------------------


def _cmd_validate(args):
    try:
        g = formats.load_graph(args.graph)
    except (NotABlockGraphError, SelfLoopError) as e:
        witness = list(getattr(e, "witness", ()))
        _emit({"valid": False, "error": str(e), "witness": witness})
        return 1
    deco = decompose(g)
    _emit({
        "valid": True,
        "n": g.n,
        "m": g.edge_count(),
        "blocks": [sorted(b) for b in deco.blocks],
        "cut_vertices": sorted(deco.cut_vertices),
        "connected": g.is_connected(),
    })
    return 0


def _cmd_params(args):
    g = formats.load_graph(args.graph)
    _emit(invariants.bounds_report(g).to_json_dict())
    return 0


def _cmd_levels(args):
    g = formats.load_graph(args.graph)
    lv = clique_levels(g)
    deco = decompose(g)
    _emit({
        "blocks": [sorted(b) for b in deco.blocks],
        "levels": {str(i): l for i, l in sorted(lv.levels.items())},
        "roots": {str(i): r for i, r in sorted(lv.roots.items())},
        "unleveled_singleton": lv.unleveled_singleton,
        "rounds": lv.rounds,
    })
    return 0


def _cmd_ais(args):
    g = formats.load_graph(args.graph)
    if args.base is None:
        _emit({"w": args.w, "ais": invariants.is_ais(g, args.w)})
    else:
        _emit({"w": args.w, "base": args.base, "v_ais": invariants.is_v_ais(g, args.base, args.w)})
    return 0


def _cmd_dot(args):
    g = formats.load_graph(args.graph)
    sys.stdout.write(formats.graph_to_dot(g) + "\n")
    return 0


def _cmd_char_gen(args):
    g, cert = char.generate_with_alphamin(args.r, max_clique=args.max_clique, seed=args.seed)
    _emit({
        "seed": args.seed,
        "graph": formats.graph_to_json_dict(g),
        "certificate": formats.certificate_to_json_dict(cert),
        "alpha_min": invariants.alpha_min(g).value,
    })
    return 0


def _cmd_char_decompose(args):
    g = formats.load_graph(args.graph)
    cert = char.find_decomposition(g)
    if cert is None:
        _emit({"found": False})
        return 1
    _emit({"found": True, "certificate": formats.certificate_to_json_dict(cert)})
    return 0


def _cmd_char_verify(args):
    cert = formats.certificate_from_json_dict(json.loads(Path(args.certificate).read_text()))
    chk = char.verify_certificate(cert)
    _emit({
        "ok": chk.ok,
        "reason": chk.reason,
        "step_index": chk.step_index,
        "alpha_min_trace": list(chk.alpha_min_trace),
    })
    return 0 if chk.ok else 1


def _cmd_gls_build(args):
    inst = formats.instance_from_json(args.instance)
    built = gls.build_gls(inst)
    _emit({
        "instance": inst.to_json_dict(),
        "n_vertices": built.graph.n,
        "omega": decompose(built.graph).max_block_size(),
        "alpha_min": invariants.alpha_min(built.graph).value,
        "universal_vertices": list(built.universal_vertices),
    })
    return 0


def _cmd_gls_color_uniform(args):
    matrix, coloring = gls.color_uniform(args.a, args.n, args.k, args.B, args.t)
    # the graph color_uniform just colored, from the same cache
    g = gls.uniform_gls(args.a, args.n, args.k, args.B)
    chk = oracle.check_coloring(g.graph, coloring)
    _emit({
        "matrix": matrix.to_json_dict(),
        "coloring": coloring.to_json_dict(),
        "check": {"proper": chk.proper, "equitable": chk.equitable},
    })
    return 0 if chk.proper and chk.equitable else 1


def _cmd_gls_color_n2(args):
    inst = formats.instance_from_json(args.instance)
    built = gls.build_gls(inst)
    coloring = gls.color_nplus2(built)
    chk = oracle.check_coloring(built.graph, coloring)
    _emit({
        "instance": inst.to_json_dict(),
        "t": coloring.t,
        "coloring": coloring.to_json_dict(),
        "check": {"proper": chk.proper, "equitable": chk.equitable},
    })
    return 0 if chk.proper and chk.equitable else 1


def _cmd_exact_chi_eq(args):
    g = formats.load_graph(args.graph)
    _emit({"chi_eq": oracle.exact_chi_eq(g, node_budget=args.budget)})
    return 0


def _cmd_exact_spectrum(args):
    g = formats.load_graph(args.graph)
    _emit(oracle.spectrum(g, t_cap=args.cap, node_budget=args.budget).to_json_dict())
    return 0


def _cmd_exact_dc(args):
    g = formats.load_graph(args.graph)
    res = invariants.dc_exact(g)
    _emit({"dc": res.value, "dc_set": sorted(res.dc_set)})
    return 0


def _cmd_exact_binpack(args):
    inst = formats.instance_from_json(args.instance)
    yes, parts = oracle.bin_packing_decide(inst)
    _emit({"instance": inst.to_json_dict(), "yes": yes, "parts": parts})
    return 0


def _cmd_enumerate(args):
    counts = {}
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    for g, _key in generate_block_graphs(args.max_n):
        counts[g.n] = counts.get(g.n, 0) + 1
        if out:
            name = f"g_{g.n:02d}_{counts[g.n]:05d}.json"
            (out / name).write_text(json.dumps(formats.graph_to_json_dict(g)))
    _emit({"max_n": args.max_n, "counts": {str(k): v for k, v in sorted(counts.items())}})
    return 0


def _cmd_verify(args):
    report = _run_sweep(args.what, args.max_n, args.jobs)
    _emit(report)
    return 1 if report["violations"] else 0


def build_parser():
    p = argparse.ArgumentParser(prog="blockeq", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("validate", help="validate a block graph file")
    q.add_argument("graph")
    q.set_defaults(fn=_cmd_validate)

    q = sub.add_parser("params", help="structural parameter report")
    q.add_argument("graph")
    q.set_defaults(fn=_cmd_params)

    q = sub.add_parser("levels", help="clique levels by pendant peeling")
    q.add_argument("graph")
    q.set_defaults(fn=_cmd_levels)

    q = sub.add_parser("ais", help="all-maximum-independent-set membership")
    q.add_argument("graph")
    q.add_argument("--w", type=int, required=True)
    q.add_argument("--base", type=int, default=None)
    q.set_defaults(fn=_cmd_ais)

    q = sub.add_parser("dot", help="DOT export for visual inspection")
    q.add_argument("graph")
    q.set_defaults(fn=_cmd_dot)

    q = sub.add_parser("char", help="growth certificates")
    csub = q.add_subparsers(dest="char_cmd", required=True)
    c = csub.add_parser("gen", help="random graph with prescribed alpha_min")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-clique", type=int, default=4)
    c.set_defaults(fn=_cmd_char_gen)
    c = csub.add_parser("decompose", help="recover a certificate for a graph")
    c.add_argument("graph")
    c.set_defaults(fn=_cmd_char_decompose)
    c = csub.add_parser("verify", help="replay and check a certificate")
    c.add_argument("certificate")
    c.set_defaults(fn=_cmd_char_verify)

    q = sub.add_parser("gls", help="flower graphs from packing instances")
    gsub = q.add_subparsers(dest="gls_cmd", required=True)
    c = gsub.add_parser("build", help="build and report closed forms")
    c.add_argument("instance")
    c.set_defaults(fn=_cmd_gls_build)
    c = gsub.add_parser("color-uniform", help="equitable t-coloring, uniform items")
    c.add_argument("--a", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--B", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.set_defaults(fn=_cmd_gls_color_uniform)
    c = gsub.add_parser("color-n2", help="equitable (n+2)-coloring, any instance")
    c.add_argument("instance")
    c.set_defaults(fn=_cmd_gls_color_n2)

    q = sub.add_parser("exact", help="brute-force oracles")
    esub = q.add_subparsers(dest="exact_cmd", required=True)
    c = esub.add_parser("chi-eq", help="exact equitable chromatic number")
    c.add_argument("graph")
    c.add_argument("--budget", type=int, default=None)
    c.set_defaults(fn=_cmd_exact_chi_eq)
    c = esub.add_parser("spectrum", help="equitable feasibility for t = 1..cap")
    c.add_argument("graph")
    c.add_argument("--cap", type=int, default=None)
    c.add_argument("--budget", type=int, default=None)
    c.set_defaults(fn=_cmd_exact_spectrum)
    c = esub.add_parser("dc", help="exact distance to cluster")
    c.add_argument("graph")
    c.set_defaults(fn=_cmd_exact_dc)
    c = esub.add_parser("binpack", help="exact packing decision")
    c.add_argument("instance")
    c.set_defaults(fn=_cmd_exact_binpack)

    q = sub.add_parser("enumerate", help="all small connected block graphs")
    q.add_argument("--max-n", type=_positive_int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=_cmd_enumerate)

    q = sub.add_parser("verify", help="exhaustive verification sweeps")
    q.add_argument(
        "what",
        choices=["conjecture", "dc-le-alphamin", "characterization", "eq1"],
    )
    q.add_argument("--max-n", type=_positive_int, required=True)
    q.add_argument("--jobs", type=_positive_int, default=1)
    q.set_defaults(fn=_cmd_verify)

    return p


@functools.cache
def _parser():
    """The parser `main` uses, built on the first call and kept for the
    process; parse_args leaves it unchanged and returns a fresh namespace.
    `build_parser` itself still returns a new parser on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, BlockeqError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - internal failure contract
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
