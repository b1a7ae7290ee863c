"""The three benchmark workloads: seeded inputs, one timed pass, checks.

A pass is a closed loop with one client: each blockeq command runs
in-process through `blockeq.cli.main` only after the previous one has
returned.  Every workload has an exhaustive phase (one or two sweeps, or
the uniform coloring grid) and a per-instance phase of two command
kinds, the main `op` and the `aux` command.

    workload  exhaustive phase                      op                aux
    sweep     verify conjecture / dc-le-alphamin    params            exact chi-eq
    certify   verify characterization               char decompose    char gen
    flowers   gls color-uniform over a grid sample  gls color-n2      gls build

The instances form a fixed suite per workload, stratified over graph
size, r, instance size and grid position.  The seed sets the order of
the per-instance loop and the item order of the packing instances.  It
draws no new instances: the running time of `gls color-n2` or
`char decompose` swings up to tenfold between random instances of one
size, so per-seed instances would make runs incomparable.  Reordering
items moves `gls color-n2` by about a tenth.  Graph labels stay fixed:
relabeling moved `params` (its distance-to-cluster search) up to
twofold, and with other labels `char decompose` misses certificates
that exist (the witness defect that the characterization sweep counts),
each miss an exhaustive search of up to tens of seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

# Cumulative number of connected block graphs with at most n vertices
# (per n: 1,540 for n = 10 and 4,960 for n = 11).
PINNED_GRAPH_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 8, 5: 17, 6: 39, 7: 98, 8: 263, 9: 759, 10: 2299, 11: 7259,
}

# (a, n, k, B, t) pairs on which `gls color-uniform` fails today; they stay
# in the flowers workload so that a fix shows up as a lower failure count.
KNOWN_RAISING_PAIRS = (
    (3, 3, 3, 3, 26), (3, 4, 4, 3, 42), (4, 5, 4, 5, 39), (5, 2, 2, 5, 13),
    (5, 3, 3, 5, 25), (5, 4, 4, 5, 41), (6, 3, 2, 9, 12), (7, 4, 4, 7, 36),
    (7, 4, 4, 7, 38),
)

SIZES = {
    "full": {
        "conjecture_max_n": 11, "dc_max_n": 10, "char_max_n": 10,
        "graphs": 40, "graph_n": (15, 18),
        "certs": 40, "cert_r": (8, 16),
        "instances": 40, "instance_vertices": (70, 220),
        "big_builds": 2, "big_capacity": (70, 90),
        "grid_stride": 16, "high_t_pairs": 30,
        "rounds": {"sweep": 6, "certify": 3, "flowers": 3},
    },
    # Seconds-long version of every workload, for the smoke test.
    "tiny": {
        "conjecture_max_n": 7, "dc_max_n": 7, "char_max_n": 7,
        "graphs": 3, "graph_n": (8, 9),
        "certs": 3, "cert_r": (4, 6),
        "instances": 3, "instance_vertices": (70, 120),
        "big_builds": 1, "big_capacity": (8, 10),
        "grid_stride": 400, "high_t_pairs": 2,
        "rounds": {"sweep": 2, "certify": 2, "flowers": 2},
    },
}

WORKLOADS = ("sweep", "certify", "flowers")

# Seed of the fixed instance suites; changing it changes the benchmark.
SUITE = "blockeq-perfbench-suite-1"

# Uniform grid of `gls color-uniform`: a <= 8, n <= 6, k <= 4, every t >= k+2.
GRID_LIMITS = (8, 6, 4)
GRID_T_SPLIT = 45


def _spread(lo, hi, count):
    """`count` integers spread evenly over [lo, hi]."""
    if count == 1:
        return [lo]
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _systematic(rng, items, count):
    """Every len/count-th item from a seeded start: an even sample."""
    if count >= len(items):
        return list(items)
    step = len(items) / count
    start = rng.random() * step
    return [items[int(start + i * step)] for i in range(count)]


def _random_block_graph(rng, n):
    """Grow a connected block graph by hanging cliques on random vertices."""
    edges, m = [], 1
    while m < n:
        size = min(rng.choice((2, 2, 3, 4)), n - m + 1)
        members = [rng.randrange(m)] + list(range(m, m + size - 1))
        edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
        m += size - 1
    return {"n": n, "edges": edges}


def _packing_instance(rng, k, capacity):
    """k bins of `capacity`, each cut into random item sizes; not uniform."""
    while True:
        items = []
        for _ in range(k):
            rem = capacity
            while rem:
                x = rng.randint(1, rem)
                items.append(x)
                rem -= x
        if len(set(items)) > 1:
            rng.shuffle(items)
            return {"A": items, "k": k, "B": capacity}


def uniform_pairs():
    """Every (a, n, k, B, t) of the uniform grid, in a fixed order."""
    amax, nmax, kmax = GRID_LIMITS
    out = []
    for a in range(1, amax + 1):
        for n in range(1, nmax + 1):
            for k in range(1, kmax + 1):
                if (a * n) % k or a > a * n // k:
                    continue
                b = a * n // k
                total = (k + 1) * (k * b + n + 1)
                out.extend((a, n, k, b, t) for t in range(k + 2, total + 1))
    return out


def make_inputs(workload, seed, size, workdir: Path):
    """Write the seeded input files under `workdir` and return the plan;
    file names in the plan are relative to `workdir`."""
    p = SIZES[size]
    suite = random.Random(f"{SUITE}:{workload}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "size": size, "sizes": p}
    if workload == "sweep":
        graphs = [_random_block_graph(suite, n)
                  for n in _spread(*p["graph_n"], p["graphs"])]
        plan["graphs"] = []
        for i, g in enumerate(graphs):
            path = workdir / f"graph_{i:03d}.json"
            path.write_text(json.dumps(g))
            plan["graphs"].append([i, path.name])
        rng.shuffle(plan["graphs"])
    elif workload == "certify":
        plan["certs"] = [
            [i, r, suite.randrange(2**31)]
            for i, r in enumerate(_spread(*p["cert_r"], p["certs"]))
        ]
        rng.shuffle(plan["certs"])
    elif workload == "flowers":
        insts = []
        for i, target in enumerate(_spread(*p["instance_vertices"], p["instances"])):
            k = 2 + i % 3
            # |V| = (k+1)(kB + n + 1) with about k*ln(B) items
            capacity = max(2, round((target / (k + 1) - 1) / (k + 0.25 * k)))
            insts.append(_packing_instance(suite, k, capacity))
        for _ in range(p["big_builds"]):
            insts.append(_packing_instance(suite, 3, suite.randint(*p["big_capacity"])))
        paths = []
        for i, inst in enumerate(insts):
            rng.shuffle(inst["A"])
            path = workdir / f"instance_{i:03d}.json"
            path.write_text(json.dumps(inst))
            paths.append(path.name)
        plan["instances"] = paths[: p["instances"]]
        plan["big_instances"] = paths[p["instances"]:]
        rng.shuffle(plan["instances"])
        grid = uniform_pairs()
        low = [x for x in grid if x[4] <= GRID_T_SPLIT]
        high = sorted((x for x in grid if x[4] > GRID_T_SPLIT), key=lambda x: (x[4], x))
        pairs = _systematic(suite, low, len(low) // p["grid_stride"])
        pairs += [x for x in KNOWN_RAISING_PAIRS if x not in pairs]
        pairs += _systematic(suite, high, p["high_t_pairs"])
        # grid order, as a sweep runs it: the program caches the last 64
        # uniform flower graphs, so a shuffled order would change its work
        plan["pairs"] = [list(x) for x in sorted(pairs)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan


# -- one pass ---------------------------------------------------------------


class Session:
    """Runs blockeq commands in-process and records each one."""

    def __init__(self, cli, pace=None):
        self.cli = cli
        self.pace = pace
        self.records = []

    def call(self, kind, argv, schema, **meta):
        argv = [str(a) for a in argv]
        if self.pace is not None:
            self.pace.tick()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:  # argparse rejects bad arguments this way
                rc = e.code if isinstance(e.code, int) else 2
            t1 = time.perf_counter()
        rec = {"kind": kind, "argv": argv, "rc": rc, "t0": t0, "t1": t1,
               "out": out.getvalue(), "schema": schema, **meta}
        self.records.append(rec)
        return rec


def run_pass(plan, cli, pace=None):
    """The timed part of a pass, run in the directory that holds the
    inputs; returns the session with its records.  With a `pace`, its
    reference task is timed between commands.

    The per-instance phase runs several rounds over the same instances,
    one round after the other, so that each instance is timed at moments
    that lie seconds apart.
    """
    s = Session(cli, pace)
    p = plan["sizes"]
    w = plan["workload"]
    rounds = p["rounds"][w]
    if w == "sweep":
        for what, max_n in (("conjecture", p["conjecture_max_n"]),
                            ("dc-le-alphamin", p["dc_max_n"])):
            s.call("sweep", ["verify", what, "--max-n", max_n, "--jobs", 1],
                   "sweep_report.schema.json", max_n=max_n, inst=what)
        for rnd in range(rounds):
            for i, path in plan["graphs"]:
                s.call("op", ["params", path], "params.schema.json", graph=path, inst=i)
                s.call("aux", ["exact", "chi-eq", path], "chi_eq_output.schema.json", inst=i)
    elif w == "certify":
        s.call("sweep", ["verify", "characterization", "--max-n", p["char_max_n"],
                         "--jobs", 1], "sweep_report.schema.json", max_n=p["char_max_n"],
               inst="characterization")
        for rnd in range(rounds):
            for i, r, seed in plan["certs"]:
                gen = s.call("aux", ["char", "gen", "--r", r, "--seed", seed],
                             "char_gen_output.schema.json", r=r, inst=i)
                if gen["rc"] != 0:
                    continue
                out = json.loads(gen["out"])
                graph = f"gen_{i:03d}.json"
                Path(graph).write_text(json.dumps(out["graph"]))
                dec = s.call("op", ["char", "decompose", graph],
                             "char_decompose_output.schema.json", graph=graph, inst=i)
                if rnd:
                    continue
                # replaying both certificates once is enough; it is not timed as an op
                cert = Path(f"gen_{i:03d}.cert.json")
                cert.write_text(json.dumps(out["certificate"]))
                s.call("check", ["char", "verify", cert], "char_verify_output.schema.json")
                if dec["rc"] == 0:
                    found = Path(f"dec_{i:03d}.cert.json")
                    found.write_text(json.dumps(json.loads(dec["out"])["certificate"]))
                    s.call("check", ["char", "verify", found], "char_verify_output.schema.json")
    elif w == "flowers":
        for a, n, k, b, t in plan["pairs"]:
            s.call("sweep", ["gls", "color-uniform", "--a", a, "--n", n, "--k", k,
                             "--B", b, "--t", t], "color_uniform_output.schema.json",
                   pair=[a, n, k, b, t], inst=f"{a},{n},{k},{b},{t}")
        for path in plan["big_instances"]:
            s.call("aux", ["gls", "build", path], "gls_build_output.schema.json", inst=path)
        for rnd in range(rounds):
            for path in plan["instances"]:
                s.call("aux", ["gls", "build", path], "gls_build_output.schema.json", inst=path)
                s.call("op", ["gls", "color-n2", path], "color_n2_output.schema.json", inst=path)
    return s


# -- checks, all outside the timed region -------------------------------------


class Verdict:
    """Failures the program reported, and benchmark errors: outputs that
    claim success and are wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []

    def ok(self, n=1):
        self.attempted += n

    def fail(self, what, n=1):
        self.attempted += n
        self.failed += n
        self.failures.append(what)

    def error(self, what):
        self.errors.append(what)

    def mark(self):
        return (self.attempted, self.failed, len(self.failures), len(self.errors))

    def since(self, mark):
        a, f, nf, ne = mark
        return (self.attempted - a, self.failed - f, self.failures[nf:], self.errors[ne:])

    def repeat(self, delta):
        a, f, failures, errors = delta
        self.attempted += a
        self.failed += f
        self.failures += failures
        self.errors += errors


def check_pass(session, blockeq, schemas):
    """Validate every output against its schema and recheck its claims.

    Repeated rounds give identical outputs; each distinct output is
    checked once and its verdict applied to every copy.
    """
    v = Verdict()
    ctx = (blockeq, {}, {})
    seen = {}
    for rec in session.records:
        key = (tuple(rec["argv"]), rec["rc"], rec["out"])
        if key not in seen:
            before = v.mark()
            _check_record(rec, schemas, v, ctx)
            seen[key] = v.since(before)
        else:
            v.repeat(seen[key])
    return v


def _check_record(rec, schemas, v, ctx):
    label = " ".join(rec["argv"])
    if rec["rc"] not in (0, 1):
        # a crashed sweep leaves every one of its graphs unchecked
        graphs = PINNED_GRAPH_COUNTS[rec["max_n"]] if rec["argv"][0] == "verify" else 1
        v.fail(f"{label}: exit {rec['rc']}", n=graphs)
        return
    try:
        out = json.loads(rec["out"])
    except json.JSONDecodeError as e:
        v.error(f"{label}: output is not JSON ({e})")
        return
    bad = schemas.errors(rec["schema"], out)
    if bad:
        v.error(f"{label}: schema {rec['schema']}: {'; '.join(bad[:3])}")
        return
    command = rec["argv"][0] if rec["argv"][0] in ("verify", "params", "exact") \
        else " ".join(rec["argv"][:2])
    _CHECKS[command](rec, out, v, *ctx)


def _load_graph(blockeq, path, cache):
    if path not in cache:
        cache[path] = blockeq.formats.load_graph(path)
    return cache[path]


def _check_sweep(rec, out, v, blockeq, cache, chi):
    label = " ".join(rec["argv"])
    max_n = rec["max_n"]
    scope = out["scope"]
    want_skipped = max_n if out["check"] == "characterization" else 0
    if scope["graph_count"] != PINNED_GRAPH_COUNTS[max_n]:
        v.error(f"{label}: {scope['graph_count']} graphs, pinned {PINNED_GRAPH_COUNTS[max_n]}")
    if scope["skipped"] != want_skipped:
        v.error(f"{label}: skipped {scope['skipped']}, expected {want_skipped}")
    if (rec["rc"] == 1) != bool(out["violations"]):
        v.error(f"{label}: exit {rec['rc']} with {len(out['violations'])} violations")
    checked = scope["graph_count"] - scope["skipped"]
    bad = len(out["violations"])
    v.ok(checked - bad)
    if bad:
        details = sorted({x["details"] for x in out["violations"]})
        v.fail(f"{label}: {bad} violations ({'; '.join(details)})", n=bad)


def _check_params(rec, out, v, blockeq, cache, chi):
    g = _load_graph(blockeq, rec["graph"], cache)
    label = " ".join(rec["argv"])
    if out["n"] != g.n or out["alpha"] != blockeq.oracle.brute_alpha(g):
        v.error(f"{label}: n/alpha disagree with the brute-force oracle")
        return
    if out["window"] != [out["lower_bound"], out["lower_bound"] + 1]:
        v.error(f"{label}: window {out['window']} is not [lower, lower+1]")
        return
    chi[rec["inst"]] = out["window"]
    if out["dc"] is not None and out["dc"] > out["alpha_min"]:
        v.fail(f"{label}: dc={out['dc']} > alpha_min={out['alpha_min']}")
        return
    v.ok()


def _check_exact(rec, out, v, blockeq, cache, chi):
    label = " ".join(rec["argv"])
    window = chi.get(rec["inst"])
    if window is not None and not window[0] <= out["chi_eq"] <= window[1]:
        v.fail(f"{label}: chi_eq={out['chi_eq']} outside {window}")
        return
    v.ok()


def _replay(blockeq, cert):
    g = cert.base_graph
    for op in cert.steps:
        g = blockeq.characterization.apply_operation(g, cert.base_vertex, op)
    return g


def _same_graph(blockeq, g, h):
    canon = blockeq.oracle.canonical_form
    return g.n == h.n and canon(g) == canon(h)


def _check_certificate(blockeq, cert_json, graph, want_r):
    """None if the certificate replays to `graph` with r = alpha_min."""
    cert = blockeq.formats.certificate_from_json_dict(cert_json)
    if not blockeq.characterization.verify_certificate(cert).ok:
        return "certificate does not replay"
    if not _same_graph(blockeq, _replay(blockeq, cert), graph):
        return "replayed certificate builds another graph"
    if cert.r != want_r:
        return f"certificate r={cert.r} != alpha_min={want_r}"
    return None


def _check_char_gen(rec, out, v, blockeq, cache, chi):
    label = " ".join(rec["argv"])
    g = blockeq.formats.graph_from_json_dict(out["graph"])
    am = blockeq.invariants.alpha_min(g).value
    if am != rec["r"] or out["alpha_min"] != am:
        v.error(f"{label}: alpha_min {out['alpha_min']} / {am}, asked for r={rec['r']}")
        return
    why = _check_certificate(blockeq, out["certificate"], g, am)
    if why:
        v.error(f"{label}: {why}")
        return
    v.ok()


def _check_char_decompose(rec, out, v, blockeq, cache, chi):
    label = " ".join(rec["argv"])
    if not out["found"]:
        v.fail(f"{label}: no certificate found")
        return
    g = _load_graph(blockeq, rec["graph"], cache)
    why = _check_certificate(blockeq, out["certificate"], g,
                             blockeq.invariants.alpha_min(g).value)
    if why:
        v.error(f"{label}: {why}")
        return
    v.ok()


def _check_char_verify(rec, out, v, blockeq, cache, chi):
    if (rec["rc"] == 0) != out["ok"]:
        v.error(f"{' '.join(rec['argv'])}: exit {rec['rc']} but ok={out['ok']}")
    elif not out["ok"]:
        v.fail(f"{' '.join(rec['argv'])}: rejected ({out['reason']})")
    else:
        v.ok()


def _check_gls_build(rec, out, v, blockeq, cache, chi):
    a, k, b = out["instance"]["A"], out["instance"]["k"], out["instance"]["B"]
    n = len(a)
    want = ((k + 1) * (k * b + n + 1), k + 1, n + 1 + k * b)
    got = (out["n_vertices"], out["omega"], out["alpha_min"])
    if got != want:
        v.error(f"{' '.join(rec['argv'])}: (|V|, omega, alpha_min) = {got}, closed forms {want}")
        return
    v.ok()


def _check_coloring(rec, out, v, blockeq, cache, chi, inst):
    label = " ".join(rec["argv"])
    key = (tuple(inst.item_sizes), inst.parts, inst.capacity)
    if key not in cache:
        cache[key] = blockeq.gls.build_gls(inst, cross_check=False).graph
    coloring = blockeq.formats.coloring_from_json_dict(out["coloring"])
    try:
        chk = blockeq.oracle.check_coloring(cache[key], coloring)
        good = chk.proper and chk.equitable
    except blockeq.errors.BlockeqError:
        good = False
    claimed = out["check"]["proper"] and out["check"]["equitable"]
    if claimed != (rec["rc"] == 0) or (claimed and not good):
        v.error(f"{label}: claims proper+equitable={claimed} (exit {rec['rc']}), "
                f"recheck says {good}")
    elif not claimed:
        v.fail(f"{label}: coloring not proper and equitable")
    else:
        v.ok()


def _check_color_uniform(rec, out, v, blockeq, cache, chi):
    a, n, k, b, _ = rec["pair"]
    _check_coloring(rec, out, v, blockeq, cache, chi,
                    blockeq.gls.BinPackingInstance((a,) * n, k, b))


def _check_color_n2(rec, out, v, blockeq, cache, chi):
    inst = blockeq.gls.BinPackingInstance.from_json_dict(out["instance"])
    if out["t"] != len(inst.item_sizes) + 2:
        v.error(f"{' '.join(rec['argv'])}: t={out['t']}, expected n+2")
        return
    _check_coloring(rec, out, v, blockeq, cache, chi, inst)


_CHECKS = {
    "verify": _check_sweep,
    "params": _check_params,
    "exact": _check_exact,
    "char gen": _check_char_gen,
    "char decompose": _check_char_decompose,
    "char verify": _check_char_verify,
    "gls build": _check_gls_build,
    "gls color-uniform": _check_color_uniform,
    "gls color-n2": _check_color_n2,
}


def pass_figures(session, pace):
    """Timings of one pass per command kind and instance: the exhaustive
    phase ("sweep"), the main per-instance command ("op") and the
    auxiliary one ("aux").  "times" are in nominal seconds (see `pace`),
    "wall_times" in wall-clock seconds without the reference task, and
    "commands_s" totals the nominal seconds of every command."""
    times = {"sweep": {}, "op": {}, "aux": {}}
    wall = {"sweep": {}, "op": {}, "aux": {}}
    total = 0.0
    for r in session.records:
        t0, t1 = r["t0"], r["t1"]
        own = pace.own_time(t0, t1)
        nominal = own * pace.scale(t0, t1)
        total += nominal
        if r["kind"] in times:
            inst = str(r["inst"])
            wall[r["kind"]].setdefault(inst, []).append(own)
            times[r["kind"]].setdefault(inst, []).append(nominal)
    sweep = [r for r in session.records if r["kind"] == "sweep"]
    if sweep and sweep[0]["argv"][0] == "verify":
        items = sum(PINNED_GRAPH_COUNTS[r["max_n"]] for r in sweep)
    else:
        items = len(sweep)
    return {"sweep_items": items, "times": times, "wall_times": wall, "commands_s": total,
            "pace_s": [e - s for s, e in pace.samples]}
