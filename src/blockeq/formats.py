"""File formats: graph JSON, plain edge lists, DOT export, and JSON
round trips for instances, certificates, and colorings."""

from __future__ import annotations

import json
from pathlib import Path

from .characterization import CharCertificate, OpDescriptor, OpKind, StarExtension
from .errors import require_int, require_ints, require_object
from .gls import BinPackingInstance, Coloring
from .graph import MAX_VERTICES, BlockGraph, check_vertex_count, from_edge_list


def graph_to_json_dict(g: BlockGraph) -> dict:
    d = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return d


def graph_from_json_dict(d: dict, name: str = "graph JSON") -> BlockGraph:
    require_object(d, name, ("n", "edges"))
    check_vertex_count(d["n"])
    return from_edge_list(d["n"], d["edges"], d.get("labels"))


def parse_edge_list_text(text: str) -> BlockGraph:
    """Plain format: first line n, then one 'u v' pair per line; blank
    lines and lines whose first non-blank character is '#' are skipped."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"vertex count must be a nonnegative integer, got {lines[0]!r}") from None
    check_vertex_count(n)
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return from_edge_list(n, edges)


def load_graph(path) -> BlockGraph:
    """Read a graph from JSON or plain edge-list text, sniffing the format."""
    text = Path(path).read_text()
    # a plain edge list starts with its vertex count; a JSON number cannot
    # be told from one, so only the other JSON values are read as JSON
    if text.lstrip().startswith(("{", "[", '"', "null", "true", "false")):
        return graph_from_json_dict(json.loads(text))
    return parse_edge_list_text(text)


def _dot_quoted(text) -> str:
    """`text` as a DOT quoted string: backslashes and quotes escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: BlockGraph) -> str:
    lines = ["graph g {"]
    for v in range(g.n):
        label = f" [label={_dot_quoted(g.labels[v])}]" if g.labels is not None else ""
        lines.append(f"  {v}{label};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


def instance_from_json(path) -> BinPackingInstance:
    return BinPackingInstance.from_json_dict(json.loads(Path(path).read_text()))


def certificate_to_json_dict(cert: CharCertificate) -> dict:
    return {
        "base_graph": graph_to_json_dict(cert.base_graph),
        "base_vertex": cert.base_vertex,
        "steps": [
            {
                "kind": op.kind.value,
                "anchors": list(op.anchors),
                "sizes": list(op.sizes),
                "extension": (
                    {"clique_index": op.star_extension.clique_index, "size": op.star_extension.size}
                    if op.star_extension is not None
                    else None
                ),
            }
            for op in cert.steps
        ],
        "r": cert.r,
    }


def certificate_from_json_dict(d: dict) -> CharCertificate:
    require_object(d, "certificate", ("base_graph", "base_vertex", "steps", "r"))
    if not isinstance(d["steps"], list):
        raise ValueError(f"steps must be a list, got {d['steps']!r}")
    steps = []
    for i, s in enumerate(d["steps"]):
        require_object(s, f"step {i}", ("kind", "anchors", "sizes"))
        ext = s.get("extension")
        if ext is not None and not isinstance(ext, dict):
            raise ValueError(f"step {i} extension must be an object or null, got {ext!r}")
        if ext is not None:
            require_object(ext, f"step {i} extension", ("clique_index", "size"))
        kind = require_int(s["kind"], f"step {i} kind")
        if not 1 <= kind <= len(OpKind):  # the kinds are numbered 1..5
            raise ValueError(f"step {i} kind must be in 1..{len(OpKind)}, got {kind}")
        steps.append(
            OpDescriptor(
                OpKind(kind),
                require_ints(s["anchors"], f"step {i} anchors"),
                require_ints(s["sizes"], f"step {i} sizes"),
                StarExtension(
                    require_int(ext["clique_index"], f"step {i} extension clique_index"),
                    require_int(ext["size"], f"step {i} extension size"),
                ) if ext is not None else None,
            )
        )
    if require_int(d["r"], "r") != len(steps) + 1:
        raise ValueError(f"certificate r is {d['r']}, but its step count {len(steps)} "
                         f"gives r = {len(steps) + 1}")
    base = graph_from_json_dict(d["base_graph"], "base_graph")
    # bounded before any replay: a clique or extension of size s adds s - 1 vertices
    sizes = [s for op in steps for s in op.sizes]
    sizes += [op.star_extension.size for op in steps if op.star_extension is not None]
    grown = base.n + sum(s - 1 for s in sizes if s > 1)
    if grown > MAX_VERTICES:
        raise ValueError(f"certificate replay can grow {grown} vertices, "
                         f"above the maximum {MAX_VERTICES}")
    return CharCertificate(base, require_int(d["base_vertex"], "base_vertex"), tuple(steps))


def coloring_from_json_dict(d: dict) -> Coloring:
    """A Coloring from its JSON form: `colors` maps decimal vertex ids,
    without leading zeros, to colors in 1..t, and t is at least 1."""
    require_object(d, "coloring", ("colors", "t"))
    require_object(d["colors"], "colors", ())
    t = require_int(d["t"], "t")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    colors = {}
    for v, c in d["colors"].items():
        if not (isinstance(v, str) and v.isascii() and v.isdecimal()):
            raise ValueError(f"colors key {v!r} is not a decimal vertex id")
        if v != str(int(v)):
            raise ValueError(f"colors key {v!r} is not written as vertex id {int(v)}")
        c = require_int(c, f"color of vertex {v}")
        if not 1 <= c <= t:
            raise ValueError(f"colors: vertex {v} has color {c} outside 1..{t}")
        colors[int(v)] = c
    return Coloring(colors, t)
