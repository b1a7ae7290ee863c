"""Static checks on the package source: no function-local that is
assigned and never read, no import that nothing uses, no import inside
a function, and no private helper that nothing references."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "blockeq").glob("*.py"))


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _own_stores(fn):
    """Names a function binds by assignment, not counting nested scopes."""
    out, todo = set(), list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_locals_or_unused_imports(path):
    tree = ast.parse(path.read_text())
    unread = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a leading underscore marks a binding left unread on purpose
            dead = {name for name in _own_stores(fn) - _loads(fn) if not name.startswith("_")}
            unread += [f"{fn.name}: {name}" for name in sorted(dead)]
    assert not unread, f"locals assigned and never read: {unread}"

    if path.name == "__init__.py":
        return  # the package's imports are its exports
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    unused = imported - _loads(tree)
    assert not unused, f"unused imports: {sorted(unused)}"


def _private_defs(body):
    """Module- or class-level functions and classes named with a leading
    underscore, dunders aside."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from _private_defs(node.body)


def _references(node):
    """Every name a subtree mentions: as a name, an attribute or an import."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.split(".")[-1])
    return out


def test_no_unreferenced_private_helpers():
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    refs = [name for tree in trees for name in _references(tree)]
    # a helper that only calls itself is still dead
    dead = sorted(
        f"{path.name}: {d.name}"
        for path, tree in zip(SOURCES, trees) for d in _private_defs(tree.body)
        if refs.count(d.name) == _references(d).count(d.name)
    )
    assert not dead, f"private helpers nothing references: {dead}"


def test_oracle_imports_nothing_from_the_fast_side():
    # the oracle is ground truth only while it shares no code with what it checks
    tree = ast.parse(next(p for p in SOURCES if p.name == "oracle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((getattr(node, "module", None) or "").split("."))
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & {"invariants", "characterization", "cli"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text())
    local = sorted(
        f"{fn.name}: line {node.lineno}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert not local, f"imports inside a function: {local}"


# Every function in the package that calls itself by name, with what
# bounds its depth; any other recursion could exceed Python's recursion
# limit on a valid input well inside MAX_VERTICES.
BOUNDED_RECURSION = {
    # depth <= max_n: each call takes a piece of size >= 1 off `total`
    "graph._multisets",
    # depth <= BRUTE_CAP + 1: the vertex count is capped before the search
    "oracle._brute_alpha_search.rec",
    # depth <= 21: `bin_packing_decide` is capped at BRUTE_CAP = 20 items
    "oracle.bin_packing_decide.rec",
    # reached only from tests, `count_block_graphs_by_filter` (n <= 6 in the
    # tests) and the benchmark's checks of the generator's keys
    "oracle.canonical_form.encode",
}


def _self_calling(body, prefix):
    """Qualified names of the functions in `body`, at any depth, that call
    themselves by name (or as `self.name` / `cls.name`)."""
    out = []
    todo = [(node, prefix) for node in body]
    while todo:
        node, where = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{where}.{node.name}"
            if not isinstance(node, ast.ClassDef) and any(
                isinstance(call, ast.Call) and (
                    isinstance(call.func, ast.Name) and call.func.id == node.name
                    or isinstance(call.func, ast.Attribute) and call.func.attr == node.name
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in ("self", "cls"))
                for call in ast.walk(node)
            ):
                out.append(name)
            where = name
        todo.extend((child, where) for child in ast.iter_child_nodes(node))
    return out


def test_recursion_only_where_its_depth_is_bounded():
    found = sorted(
        name for path in SOURCES
        for name in _self_calling(ast.parse(path.read_text()).body, path.stem)
    )
    assert found == sorted(BOUNDED_RECURSION)


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_adjacency_bound_once_outside_loops(path):
    # `_adj` is a property that may build the adjacency on its first read;
    # a loop reads it through a local bound before the loop
    tree = ast.parse(path.read_text())
    inside = sorted({
        f"line {node.lineno}"
        for loop in ast.walk(tree) if isinstance(loop, _LOOPS)
        for node in ast.walk(loop)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "_adj"
    })
    assert not inside, f"`._adj[...]` read inside a loop: {inside}"


# The fast side reads N[v] off the block index, never through the
# adjacency accessors of `BlockGraph`, so a graph built from its blocks
# builds no adjacency there; component walks belong to the oracle.
BLOCK_INDEX_READERS = ["characterization.py", "invariants.py", "gls.py", "cli.py"]


def _is_a_decomposition(node):
    """Whether an expression is a `BlockDecomposition` by its spelling: a
    `decompose(...)` call, or a name or attribute called `deco`."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "decompose"
    return getattr(node, "id", getattr(node, "attr", None)) == "deco"


@pytest.mark.parametrize("name", BLOCK_INDEX_READERS)
def test_fast_side_reads_neighborhoods_off_the_block_index(name):
    tree = ast.parse(next(p for p in SOURCES if p.name == name).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "neighbors" or (
                attr == "closed_neighborhood" and not _is_a_decomposition(node.func.value)
            ):
                found.append(f"line {node.lineno}: .{attr}(")
        named = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if named == "connected_components":
            found.append(f"line {getattr(node, 'lineno', '?')}: connected_components")
    assert not found, f"neighborhoods read past the block index: {found}"


_FOREST_LISTS = {"up", "order"}


def _builds_forest_lists(fn):
    """Lines where a function fills an `up` or `order` list itself: binds
    one to anything but the unpacked result of `_rooted_forest(...)`,
    extends it, stores into it or appends to it."""
    def named(node):
        return isinstance(node, ast.Name) and node.id in _FOREST_LISTS

    lines = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = [t for tgt in node.targets for t in ast.walk(tgt) if named(t)]
            from_walk = (isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                         and node.value.func.id == "_rooted_forest")
            stored = any(isinstance(t, ast.Subscript) and named(t.value) for t in node.targets)
            if targets and not from_walk or stored:
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and named(node.target):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and named(node.func.value) and node.func.attr in ("append", "extend")):
            lines.append(node.lineno)
    return lines


def test_one_forest_walk_in_invariants():
    # the alpha and dc passes read one BFS of the block-cut forest, which
    # only `_rooted_forest` builds
    tree = ast.parse(next(p for p in SOURCES if p.name == "invariants.py").read_text())
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    builders = sorted(f"{name}: line {line}" for name, fn in functions.items()
                      if name != "_rooted_forest" for line in _builds_forest_lists(fn))
    assert not builders, f"forest lists built outside `_rooted_forest`: {builders}"
    assert _builds_forest_lists(functions["_rooted_forest"])
    for name in ("_alpha_pass", "dc_exact"):
        calls = {node.func.id for node in ast.walk(functions[name])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_rooted_forest" in calls, name
