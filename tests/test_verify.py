"""The independent counter of criterion 1, the exact-arithmetic rule and
the boundary of the linear-algebra oracle."""

import ast
import collections
import itertools
import pathlib

import pytest

import wpline
from wpline import verify


def set_partitions(m: int):
    """All set partitions of range(m), as tuples of sorted tuples
    listed by their smallest labels (Bell-number many)."""
    parts = []

    def rec(i, blocks):
        if i == m:
            parts.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return parts


def is_noncrossing(blocks) -> bool:
    return not any(verify._blocks_cross(a, b)
                   for i, a in enumerate(blocks) for b in blocks[i + 1:])


def is_half_turn_invariant(blocks, n: int) -> bool:
    key = frozenset(frozenset(b) for b in blocks)
    return key == frozenset(frozenset((x + n) % (2 * n) for x in b) for b in blocks)


@pytest.mark.parametrize("m", range(9))
def test_noncrossing_partitions_match_filtered_set_partitions(m):
    want = [p for p in set_partitions(m) if is_noncrossing(p)]
    got = verify.noncrossing_partitions(m)
    assert len(got) == len(set(got))
    assert set(got) == set(want)


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetric_count_matches_set_partition_reference(n):
    want = sum(1 for p in set_partitions(2 * n)
               if is_half_turn_invariant(p, n) and is_noncrossing(p))
    assert verify.noncrossing_symmetric_count(n) == want == verify.TUBE_COUNTS[n]


def float_uses(tree, allowed):
    """Line numbers and kinds of true division, float() calls and float
    literals in a module, skipping the allowed literal nodes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            yield node.lineno, "float()"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)) \
                and node not in allowed:
            yield node.lineno, repr(node.value)


def time_budgets(tree):
    """The float literals of the comparisons `elapsed <= <literal>`: the
    time budgets of the acceptance criteria."""
    return {node.comparators[0] for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id == "elapsed" and len(node.ops) == 1
            and isinstance(node.ops[0], ast.LtE)
            and isinstance(node.comparators[0], ast.Constant)
            and isinstance(node.comparators[0].value, float)}


def test_library_arithmetic_is_exact():
    """No module of the package divides with `/`, calls float() or
    writes a float literal; the only floats allowed are the three time
    budgets of verify."""
    root = pathlib.Path(wpline.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert {p.name for p in modules} >= {"grading.py", "ktheory.py", "sheaves.py", "verify.py"}
    found, budgets = [], 0
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        allowed = time_budgets(tree) if path.name == "verify.py" else set()
        budgets += len(allowed)
        found += [(path.name, line, kind) for line, kind in float_uses(tree, allowed)]
    assert found == []
    assert budgets == 3


def imported_modules(tree):
    """Names of the package modules a module imports, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("wpline").lstrip(".")
            if base:
                yield base.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.removeprefix("wpline.") for alias in node.names)


def test_only_the_oracle_imports_linalg():
    """Exact linear algebra is the independent oracle behind the tube
    layer: only nilpotent and tube may import linalg."""
    root = pathlib.Path(wpline.__file__).parent
    users = {path.stem for path in root.glob("*.py")
             if "linalg" in imported_modules(ast.parse(path.read_text(), str(path)))}
    assert users == {"nilpotent", "tube"}


# the functions of tube.py that run the linear-algebra oracle
TUBE_ORACLE_FUNCTIONS = {"_rep", "arc_hom_basis", "_inclusion_matrices", "_compose",
                         "ext_classes", "_middle_summands", "_pair_row"}


def oracle_uses_outside(tree, oracle) -> set:
    """(top-level definition, name) of each use of linalg, or of a name
    imported from nilpotent other than Arc, outside the top-level
    functions named in oracle; module-level code counts as "<module>"."""
    guarded = {"linalg"} | {alias.asname or alias.name for node in tree.body
                            if isinstance(node, ast.ImportFrom) and node.module == "nilpotent"
                            for alias in node.names} - {"Arc"}
    found = set()
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        if owner in oracle and isinstance(node, ast.FunctionDef):
            continue
        found |= {(owner, n.id) for n in ast.walk(node)
                  if isinstance(n, ast.Name) and n.id in guarded}
    return found


def test_oracle_boundary_verdict_on_synthetic_module():
    """A guarded name in a non-oracle function or at module level is
    reported; Arc and the oracle functions are free."""
    tree = ast.parse("from . import linalg\n"
                     "from .nilpotent import Arc, decompose\n"
                     "def _rep(a: Arc):\n"
                     "    return decompose(linalg.rank(a))\n"
                     "def runtime(a: Arc):\n"
                     "    return linalg.rank(a)\n"
                     "TABLE = decompose\n")
    assert oracle_uses_outside(tree, {"_rep"}) == {("runtime", "linalg"),
                                                  ("<module>", "decompose")}


def test_tube_keeps_linear_algebra_in_the_oracle_functions():
    """Inside tube.py, linalg and the nilpotent names other than Arc
    appear only in the oracle functions; the closed forms, the Universe
    and the lattice never reach them."""
    path = pathlib.Path(wpline.__file__).parent / "tube.py"
    tree = ast.parse(path.read_text(), str(path))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert TUBE_ORACLE_FUNCTIONS <= defined
    assert oracle_uses_outside(tree, TUBE_ORACLE_FUNCTIONS) == set()


def empty_dict_bindings(tree):
    """Names a module binds at its top level to an empty dict display or
    to dict() with no arguments."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "dict" and not value.args and not value.keywords):
            yield from (ast.unparse(t) for t in targets)


def test_memo_tables_are_functools_cache():
    """No module keeps a hand-filled module-level table: a memo is
    functools.cache on the function that computes its entries."""
    root = pathlib.Path(wpline.__file__).parent
    found = [(path.name, name) for path in sorted(root.glob("*.py"))
             for name in empty_dict_bindings(ast.parse(path.read_text(), str(path)))]
    assert found == []


# kept without a library caller, with the reason
DEAD_FUNCTION_ALLOWLIST = {
    ("nilpotent.py", "composite_rank"): "the benchmark traces it by name (ROADMAP item 1)",
}


def named_functions(tree):
    """(is a method, function) for the module-level functions and the
    methods of top-level classes, public or private, but no dunder:
    Python calls those by protocol."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        yield from ((method, f) for f in (node.body if method else [node])
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__")))


def name_counts(tree) -> collections.Counter:
    """How often each name and attribute occurs in tree."""
    return collections.Counter(node.id if isinstance(node, ast.Name) else node.attr
                               for node in ast.walk(tree)
                               if isinstance(node, (ast.Name, ast.Attribute)))


def module_uses(module, tree) -> collections.Counter:
    """The uses of module-level names in tree, a part of module, keyed by
    (module of the name, name): bare names count for module itself,
    `from .mod import name` and `mod.name` for mod."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[module, node.id] += 1
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.update((f"{node.module}.py", alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out[f"{node.value.id}.py", node.attr] += 1
    return out


def dead_functions(trees) -> set:
    """(module, name) of the non-dunder functions whose every use lies
    inside their own definition; trees maps module file names to parsed
    modules.  A module-level function is used by its bare name in its
    own module, by `from .mod import name` or by `mod.name`; a method
    by its name or any attribute of that name.  Uses are counted once
    per module and once per function body."""
    names = sum(map(name_counts, trees.values()), collections.Counter())
    uses = sum(itertools.starmap(module_uses, trees.items()), collections.Counter())
    return {(module, f.name) for module, tree in trees.items()
            for method, f in named_functions(tree)
            if (names[f.name] == name_counts(f)[f.name] if method
                else uses[module, f.name] == module_uses(module, f)[module, f.name])}


def test_dead_function_verdict_on_synthetic_modules():
    """A function named only inside its own body or by its own recursion
    is dead, private or not, and so is a module-level function named only
    as an attribute of some other object; a module attribute or an import
    from another module keeps one alive, any attribute keeps a method
    alive, and a dunder is never reported."""
    trees = {"a.py": ast.parse("def lonely():\n"
                               "    return lonely\n"
                               "def recurse(n):\n"
                               "    return recurse(n - 1) if n else 0\n"
                               "def used():\n"
                               "    return 1\n"
                               "def imported():\n"
                               "    return 3\n"
                               "def size():\n"
                               "    return 4\n"
                               "def _helper():\n"
                               "    return 2\n"
                               "class C:\n"
                               "    def __neg__(self):\n"
                               "        return self\n"
                               "    def _hidden(self):\n"
                               "        return self\n"
                               "    def width(self):\n"
                               "        return self\n"),
             "b.py": ast.parse("import a\n"
                               "from .a import imported\n"
                               "value = a.used()\n"
                               "other = value.size + value.width\n")}
    assert dead_functions(trees) == {("a.py", "lonely"), ("a.py", "recurse"),
                                     ("a.py", "_helper"), ("a.py", "_hidden"),
                                     ("a.py", "size")}


def test_every_function_has_a_library_caller():
    """A function or method of src/wpline, public or private but not a
    dunder, that nothing in src/wpline names outside its own definition
    is dead code: it moves to the tests that use it, or goes."""
    root = pathlib.Path(wpline.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(root.glob("*.py"))}
    assert dead_functions(trees) == set(DEAD_FUNCTION_ALLOWLIST)
