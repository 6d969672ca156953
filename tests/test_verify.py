"""The independent counter of criterion 1, the faults criterion 11
reports, the exact-arithmetic rule, the boundary of the linear-algebra
oracle and the benchmark's traced names."""

import ast
import collections
import functools
import importlib
import inspect
import itertools
import json
import pathlib

import pytest

import wpline
from wpline import nilpotent, tube, verify
from wpline import widposet as wp
from wpline.grading import make_line


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


def poset_with(weights, lo, hi, ids=(), **changes):
    """A built poset whose named nodes are rebuilt with other fields:
    changes maps a node name to a function from the node and the nodes
    by name to the replacement."""
    poset = wp.build_poset(make_line(weights), lo, hi, ids)
    by_name = {n.name: n for n in poset.nodes}
    poset.nodes = tuple(changes[n.name](n, by_name) if n.name in changes else n
                        for n in poset.nodes)
    return poset


@pytest.mark.parametrize("weights, lo, hi, ids", [((2,), -2, 3, ()), ((1, 1), -2, 3, ("0", "1")),
                                                  ((4,), -4, 2, ()), ((2, 2), -4, 4, ("q",))])
def test_order_tags_of_built_posets_pass(weights, lo, hi, ids):
    poset = wp.build_poset(make_line(weights), lo, hi, ids)
    assert verify.order_tag_problems(poset, wp.poset_json(poset)) == []


def test_order_tags_report_a_node_without_verdicts():
    """T0 is exceptional only: without its generators no verdict covers
    the pairs it lies below."""
    poset = poset_with((2,), -2, 3, T0=lambda n, _: wp.PosetNode(n.name, n.mask, None, None))
    assert verify.order_tag_problems(poset, wp.poset_json(poset)) == [
        f"no verdict on T0 < {v}" for v in ("T1(-1)", "T1", "T2", "coh")]


def test_order_tags_report_data_that_contradict_inclusion():
    """tor(inf) given the invariant data of S[2](inf,0): by the data it
    lies below T2 and not above S[2](inf,1), against snapshot inclusion."""
    poset = poset_with((2,), -2, 3, **{"tor(inf)": lambda n, by_name: wp.PosetNode(
        n.name, n.mask, n.exc_gens, by_name["S[2](inf,0)"].cinv)})
    problems = verify.order_tag_problems(poset, wp.poset_json(poset))
    assert "cinv verdict on S[2](inf,1) < tor(inf) is False, inclusion True" in problems
    assert "cinv verdict on tor(inf) < T2 is True, inclusion False" in problems


def test_order_tags_report_a_dropped_json_tag():
    poset = wp.build_poset(make_line((2,)), -2, 3)
    doc = wp.poset_json(poset)
    del doc["ord_tags"]["T0<T1"]
    assert verify.order_tag_problems(poset, doc) == ["ord_tags differ from the verdicts"]


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


def imported_modules(tree, walk=ast.walk):
    """Names of the package modules a module imports, relative or
    absolute, among the nodes walk(tree) yields."""
    for node in walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("wpline").lstrip(".")
            if base:
                yield base.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.removeprefix("wpline.") for alias in node.names)


def import_time_nodes(tree):
    """The nodes of tree outside every function and lambda body: the code
    a module runs when it is imported."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_import_time_verdict_on_synthetic_module():
    """Imports at the top level, under an if and in a class body run on
    import; those in a function or method body do not."""
    tree = ast.parse("from . import a\n"
                     "if flag:\n"
                     "    import wpline.b\n"
                     "class C:\n"
                     "    from .c import y\n"
                     "    def f(self):\n"
                     "        from .d import z\n"
                     "def g():\n"
                     "    import wpline.e\n")
    assert sorted(imported_modules(tree, import_time_nodes)) == ["a", "b", "c"]
    assert sorted(imported_modules(tree)) == ["a", "b", "c", "d", "e"]


def test_grading_imports_ktheory_only_for_a_record():
    """grading imports ktheory only in the body of WeightData._k0, which
    builds a line's K0 record on its first read, so the grading group
    never loads the Grothendieck group on import."""
    path = pathlib.Path(wpline.__file__).parent / "grading.py"
    tree = ast.parse(path.read_text(), str(path))
    assert "ktheory" not in set(imported_modules(tree, import_time_nodes))
    assert "ktheory" in set(imported_modules(tree))


def test_only_the_oracle_imports_linalg():
    """Exact linear algebra is the independent oracle behind the tube
    layer: only nilpotent may import linalg, and tube reaches it through
    nilpotent."""
    root = pathlib.Path(wpline.__file__).parent
    users = {path.stem for path in root.glob("*.py")
             if "linalg" in imported_modules(ast.parse(path.read_text(), str(path)))}
    assert users == {"nilpotent"}


# the functions of tube.py that run the linear-algebra oracle
TUBE_ORACLE_FUNCTIONS = {"_rep", "arc_hom_basis", "ext_classes", "_middle_summands"}


def test_only_the_tube_oracle_functions_import_nilpotent():
    """No module imports nilpotent on import, so a process loads it, and
    linalg, only on a first oracle call: tube imports it inside its
    oracle functions alone, and nilpotent takes Arc from tube."""
    root = pathlib.Path(wpline.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in root.glob("*.py")}
    assert [name for name, tree in trees.items()
            if "nilpotent" in imported_modules(tree, import_time_nodes)] == []
    assert {name for name, tree in trees.items() if "nilpotent" in imported_modules(tree)} == \
        {"tube"}
    assert {node.name for node in trees["tube"].body
            if "nilpotent" in imported_modules(node)} == TUBE_ORACLE_FUNCTIONS
    assert nilpotent.Arc is tube.Arc


def oracle_uses_outside(tree, oracle) -> set:
    """(top-level definition, name) of each use of linalg, or of a name
    imported from nilpotent anywhere in the module other than Arc, outside
    the top-level functions named in oracle; module-level code counts as
    "<module>"."""
    guarded = {"linalg"} | {alias.asname or alias.name for node in ast.walk(tree)
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


def freeze_calls(tree) -> list:
    """The top-level definition around each call of gc.freeze, however gc
    or freeze is imported; module-level code counts as "<module>"."""
    gc_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "gc"}
    freeze_names = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "gc"
                    for alias in node.names if alias.name == "freeze"}

    def is_freeze(f) -> bool:
        return (isinstance(f, ast.Name) and f.id in freeze_names
                or isinstance(f, ast.Attribute) and f.attr == "freeze"
                and isinstance(f.value, ast.Name) and f.value.id in gc_names)

    return [getattr(node, "name", "<module>") for node in tree.body
            for n in ast.walk(node) if isinstance(n, ast.Call) and is_freeze(n.func)]


def test_only_main_freezes_the_heap():
    """gc.freeze is called once, in cli.main, after the request: run()
    is called in process by the tests and by library callers, whose
    garbage a freeze there would keep until their process ends."""
    root = pathlib.Path(wpline.__file__).parent
    found = [(path.name, owner) for path in sorted(root.glob("*.py"))
             for owner in freeze_calls(ast.parse(path.read_text(), str(path)))]
    assert found == [("cli.py", "main")]


def test_freeze_lint_verdict_on_synthetic_module():
    """Calls through an aliased module or an imported name are found,
    at module level too; another module's freeze is not one."""
    tree = ast.parse("import gc as g\n"
                     "from gc import freeze as fz\n"
                     "import pickle\n"
                     "def run():\n"
                     "    g.freeze()\n"
                     "def main():\n"
                     "    def inner():\n"
                     "        fz()\n"
                     "    pickle.freeze()\n"
                     "fz()\n")
    assert freeze_calls(tree) == ["run", "main", "<module>"]


def test_tube_keeps_linear_algebra_in_the_oracle_functions():
    """Inside tube.py, linalg and the nilpotent names other than Arc
    appear only in the oracle functions; the closed forms, the Universe
    and the lattice never reach them."""
    path = pathlib.Path(wpline.__file__).parent / "tube.py"
    tree = ast.parse(path.read_text(), str(path))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert TUBE_ORACLE_FUNCTIONS <= defined
    assert oracle_uses_outside(tree, TUBE_ORACLE_FUNCTIONS) == set()


def is_empty_dict(node) -> bool:
    """Whether node is an empty dict display or dict() with no arguments."""
    return (isinstance(node, ast.Dict) and not node.keys) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "dict" and not node.args and not node.keywords)


def assignments(nodes):
    """(targets, value) of each assignment with a value among nodes."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            yield node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield [node.target], node.value


def empty_dict_bindings(tree):
    """Names a module binds at its top level to an empty dict display or
    to dict() with no arguments."""
    for targets, value in assignments(tree.body):
        if is_empty_dict(value):
            yield from (ast.unparse(t) for t in targets)


def empty_instance_dicts(tree):
    """Attributes of self that any code of a module binds to an empty
    dict display or to dict() with no arguments."""
    for targets, value in assignments(ast.walk(tree)):
        if is_empty_dict(value):
            yield from (ast.unparse(t) for t in targets
                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "self")


def test_memo_tables_are_functools_cache():
    """No module keeps a hand-filled module-level table: a memo is
    functools.cache on the function that computes its entries."""
    root = pathlib.Path(wpline.__file__).parent
    found = [(path.name, name) for path in sorted(root.glob("*.py"))
             for name in empty_dict_bindings(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_empty_instance_dict_verdict_on_synthetic_module():
    """Plain, chained and annotated bindings of self's attributes are
    reported, in methods and nested functions alike; other names, and
    dicts with entries or arguments, are not."""
    tree = ast.parse("class A:\n"
                     "    def __init__(self):\n"
                     "        self.a = {}\n"
                     "        self.b = other.c = dict()\n"
                     "        self.d: dict = {}\n"
                     "        self.e = {1: 2}\n"
                     "        self.f = dict(x=1)\n"
                     "        g = {}\n"
                     "        def inner():\n"
                     "            self.h = {}\n")
    assert list(empty_instance_dicts(tree)) == ["self.a", "self.b", "self.d", "self.h"]


def test_instance_memos_fill_themselves():
    """No object keeps a hand-filled table on self: a per-instance memo
    is a ktheory._Memo, which fills a missing key from one function,
    and a module-level one is functools.cache."""
    root = pathlib.Path(wpline.__file__).parent
    found = [(path.name, name) for path in sorted(root.glob("*.py"))
             for name in empty_instance_dicts(ast.parse(path.read_text(), str(path)))]
    assert found == []


# kept without a library caller, with the reason; each one is called in bench/*.py
DEAD_FUNCTION_ALLOWLIST = {
    ("sheaves.py", "shift"): "bench/child.py builds its cox queries with it",
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


def module_calls(tree) -> set:
    """(module file, name) of the calls in tree of a name imported by
    `from ..mod import name` (or `as` another), and of `mod.name`."""
    origin = {alias.asname or alias.name: (f"{node.module.rpartition('.')[2]}.py", alias.name)
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
              for alias in node.names}
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in origin:
            out.add(origin[f.id])
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            out.add((f"{f.value.id}.py", f.attr))
    return out


def test_module_calls_verdict_on_synthetic_module():
    """A call of an imported name or of a module attribute counts; a
    name in a string, a reference without a call or a method of some
    other object does not."""
    tree = ast.parse("from wpline import sheaves\n"
                     "from wpline.nilpotent import decompose, hom_basis as hb\n"
                     "names = ['composite_rank']\n"
                     "f = decompose\n"
                     "sheaves.shift(1, 2)\n"
                     "hb(1, 2)\n"
                     "x.y.tau()\n")
    assert module_calls(tree) == {("sheaves.py", "shift"), ("nilpotent.py", "hom_basis")}


def test_allowlist_entries_are_called_by_the_benchmark():
    """Each allowlisted function is called in bench/*.py, the reason it
    stays without a library caller; a name the benchmark only lists as a
    string does not keep a function."""
    bench = pathlib.Path(__file__).parent.parent / "bench"
    calls = set().union(*(module_calls(ast.parse(path.read_text(), str(path)))
                          for path in sorted(bench.glob("*.py"))))
    assert set(DEAD_FUNCTION_ALLOWLIST) <= calls
    assert ("nilpotent.py", "composite_rank") not in calls


def test_every_function_has_a_library_caller():
    """A function or method of src/wpline, public or private but not a
    dunder, that nothing in src/wpline names outside its own definition
    is dead code: it moves to the tests that use it, or goes."""
    root = pathlib.Path(wpline.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(root.glob("*.py"))}
    assert dead_functions(trees) == set(DEAD_FUNCTION_ALLOWLIST)


def reached_functions(trees, module, name) -> set:
    """(module, name) of the functions module.name reaches, through its
    body and theirs; trees maps module file names to parsed modules, and
    a method is named Class.method.  Uses resolve as in dead_functions: a
    module-level function by its bare name in its own module, by
    `from .mod import name` at module level or in a function body, or by
    `mod.name`; a method by an attribute of its name, but only one that
    is called or names a property, since a field may share a method's
    name (LineBundle.degree and GradeElement.degree)."""
    defs, methods = {}, collections.defaultdict(list)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[mod, node.name] = node
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                        defs[mod, f"{node.name}.{f.name}"] = f
                        methods[f.name].append((mod, f"{node.name}.{f.name}"))
    imports = {mod: {alias.asname or alias.name: (f"{node.module}.py", alias.name)
                     for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
                     for alias in node.names}
               for mod, tree in trees.items()}

    def is_property(key):
        return any(ast.unparse(d) in {"property", "cached_property"}
                   for d in defs[key].decorator_list)

    def callees(key):
        f, mod = defs[key], key[0]
        called = {id(node.func) for node in ast.walk(f) if isinstance(node, ast.Call)}
        for node in ast.walk(f):
            if isinstance(node, ast.Name):
                yield imports[mod].get(node.id, (mod, node.id))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    yield f"{node.value.id}.py", node.attr
                yield from (m for m in methods.get(node.attr, ())
                            if id(node) in called or is_property(m))

    found, todo = set(), [(module, name)]
    while todo:
        for key in callees(todo.pop()):
            if key in defs and key not in found:
                found.add(key)
                todo.append(key)
    return found


def test_reached_functions_verdict_on_synthetic_modules():
    """Reach follows bare names, imported names, module attributes, called
    methods and properties, transitively; a plain method named by an
    attribute that is not called, and a function nobody names, are not
    reached."""
    trees = {"a.py": ast.parse("from . import b\n"
                               "from .b import helper as h\n"
                               "def start(x):\n"
                               "    return h(x) + b.other(x) + x.size() + x.top + x.degree + local\n"
                               "def local():\n"
                               "    return 'never'\n"
                               "def unused():\n"
                               "    return 0\n"
                               "class C:\n"
                               "    def size(self):\n"
                               "        return deep()\n"
                               "    @property\n"
                               "    def top(self):\n"
                               "        return 1\n"
                               "    def degree(self):\n"
                               "        return unused()\n"
                               "def deep():\n"
                               "    return 3\n"),
             "b.py": ast.parse("def helper(x):\n"
                               "    return leaf(x)\n"
                               "def leaf(x):\n"
                               "    return x\n"
                               "def other(x):\n"
                               "    return x\n"
                               "def never():\n"
                               "    return 0\n")}
    assert reached_functions(trees, "a.py", "start") == {
        ("b.py", "helper"), ("b.py", "leaf"), ("b.py", "other"), ("a.py", "local"),
        ("a.py", "C.size"), ("a.py", "deep"), ("a.py", "C.top")}


def test_reached_functions_follow_function_level_imports():
    """A name imported inside a function body resolves to its module, as
    tube's oracle functions import nilpotent's."""
    trees = {"a.py": ast.parse("def start(x):\n"
                               "    from .b import helper\n"
                               "    return helper(x)\n"),
             "b.py": ast.parse("def helper(x):\n"
                               "    return leaf(x)\n"
                               "def leaf(x):\n"
                               "    return x\n")}
    assert reached_functions(trees, "a.py", "start") == {("b.py", "helper"), ("b.py", "leaf")}


def test_oracle_entry_points_reach_nilpotent():
    """The call graph follows tube's function-level imports into
    nilpotent, so the two lints below walk the oracle to its end."""
    root = pathlib.Path(wpline.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(root.glob("*.py"))}
    for name, wanted in (("_pair_row", {"hom_basis"}),
                         ("extension_middles", {"decompose", "pushout_middle"}),
                         ("ext_dim_via_presentation", {"ext_basis", "rep_of_arc"})):
        assert {("nilpotent.py", f) for f in wanted} <= reached_functions(trees, "tube.py", name)


def test_ext_paths_share_no_helper():
    """The alternate Ext path (dual degree, closed multiplicity, the
    standard resolution) and the closed Ext (borrow and winding counts) reach
    no common function of src/wpline but the line guard, so each one
    checks the other."""
    root = pathlib.Path(wpline.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(root.glob("*.py"))}
    closed = reached_functions(trees, "sheaves.py", "ext_dim_sheaf")
    alt = reached_functions(trees, "sheaves.py", "ext_dim_sheaf_alt")
    assert {("sheaves.py", "_hom"), ("tube.py", "ext_dim"), ("tube.py", "windings")} <= closed
    assert {("grading.py", "dim_S"), ("tube.py", "Arc.multiplicity"),
            ("tube.py", "ext_classes")} <= alt
    assert closed & alt == {("sheaves.py", "_same_line")}


# the tube functions that run the linear-algebra oracle, and what they must not reach
ORACLE_ENTRY_POINTS = ("_pair_row", "closure_members", "wide_closure",
                       "enumerate_wide_bruteforce", "extension_middles",
                       "ext_dim_via_presentation", "bongartz_complete")
CLOSED_FORMS = {("tube.py", name) for name in ("hom_dim", "ext_dim", "windings", "tube_universe")}


def test_oracle_reaches_no_closed_form():
    """The oracle entry points of tube.py reach neither the closed-form
    Hom and Ext, nor their winding count, nor the tube universe, nor any
    Universe method, so the oracle stays independent of what it checks."""
    root = pathlib.Path(wpline.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(root.glob("*.py"))}
    for name in ORACLE_ENTRY_POINTS:
        reached = reached_functions(trees, "tube.py", name)
        assert {("tube.py", "arc_hom_basis"), ("tube.py", "ext_classes")} & reached, name
        assert reached & CLOSED_FORMS == set(), name
        assert [key for key in reached if key[1].startswith("Universe.")] == [], name


def code_calls(tree) -> list:
    """The bare-name calls of exec, eval or compile in tree."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"exec", "eval", "compile"}]


def generated_code_calls(tree) -> list:
    """(line, name) of the code_calls of a module outside the method
    `Record.__init_subclass__`, the one place that compiles code."""
    allowed = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "Record"
               for f in cls.body
               if isinstance(f, ast.FunctionDef) and f.name == "__init_subclass__"
               for node in code_calls(f)}
    return sorted((node.lineno, node.func.id) for node in code_calls(tree)
                  if id(node) not in allowed)


def test_generated_code_verdict_on_synthetic_module():
    """A call at module level, in another method of Record or in another
    class's __init_subclass__ is reported; a method of that name is not."""
    tree = ast.parse("eval('1')\n"
                     "class Record:\n"
                     "    def __init_subclass__(cls):\n"
                     "        exec('x = 1', {})\n"
                     "    def __repr__(self):\n"
                     "        return compile('1', '', 'eval')\n"
                     "class Other:\n"
                     "    def __init_subclass__(cls):\n"
                     "        exec('y = 2')\n"
                     "re.compile('a')\n")
    assert generated_code_calls(tree) == [(1, "eval"), (6, "compile"), (9, "exec")]


def test_only_record_base_generates_code():
    """No module of src/wpline calls exec, eval or compile by its bare name
    but Record.__init_subclass__, which compiles each record's __init__."""
    root = pathlib.Path(wpline.__file__).parent
    found, generated = [], 0
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, line, name) for line, name in generated_code_calls(tree)]
        generated += len(code_calls(tree))
    assert found == []
    assert generated == 1


# traced names of BENCHMARK.json that name nothing in src/wpline today
ABSENT_TRACED_NAMES = {"linalg.rank", "linalg.solve", "linalg.mat_mul",
                       "nilpotent.composite_rank", "nilpotent.kernel_rep",
                       "nilpotent.cokernel_rep", "widposet.exc_snapshot"}


def traced_names(doc) -> set:
    """layer.fn of each per-layer `.calls` or `.s` metric of a benchmark
    document."""
    return {name.rsplit(".", 1)[0] for name in (m["name"] for m in doc["per_layer"])
            if name.count(".") == 2 and name.rsplit(".", 1)[1] in {"calls", "s"}}


def traced_targets(name) -> list:
    """What layer.fn names in wpline.<layer>: a module-level binding and
    the methods of that name of the classes defined there."""
    layer, fn = name.split(".")
    mod = importlib.import_module(f"wpline.{layer}")
    found = [vars(mod).get(fn)] + [vars(cls).get(fn) for cls in vars(mod).values()
                                   if isinstance(cls, type) and cls.__module__ == mod.__name__]
    return [obj for obj in found if obj is not None]


def is_plain_function(obj, layer: str) -> bool:
    """A Python function defined in wpline.<layer>, the only kind the
    benchmark's tracer wraps there; a functools.cache wrapper is not one."""
    return inspect.isfunction(obj) and obj.__module__ == f"wpline.{layer}"


def test_traced_names_are_plain_functions():
    """Every function a per-layer `.calls` or `.s` metric of BENCHMARK.json
    names is a plain function, so no cache wrapper silently zeroes a
    traced metric; the names that resolve to nothing are exactly the
    listed ones, so that set cannot grow unnoticed."""
    path = pathlib.Path(__file__).parent.parent / "BENCHMARK.json"
    names = traced_names(json.loads(path.read_text()))
    targets = {name: traced_targets(name) for name in names}
    assert {name for name, found in targets.items() if not found} == ABSENT_TRACED_NAMES
    assert [(name, obj) for name, found in targets.items() for obj in found
            if not is_plain_function(obj, name.split(".")[0])] == []
    assert targets["widposet.covers"] == [importlib.import_module("wpline.widposet").WidPoset.covers]
    assert not is_plain_function(functools.cache(verify.criterion_8), "verify")


# functions whose ints are node-index bitsets, one bit per poset node
# (10,323 on 4,4): module file -> function or Class.method names
NODE_BITSET_FUNCTIONS = {"tube.py": {"inclusion_order"},
                         "widposet.py": {"build_poset", "poset_json"},
                         "verify.py": {"criterion_11"}}


def complements(tree) -> dict:
    """Per module-level function and Class.method of tree, the lines of
    its unary ~ operators."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))
    return {name: [n.lineno for n in ast.walk(f)
                   if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Invert)]
            for name, f in defs.items()}


def test_node_bitsets_take_no_complement():
    """~x on an N-bit node bitset builds a negative N-bit int, several
    times the cost of x ^ (x & y): the order rows, certificates and tags
    clear bits by XOR with the bits they hold, never by AND with a
    complement."""
    assert complements(ast.parse("class C:\n    def f(x, y):\n        return x & ~y\n")) \
        == {"C.f": [3]}
    root = pathlib.Path(wpline.__file__).parent
    for module, names in NODE_BITSET_FUNCTIONS.items():
        found = complements(ast.parse((root / module).read_text(), module))
        assert {name: found[name] for name in names} == dict.fromkeys(names, []), module
