"""Source hygiene of the package, read with ``ast`` alone: no unused import,
no private module-level function or class that nothing refers to, no
public function that only the tests call, no exception class that no
other module raises or hands on, one home for the modulus rule,
one function that forms matrix products, memos of one entry, no read
of the process environment, no use of ``numpy.random``, and no private
name quoted in a docstring or the README that the package does not
define."""
import ast
import re
from collections import Counter
from pathlib import Path

import nilcomm

MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(Path(nilcomm.__file__).parent.glob("*.py"))}
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
README = Path(__file__).parents[1] / "README.md"


def name_reads(tree):
    """How often each name is read in ``tree``, as bare name or attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def used_names(tree):
    """Every name read in ``tree``: bare names and attribute names."""
    return set(name_reads(tree))


def runtime_names(nodes):
    """Every name read in ``nodes`` outside annotations, which
    ``from __future__ import annotations`` leaves unevaluated."""
    names, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        stack += [child for field, value in ast.iter_fields(node) if field not in ("annotation", "returns")
                  for child in (value if isinstance(value, list) else [value]) if isinstance(child, ast.AST)]
    return names


def bound_names(statements):
    """The names that the import statements among ``statements`` bind."""
    return [alias.asname or alias.name.split(".")[0] for node in statements
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def unread_imports(tree, module_level=True):
    """The names bound by imports in ``tree`` that are never read: an import
    in a function must be read in that function, outside annotations, and,
    with ``module_level``, one at module level anywhere in the module."""
    unread = [bound for bound in bound_names(tree.body) if bound not in used_names(tree)] if module_level else []
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = runtime_names(function.body)
            unread += [bound for bound in bound_names(ast.walk(function)) if bound not in read]
    return unread


def test_every_import_is_used():
    planted = "import a\nimport b\n\ndef f(x: c) -> c:\n    import c, d\n    return b, d\n"
    assert unread_imports(ast.parse(planted)) == ["a", "c"]
    # the imports of ``__init__`` are the package's re-exports
    unused = [f"{name}: {bound}" for name, tree in MODULES.items()
              for bound in unread_imports(tree, module_level=name != "__init__.py")]
    assert not unused


def imported_when_loaded(tree):
    """The top-level packages that importing the module ``tree`` imports:
    every import outside a function body."""
    packages, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            packages |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            packages.add(node.module.split(".")[0])
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return packages


def test_no_module_imports_numpy_when_loaded():
    # ``import nilcomm`` stays free of numpy: each matrix function that
    # uses numpy imports it, so only matrix work loads it.
    planted = "try:\n    from numpy.random import default_rng\nexcept ImportError:\n    pass\n"
    assert imported_when_loaded(ast.parse(planted)) == {"numpy"}
    assert imported_when_loaded(ast.parse("def f():\n    import numpy as np\n    return np\n")) == set()
    loading = [name for name, tree in MODULES.items() if "numpy" in imported_when_loaded(tree)]
    assert not loading


def reaches_numpy_random(node):
    """Whether the node reaches ``numpy.random``: an import of it or from it,
    the attribute ``random`` of ``np`` or ``numpy``, the name or attribute
    ``default_rng``, or the string ``"numpy.random"`` (an import by name)."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[:2] == ["numpy", "random"] or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names))
    if isinstance(node, ast.Attribute):
        return node.attr == "default_rng" or (
            node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
    return (isinstance(node, ast.Name) and node.id == "default_rng"
            or isinstance(node, ast.Constant) and node.value == "numpy.random")


def test_no_module_reaches_numpy_random():
    # The coefficient stream is stated once, by ``matrixlab._Stream``;
    # numpy's Generator is only its oracle in the tests.
    planted = ["import numpy.random", "import numpy.random as npr", "from numpy import random",
               "from numpy.random import Generator", "import numpy as np\nnp.random.default_rng(0)",
               "import numpy\nnumpy.random", "rng = default_rng", "__import__('numpy.random')"]
    caught = [source for source in planted if any(map(reaches_numpy_random, ast.walk(ast.parse(source))))]
    assert caught == planted
    clean = "import random\nimport numpy as np\nnp.zeros(3), random.random(), 'numpy.random, in words'\n"
    assert not any(map(reaches_numpy_random, ast.walk(ast.parse(clean))))
    reaching = [f"{name}:{node.lineno}" for name, tree in MODULES.items() for node in ast.walk(tree)
                if reaches_numpy_random(node)]
    assert not reaching


def test_every_private_definition_is_referenced():
    used = set().union(*map(used_names, MODULES.values()))
    unreferenced = [f"{name}: {node.name}" for name, tree in MODULES.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in used]
    assert not unreferenced


def orphaned_classes(errors, others):
    """The classes that the module ``errors`` defines and none of the
    modules ``others`` reads, apart from the bases a caller catches."""
    read = set().union(*map(used_names, others))
    return [node.name for node in errors.body if isinstance(node, ast.ClassDef)
            and node.name not in ("NilcommError", "CheckFailed") and node.name not in read]


def test_every_exception_class_is_raised_or_handed_on():
    # A class is referenced by a raise or as an argument (``NonMonotoneSizes``
    # is handed to ``checked_partition``); an import alone, or a re-export
    # by ``__init__``, is no reference.  Deleting the last raise of a class
    # takes the class with it.
    planted = ast.parse("class NilcommError(Exception): pass\nclass CheckFailed(NilcommError): pass\n"
                        "class Raised(CheckFailed): pass\nclass Passed(CheckFailed): pass\n"
                        "class Orphan(CheckFailed): pass\n")
    user = ast.parse("from .errors import Orphan, Passed, Raised\nraise Raised('x')\ncheck(parts, Passed)\n")
    assert orphaned_classes(planted, [user]) == ["Orphan"]
    others = [tree for name, tree in MODULES.items() if name not in ("errors.py", "__init__.py")]
    assert not orphaned_classes(MODULES["errors.py"], others)


# Public functions that no caller reads, each with its reason.
TEST_ONLY = {"partitions.py: is_almost_rectangular"}  # the tests' oracle for r_of


def test_every_public_function_has_a_caller():
    # A caller is the package outside the function's own definition (the
    # re-exports of ``__init__`` are no caller), the acceptance suite, or
    # the README.
    package = sum((name_reads(tree) for name, tree in MODULES.items() if name != "__init__.py"), Counter())
    elsewhere = used_names(ast.parse(ACCEPTANCE.read_text())) | set(re.findall(r"\w+", README.read_text()))
    uncalled = [f"{name}: {node.name}" for name, tree in MODULES.items() for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and package[node.name] == name_reads(node)[node.name] and node.name not in elsewhere]
    assert set(uncalled) == TEST_ONLY  # equal, so the scan is seen to find one


def test_only_prime_field_states_the_modulus_rule():
    # Every matrix entry point validates its modulus by building a PrimeField.
    [field] = [node for node in MODULES["matrixlab.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "PrimeField"]
    assert "_is_prime" in used_names(field)
    inside = set(map(id, ast.walk(field)))
    elsewhere = [f"{name}:{node.lineno}" for name, tree in MODULES.items() for node in ast.walk(tree)
                 if "_is_prime" in (getattr(node, "id", None), getattr(node, "attr", None))
                 and id(node) not in inside]
    assert not elsewhere
    # Nor is a modulus, or an order, refused past int64 anywhere else.
    raised = [f"{name}:{node.lineno}" for name, tree in MODULES.items() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and "Int64BoundExceeded" in used_names(node)
              and id(node) not in inside]
    assert not raised
    assert any(isinstance(node, ast.Raise) and "Int64BoundExceeded" in used_names(node)
               for node in ast.walk(field))


def test_only_matmul_forms_a_product():
    # Every matrix product goes through matrixlab._matmul, which keeps it exact mod p.
    [matmul] = [node for node in MODULES["matrixlab.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_matmul"]
    inside = set(map(id, ast.walk(matmul)))
    products = [f"{name}:{node.lineno}" for name, tree in MODULES.items() for node in ast.walk(tree)
                if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "einsum"))
                and id(node) not in inside]
    assert not products
    assert any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) for node in ast.walk(matmul))


MEMOS = ("lru_cache", "cache")
ONE_ENTRY_MEMOS = {
    "uchains.py: strand_table",  # the latest partition's strands, read by every spec check of it
    "uprocess.py: _realized",  # the oracle's union and spec tables, shared by the traces of one start
}


def memos(tree):
    """The memos of ``tree``, each named by the function it decorates, else
    by its line: those wider than one entry, and those of one."""
    def is_memo(node):
        return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in MEMOS

    decorated = {id(deco): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) for deco in node.decorator_list}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    wide, one_entry = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and is_memo(node.func):
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            one = isinstance(size, ast.Constant) and type(size.value) is int and size.value == 1
        elif is_memo(node) and id(node) not in called:
            one = False  # a bare @lru_cache keeps 128 entries, @cache all
        else:
            continue
        (one_entry if one else wide).add(decorated.get(id(node), node.lineno))
    return wide, one_entry


def test_every_memo_holds_one_entry():
    # A memo keyed by a partition keeps what it returns alive: wider than one
    # entry, it would hold every partition of a sweep.
    planted = ("@lru_cache\ndef a(): pass\n\n@functools.cache\ndef b(): pass\n\n"
               "@lru_cache(maxsize=128)\ndef c(): pass\n\n@lru_cache(1)\ndef d(): pass\n\n"
               "e = lru_cache(maxsize=1)(len)\n")
    assert memos(ast.parse(planted)) == ({"a", "b", "c"}, {"d", 13})
    found = {name: memos(tree) for name, tree in MODULES.items()}
    assert not [f"{name}: {memo}" for name, (wide, _) in found.items() for memo in wide]
    # equal, so a new memo must be named with its reason
    assert {f"{name}: {memo}" for name, (_, one_entry) in found.items() for memo in one_entry} == ONE_ENTRY_MEMOS


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_process_environment():
    # A run depends on its arguments alone: the modulus, say, comes from
    # ``--prime`` or a ``PrimeField``, never from a variable a caller may not see.
    reads = [f"{name}: {word}" for name, tree in MODULES.items() for word in used_names(tree) & ENVIRONMENT]
    assert not reads


CONTAINERS = {"dict", "list", "set", "defaultdict", "Counter"}


def mutable_bindings(tree):
    """The lines where a module-level statement of ``tree`` binds a mutable container."""
    def mutable(node):
        called = isinstance(node, ast.Call) and (
            node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) in CONTAINERS
        return called or isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                           ast.SetComp, ast.GeneratorExp))

    def statements(body):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node
                for block in ("body", "orelse", "finalbody", "handlers"):
                    yield from statements(getattr(node, block, []))

    return [node.lineno for node in statements(tree.body)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None
            and any(map(mutable, ast.walk(node.value)))]


def test_no_module_binds_a_mutable_container():
    # Module state outlives every call: a memo lives behind a one-entry
    # cache (see above), never in a module-level dict, list or set.
    assert mutable_bindings(ast.parse("A = 1\nB = (2, [])\nif A:\n    C = collections.defaultdict(list)\n")) == [2, 4]
    bound = [f"{name}: {line}" for name, tree in MODULES.items() for line in mutable_bindings(tree)]
    assert not bound


def defined_names(tree):
    """Every name that a definition or an assignment in ``tree`` binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def quoted_private_names(text, fence):
    """Each private name that ``text`` quotes between ``fence`` marks, a dotted name split at its dots."""
    return {part for quoted in re.findall(f"{fence}([\\w.]+){fence}", text) for part in quoted.split(".")
            if part.startswith("_") and not part.startswith("__")}


def stale_names(trees, readme):
    """The private names that a docstring of ``trees`` quotes in double
    backticks, or ``readme`` in backticks, and no tree defines."""
    quoted = quoted_private_names(readme, "`")
    for tree in trees:
        quoted |= {name for node in ast.walk(tree)
                   if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for name in quoted_private_names(ast.get_docstring(node) or "", "``")}
    return quoted - set().union(*map(defined_names, trees))


def test_every_quoted_private_name_is_defined():
    # A docstring or the README that names a private helper names one that
    # exists: a rename or a deletion takes its mentions with it.
    planted = ('"""Uses ``_f``, ``_Cls._attr`` and ``_gone``."""\n'
               'class _Cls:\n    _attr = 1\n\ndef _f():\n    """Not ``__init__``, not ``_old.x``."""\n')
    assert stale_names([ast.parse(planted)], "`_f`, `_also_gone` and ``_Cls``") == {"_gone", "_old", "_also_gone"}
    assert not stale_names(MODULES.values(), README.read_text())
