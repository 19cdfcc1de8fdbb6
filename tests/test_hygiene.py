"""Source hygiene of the package, read with ``ast`` alone: no unused import,
no private module-level function or class that nothing refers to, no
public function that only the tests call, one home for the modulus rule,
one function that forms matrix products, memos of one entry, and no read
of the process environment."""
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


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # its imports are the package's re-exports
            continue
        used = used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_definition_is_referenced():
    used = set().union(*map(used_names, MODULES.values()))
    unreferenced = [f"{name}: {node.name}" for name, tree in MODULES.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in used]
    assert not unreferenced


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
WIDE_MEMOS = {"matrixlab.py: _is_prime"}  # one bool per modulus checked, no partition


def test_every_memo_holds_one_entry():
    # A memo keyed by a partition keeps what it returns alive: wider than one
    # entry, it would hold every partition of a sweep.
    def is_memo(node):
        return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in MEMOS

    wide = []
    for name, tree in MODULES.items():
        decorated = {id(deco): node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) for deco in node.decorator_list}
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_memo(node.func):
                size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
                one = isinstance(size, ast.Constant) and type(size.value) is int and size.value == 1
            elif is_memo(node) and id(node) not in called:
                one = False  # a bare @lru_cache keeps 128 entries, @cache all
            else:
                continue
            if not one:
                wide.append(f"{name}: {decorated.get(id(node), node.lineno)}")
    assert set(wide) == WIDE_MEMOS  # equal, so the scan is seen to find one


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_process_environment():
    # A run depends on its arguments alone: the modulus, say, comes from
    # ``--prime`` or a ``PrimeField``, never from a variable a caller may not see.
    reads = [f"{name}: {word}" for name, tree in MODULES.items() for word in used_names(tree) & ENVIRONMENT]
    assert not reads
