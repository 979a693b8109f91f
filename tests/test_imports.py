"""Every name a planicheck module imports is used in that module, and every
function, class and method it defines is referenced somewhere in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import planicheck

PACKAGE = Path(planicheck.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    src = "import math\nfrom typing import Dict, Optional\nx: Optional[int] = None\n"
    assert unused_imports(src) == [(1, "math"), (2, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# paper content (the congruence criteria, the common-side placement) and the
# documented scheme API of the logic engine
REFERENCE_EXEMPT = {"criterion_a", "criterion_b", "to_common_side",
                    "compose_scheme"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(sources, exempt=frozenset()):
    """(module, qualified name) of each non-dunder top-level function, each
    class, and each non-dunder method, whose name appears as no ``Name`` or
    ``Attribute`` in any of ``sources`` (module name -> text) outside its
    own definition.  Python calls a dunder, a module's ``__getattr__`` as a
    class's ``__eq__``, so neither needs a reader."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                continue
            if isinstance(node, _FUNCTIONS) and _dunder(node.name):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, _FUNCTIONS)
                         and not _dunder(sub.name)]
            for qualname, d in defs:
                if d.name in exempt:
                    continue
                if total[d.name] == _references(d)[d.name]:
                    found.append((mod, qualname))
    return found


def test_the_check_sees_an_unreferenced_definition():
    sources = {
        "a.py": ("def used():\n    return 1\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class K:\n    def method(self):\n        return 2\n\n"
                 "    def __eq__(self, other):\n        return True\n\n"
                 "def paper():\n    pass\n\n"
                 "def __getattr__(name):\n    return name\n\n"
                 "class __Odd__:\n    pass\n"),
        "b.py": "from a import used, K\nx = used() + K().missing\n",
    }
    assert unreferenced_definitions(sources, {"paper"}) == [
        ("a.py", "recursive"), ("a.py", "K.method"), ("a.py", "__Odd__")]


def test_every_definition_has_a_reader_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources, REFERENCE_EXEMPT) == []


# the backends own every exact-versus-float decision, and the exact payload
# arithmetic alone decides what is representable: outside scalars, no
# module asks which backend it is on
BACKEND_CLASSES = {"ExactBackend", "FloatBackend"}


def backend_tests(sources, allowed=frozenset({"scalars.py"})):
    """(module, top-level definition) of each ``.is_exact`` read, and of
    each ``isinstance`` call whose class argument names ``ExactBackend`` or
    ``FloatBackend`` (alone or in a tuple, by name or attribute), in
    ``sources`` (module name -> text) outside the modules that ``allowed``
    names; statements outside any definition are reported as
    ``<module>``."""

    def asks(n):
        if isinstance(n, ast.Attribute) and n.attr == "is_exact":
            return True
        if not (isinstance(n, ast.Call) and getattr(n.func, "id", None)
                == "isinstance" and len(n.args) == 2):
            return False
        return any((getattr(c, "id", None) or getattr(c, "attr", None))
                   in BACKEND_CLASSES for c in ast.walk(n.args[1]))

    return [(mod, getattr(node, "name", "<module>"))
            for mod, text in sources.items() if mod not in allowed
            for node in ast.parse(text).body
            if any(asks(n) for n in ast.walk(node))]


def test_the_check_sees_a_backend_test():
    sources = {
        "a.py": ("def guard(x):\n    return x.is_exact\n\n"
                 "class K:\n    def f(self, y):\n"
                 "        return isinstance(y.backend, ExactBackend)\n\n"
                 "def clean(v):\n    return isinstance(v, Supplementary)\n"),
        "b.py": ("flag = isinstance(b, (int, scalars.FloatBackend))\n\n"
                 "def fine(b):\n"
                 "    return b.eq(1, 2) and isinstance(b, int)\n"),
        "scalars.py": "def g(x):\n    return isinstance(x, ExactBackend)\n",
    }
    assert backend_tests(sources) == [("a.py", "guard"), ("a.py", "K"),
                                      ("b.py", "<module>")]


def test_only_the_backends_ask_which_backend_a_value_is_on():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert backend_tests(sources) == []


# the modules that compute on a Scalar's payload; suites, cli and report
# stay on the Scalar API
PAYLOAD_READERS = {"scalars.py", "kernel.py", "congruence.py", "ssa.py"}


def payload_reads(sources, allowed=PAYLOAD_READERS):
    """(module, line) of each ``._v`` attribute in ``sources`` (module name
    -> text) outside the modules that ``allowed`` names."""
    return [(mod, n.lineno) for mod, text in sources.items()
            if mod not in allowed
            for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and n.attr == "_v"]


def test_the_check_sees_a_payload_read():
    sources = {"kernel.py": "def f(p):\n    return p.x._v\n",
               "suites.py": "def g(s):\n    v = s.as_float()\n    return s._v\n",
               "report.py": "x = y.v + z._value\n"}
    assert payload_reads(sources) == [("suites.py", 3)]


def test_only_the_arithmetic_modules_read_payloads():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert payload_reads(sources) == []


# a Point, an SsaSpec and a TriangleElements hold payloads, and their
# coordinate and field names, and the element set's label readers, wrap one
# in a new Scalar on each read: reading ._v through them builds a Scalar
# only to unwrap it
WRAPPED_FIELDS = {"x", "y", "side_a", "side_b", "cos_angle"}
WRAPPED_READERS = {"side_sq", "cos_at"}


def wrapped_payload_reads(sources, fields=WRAPPED_FIELDS,
                          readers=WRAPPED_READERS):
    """(module, line) of each ``._v`` read whose object is an attribute that
    ``fields`` names (``p.x._v``, ``spec.side_a._v``) or a call of a method
    that ``readers`` names (``e.cos_at("B")._v``), in ``sources`` (module
    name -> text)."""

    def wraps(n):
        if isinstance(n, ast.Attribute):
            return n.attr in fields
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in readers)

    return [(mod, n.lineno) for mod, text in sources.items()
            for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and n.attr == "_v"
            and wraps(n.value)]


def test_the_check_sees_a_payload_read_through_a_wrapper():
    sources = {"kernel.py": ("def f(p, q):\n    return p.x._v - q._x\n\n"
                             "def g(s, c):\n"
                             "    a = (s.side_a._v, s._a)\n"
                             "    return c._v, s.cos_angle.sqrt()._v\n"),
               "ssa.py": "b = spec.side_b._v + tri.B.y._v\n"}
    assert wrapped_payload_reads(sources) == [
        ("kernel.py", 2), ("kernel.py", 5), ("ssa.py", 1), ("ssa.py", 1)]


def test_the_check_sees_a_payload_read_through_a_label_reader():
    sources = {"ssa.py": ("def f(e, t):\n"
                          "    c = e.cos_at('B')._v + e._cosines[1]\n"
                          "    s = e.side_sq('C').sqrt()._v\n"
                          "    return angle_cos(t.A, t.B, t.C)._v, c, s\n"
                          "\nx = e1.side_sq('A')._v\n"),
               "congruence.py": "y = cos_at('A')._v + e.cos_at._v\n"}
    assert sorted(wrapped_payload_reads(sources)) == [("ssa.py", 2),
                                                     ("ssa.py", 6)]


def test_no_module_unwraps_a_coordinate_or_a_spec_field():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert wrapped_payload_reads(sources) == []


# main is the one place that ends a run: it reads the clock, builds and
# renders the report and stamps the config echo with the PRNG name
ENVELOPE_NAMES = {"perf_counter", "build_report", "render_json",
                  "render_markdown", "RNG_ALGORITHM"}


def envelope_uses(source, owner="main", names=ENVELOPE_NAMES):
    """(top-level definition, name) of each read of one of ``names``, as a
    ``Name`` or an ``Attribute``, outside the function ``owner``; statements
    outside any definition are reported as ``<module>``, and an assignment
    to a name is not a read of it."""
    found = []
    for node in ast.parse(source).body:
        holder = getattr(node, "name", "<module>")
        if holder == owner:
            continue
        for n in ast.walk(node):
            name = (n.id if isinstance(n, ast.Name) else
                    n.attr if isinstance(n, ast.Attribute) else None)
            if name in names and isinstance(n.ctx, ast.Load):
                found.append((holder, name))
    return found


def test_the_check_sees_an_envelope_use_outside_main():
    src = ("import time\nRNG_ALGORITHM = 'x'\n"
           "def handler(args):\n    t = time.perf_counter()\n"
           "    return {'rng': RNG_ALGORITHM}\n\n"
           "def main():\n    return rpt.build_report(time.perf_counter())\n\n"
           "text = rpt.render_markdown({})\n")
    assert envelope_uses(src) == [("handler", "perf_counter"),
                                  ("handler", "RNG_ALGORITHM"),
                                  ("<module>", "render_markdown")]


def test_only_main_ends_a_run():
    assert envelope_uses((PACKAGE / "cli.py").read_text()) == []


# a handler reports how its run went and main alone turns that into an exit
# code: every return of a cmd_* handler is (config, checks, report parts)
def handler_returns(source, prefix="cmd_"):
    """(handler, line) of each ``return`` in a top-level function whose name
    starts with ``prefix`` that does not return a literal 3-tuple."""
    return [(node.name, n.lineno) for node in ast.parse(source).body
            if isinstance(node, _FUNCTIONS) and node.name.startswith(prefix)
            for n in ast.walk(node)
            if isinstance(n, ast.Return)
            and not (isinstance(n.value, ast.Tuple) and len(n.value.elts) == 3)]


def test_the_check_sees_a_handler_return_that_is_not_a_triple():
    src = ("def cmd_a(args):\n    if args:\n        return 2\n"
           "    return {}, [], {}\n\n"
           "def cmd_b(args):\n    return {}, [], {}, True\n\n"
           "def cmd_c(args):\n    return\n\n"
           "def helper():\n    return 2\n")
    assert handler_returns(src) == [("cmd_a", 3), ("cmd_b", 7), ("cmd_c", 10)]


def test_every_handler_returns_a_triple():
    assert handler_returns((PACKAGE / "cli.py").read_text()) == []


# run_check alone turns a rejected sample into a failing witness; the
# modules of the sampled checks, and the one that runs them, catch nothing
# else but the registry lookup that names an unknown scenario
EXCEPT_OWNERS = {"report.py": {"run_check"}, "suites.py": set(),
                 "scenarios.py": {"get_scenario"}}


def except_clauses(source, allowed):
    """(top-level definition, line) of each ``except`` clause in ``source``
    outside the definitions that ``allowed`` names, nested functions
    included; statements outside any definition are reported as
    ``<module>``."""
    found = []
    for node in ast.parse(source).body:
        holder = getattr(node, "name", "<module>")
        if holder not in allowed:
            found += [(holder, n.lineno) for n in ast.walk(node)
                      if isinstance(n, ast.ExceptHandler)]
    return found


def test_the_check_sees_an_except_clause():
    src = ("def run_check(sample):\n    try:\n        sample()\n"
           "    except ValueError:\n        pass\n\n"
           "def suite():\n    def sample():\n        try:\n            pass\n"
           "        except KeyError:\n            pass\n    return sample\n\n"
           "try:\n    import x\nexcept ImportError:\n    x = None\n")
    assert except_clauses(src, {"run_check"}) == [("suite", 11),
                                                  ("<module>", 17)]


def test_only_run_check_catches_a_rejected_sample():
    for name, allowed in EXCEPT_OWNERS.items():
        assert except_clauses((PACKAGE / name).read_text(), allowed) == []
    # and the registry lookup catches the missing key alone
    [handler] = [n for n in ast.walk(ast.parse(
        (PACKAGE / "scenarios.py").read_text()))
        if isinstance(n, ast.ExceptHandler)]
    assert handler.type.id == "KeyError"


# the scan stack runs no SSA arithmetic: scenarios imports no module of
# the SSA stack, so a scenario run loads none
SSA_STACK = {"scalars", "kernel", "congruence", "ssa", "suites"}


def package_imports(source, modules):
    """(line, module) of each import of a sibling module that ``modules``
    names, or of a name from it, in ``source``, whether relative
    (``from .ssa import x``, ``from . import ssa``) or absolute
    (``planicheck.ssa``)."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names = [alias.name for alias in n.names]
        elif isinstance(n, ast.ImportFrom):
            base = (n.module if not n.level else
                    f"planicheck.{n.module}" if n.module else "planicheck")
            names = ([f"{base}.{alias.name}" for alias in n.names]
                     if base == "planicheck" else [base])
        else:
            continue
        found += [(n.lineno, name.split(".")[1]) for name in names
                  if name.startswith("planicheck.")
                  and name.split(".")[1] in modules]
    return found


def test_the_check_sees_an_ssa_stack_import():
    src = ("from .scalars import DegenerateInputError\n"
           "from .errors import UsageError\nfrom . import ssa, report\n"
           "import planicheck.kernel\nfrom planicheck import suites\n"
           "from planicheck.scenarios import angle_at\n"
           "from planicheck.ssa import solve_ssa\n"
           "def f():\n    from .congruence import measure\n")
    assert package_imports(src, SSA_STACK) == [
        (1, "scalars"), (3, "ssa"), (4, "kernel"), (5, "suites"),
        (7, "ssa"), (9, "congruence")]


def test_the_scenarios_import_no_ssa_layer():
    assert package_imports((PACKAGE / "scenarios.py").read_text(),
                           SSA_STACK) == []


# the exact payload is scalars' own rational: Fraction enters only at the
# boundary, where scalars converts it and suites and cli build exact inputs
FRACTIONS_IMPORTERS = {"scalars.py", "suites.py", "cli.py"}


def module_imports(sources, module, allowed):
    """(module, line) of each import of the stdlib ``module``, or of a name
    from it, in ``sources`` (module name -> text) outside the modules that
    ``allowed`` names."""
    found = []
    for mod, text in sources.items():
        if mod in allowed:
            continue
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                names = [n.module]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                found.append((mod, n.lineno))
    return found


def test_the_check_sees_a_fractions_import():
    sources = {
        "ssa.py": "from fractions import Fraction\nx = Fraction(1)\n",
        "kernel.py": ("import math\n\ndef f():\n"
                      "    import fractions as fr\n    return fr\n"),
        "suites.py": "from fractions import Fraction\n",
        "report.py": "from .fractions import helper\nimport fractionsx\n",
    }
    assert module_imports(sources, "fractions", FRACTIONS_IMPORTERS) == [
        ("ssa.py", 1), ("kernel.py", 4)]


def test_only_the_boundary_modules_import_fractions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert module_imports(sources, "fractions", FRACTIONS_IMPORTERS) == []


# importing dataclasses loads inspect, which every short command would pay
# for at start-up; every value class is a record.Record, and only the two
# scenario classes that callers copy with dataclasses.replace stay dataclasses
DATACLASSES = {("scenarios.py", "Scenario"), ("scenarios.py", "ScanReport")}


def dataclass_definitions(sources):
    """(module, class) of each class in ``sources`` (module name -> text)
    with a ``dataclass`` decorator, called or not, by name or attribute."""
    found = []
    for mod, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            if not isinstance(n, ast.ClassDef):
                continue
            for d in n.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if "dataclass" in (getattr(d, "id", None),
                                   getattr(d, "attr", None)):
                    found.append((mod, n.name))
    return found


def test_the_check_sees_a_dataclass():
    sources = {
        "a.py": ("from dataclasses import dataclass\n\n@dataclass\n"
                 "class P:\n    x: int\n\n@dataclass(frozen=True)\n"
                 "class Q:\n    y: int\n\nclass R:\n    pass\n"),
        "b.py": ("import dataclasses\n\ndef f():\n"
                 "    @dataclasses.dataclass\n    class S:\n        pass\n"
                 "    return S\n"),
    }
    assert dataclass_definitions(sources) == [("a.py", "P"), ("a.py", "Q"),
                                              ("b.py", "S")]


def test_only_the_copied_scenario_classes_are_dataclasses():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert module_imports(sources, "dataclasses", {"scenarios.py"}) == []
    assert set(dataclass_definitions(sources)) == DATACLASSES


# solve_ssa alone builds a Triangle without Triangle's checks: its kept
# roots clear a band at least as wide as the one those checks apply
TRUSTED_BUILDERS = {("ssa.py", "solve_ssa")}


def name_readers(sources, name):
    """(module, top-level definition) of each read of ``name``, as a
    ``Name`` or an ``Attribute``, in ``sources`` (module name -> text),
    outside the definition of ``name`` itself and the import statements;
    statements outside any definition are reported as ``<module>``."""
    found = []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            holder = getattr(node, "name", "<module>")
            if holder == name or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any((n.id if isinstance(n, ast.Name) else n.attr) == name
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))):
                found.append((mod, holder))
    return found


def test_the_check_sees_a_reader_of_a_name():
    sources = {
        "kernel.py": ("def trusted_triangle(a):\n    return a\n\n"
                      "class T:\n    def m(self):\n"
                      "        return kernel.trusted_triangle\n"),
        "ssa.py": ("from .kernel import trusted_triangle\n\n"
                   "def solve_ssa(s):\n    return trusted_triangle(s)\n\n"
                   "make = trusted_triangle\n"),
    }
    assert name_readers(sources, "trusted_triangle") == [
        ("kernel.py", "T"), ("ssa.py", "solve_ssa"), ("ssa.py", "<module>")]


def test_only_solve_ssa_builds_an_unchecked_triangle():
    bench = PACKAGE.parent.parent / "bench"
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    sources.update((f"bench/{p.name}", p.read_text())
                   for p in sorted(bench.glob("*.py")))
    assert len(sources) > len(MODULES)
    assert set(name_readers(sources, "trusted_triangle")) == TRUSTED_BUILDERS
