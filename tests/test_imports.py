"""Every name a planicheck module imports is used in that module, every
function and method it defines is entered by a command or a paper entry
point or is declared, every class it defines is read, and the layering
rules below hold."""

import ast
import json
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planicheck
from test_cli import PINNED_RUNS

PACKAGE = Path(planicheck.__file__).parent
# module name -> text of every module of the package, read once
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_module_uses_every_import(name):
    assert unused_imports(SOURCES[name]) == []


# Every function and method defined in the package, nested ones included,
# is entered by one child process that runs the command matrix below and
# calls the paper's entry points, or is declared here.  The trace shows
# what the runs reach, not what no input reaches: a deletion is justified
# by reading its call sites.

# (module, qualified name) -> why nothing a command or a paper entry point
# runs enters it; a listed name that is entered, or no longer defined,
# fails the test, so the list only shrinks
PROTOCOL = {
    ("record.py", "Record._fields"): "serves __eq__, __hash__, __reduce__",
    ("record.py", "Record.__eq__"):
        "value equality that Record promises every value class",
    ("record.py", "Record.__hash__"):
        "hashing that Record promises every value class",
    ("record.py", "Record.__repr__"):
        "printing that Record promises every value class",
    ("record.py", "Record.__reduce__"):
        "copy and pickle that Record promises every value class",
    ("record.py", "Record.__setattr__"):
        "immutability: it only raises, on assignment or deletion",
    ("scalars.py", "_Rational.__hash__"):
        "a payload hashes as the equal Fraction, for Scalar's hash",
    ("scalars.py", "_Rational.__str__"):
        "prints as Fraction does, for Scalar's repr",
    ("scalars.py", "_Rational.__repr__"): "debugging display of a payload",
    ("scalars.py", "Scalar.__repr__"): "debugging display of a Scalar",
    ("logic.py", "EquivalenceResult.__bool__"):
        "acceptance criterion 6 reads a result as a truth value",
    ("scalars.py", "Scalar.__truediv__"):
        "bench/run.py's op mix divides two SsaSpec views; item 3 deletes it "
        "with Scalar",
    ("errors.py", "LemmaPreconditionError.__init__"):
        "only a failed precondition of the common-side lemma raises it",
}

# argv the pinned bodies of tests/test_cli.py do not take: a markdown
# report, exact radical and unrepresentable answers, the usage errors of
# scenario and logic, and failing checks
EXTRA_RUNS = (
    ["logic", "--format", "markdown"],
    ["ssa", "--backend", "exact", "--a", "3", "--b", "1", "--cos", "0"],
    ["scenario", "nope"],
    ["logic", "--formula", "p &", "--equiv", "p"],
    ["ssa", "--backend", "exact", "--a", "5", "--b", "3", "--cos", "3/5"],
    ["verify", "--samples", "200", "--seed", "7", "--eps", "1e-3"],
)

# the paper's entry points, once each: the criteria on the exact textbook
# pair, and its common side placed opposite, which divides radicals
PAPER_CALLS = """
from planicheck.congruence import (ALL_CORRESPONDENCES, criterion_a,
                                   criterion_b, measure)
from planicheck.logic import compose_scheme
from planicheck.scalars import EXACT
from planicheck.ssa import SsaSpec, solve_ssa, to_common_side

t1, t2 = solve_ssa(SsaSpec(EXACT, 7, 8, "1/2"))
same = ALL_CORRESPONDENCES[0]
criterion_a(measure(t1), measure(t2), same)
criterion_b(measure(t1), measure(t2), same)
to_common_side(t1, t1, same, "C", "opposite")
compose_scheme("t", "p", "q", "r", "exclusive")
"""

# the child: the hook keeps each code object it sees enter (by id, holding
# the object so that no id is reused), stdout goes to a buffer while the
# driver runs, and the code objects of the package's modules go out as
# (module, first line, name)
_TRACER = """\
import io, json, os, sys
package = sys.argv[1]
codes = {}

def hook(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code

sys.stdout = io.StringIO()
sys.setprofile(hook)
exec(compile(sys.stdin.read(), "<driver>", "exec"), {})
sys.setprofile(None)
json.dump([[os.path.basename(c.co_filename), c.co_firstlineno, c.co_name]
           for c in codes.values()
           if os.path.dirname(os.path.realpath(c.co_filename)) == package],
          sys.__stdout__)
"""


def definitions(sources):
    """(module, first line, name) -> qualified name of each function and
    method in ``sources`` (module name -> text), nested ones included.  A
    decorated function's first line is that of its first decorator, as in
    its code object's ``co_firstlineno``."""
    found = {}

    def visit(mod, node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, _FUNCTIONS):
                line = (sub.decorator_list[0] if sub.decorator_list
                        else sub).lineno
                found[mod, line, sub.name] = prefix + sub.name
                visit(mod, sub, f"{prefix}{sub.name}.<locals>.")
            elif isinstance(sub, ast.ClassDef):
                visit(mod, sub, f"{prefix}{sub.name}.")
            else:
                visit(mod, sub, prefix)

    for mod, text in sources.items():
        visit(mod, ast.parse(text), "")
    return found


def unentered(package, sources, driver):
    """(module, qualified name) of each definition in ``sources`` (module
    name -> text of the modules in directory ``package``) that a child
    process never enters while it runs the Python source ``driver`` under
    a ``sys.setprofile`` hook.  The hook is installed before ``driver``
    runs, so the imports it makes, and the calls made at import time, are
    traced too."""
    package = Path(package).resolve()
    child = subprocess.run(
        [sys.executable, "-c", _TRACER, str(package)], input=driver,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)})
    assert child.returncode == 0, child.stderr
    entered = {tuple(key) for key in json.loads(child.stdout)}
    return sorted((mod, name) for (mod, *key), name
                  in definitions(sources).items()
                  if (mod, *key) not in entered)


def test_the_check_sees_a_method_nothing_enters(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    sources = {
        "__init__.py": "",
        "a.py": ("import functools\n\n"
                 "def at_import():\n    return 1\n\n"
                 "VALUE = at_import()\n\n"
                 "class K:\n    def used(self):\n        return 2\n\n"
                 "    def unused(self):\n        return 3\n\n"
                 "    @staticmethod\n    @functools.lru_cache\n"
                 "    def decorated():\n"
                 "        def inner():\n            return 4\n"
                 "        return inner\n"),
    }
    for name, text in sources.items():
        (package / name).write_text(text)
    driver = "from planted import a\na.K().used()\na.K.decorated()\n"
    assert unentered(package, sources, driver) == [
        ("a.py", "K.decorated.<locals>.inner"), ("a.py", "K.unused")]


def test_every_definition_is_entered_or_declared(tmp_path):
    runs = [*PINNED_RUNS.values(), *EXTRA_RUNS]
    report = str(tmp_path / "report")
    # the child sees one usable CPU, so that every suite and scan chunk runs
    # where the hook sees it, not in a forked worker whose trace is lost
    driver = ("import os\n"
              "os.sched_getaffinity = lambda pid: {0}\n"
              "from planicheck import cli\n"
              f"for argv in {runs!r}:\n"
              f"    cli.main(argv + ['--report', {report!r}])\n"
              + PAPER_CALLS)
    missed = set(unentered(PACKAGE, SOURCES, driver))
    assert sorted(missed - PROTOCOL.keys()) == []  # entered by nothing
    assert sorted(PROTOCOL.keys() - missed) == []  # declared, yet entered


# a class body runs at import, so the trace sees no class go unused: every
# class is read, as a Name or an Attribute, outside its own definition


def _reads(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unread_classes(sources):
    """(module, name) of each class, nested ones included, whose name is
    read as no ``Name`` or ``Attribute`` in ``sources`` (module name ->
    text) outside its own definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    return [(mod, n.name) for mod, tree in trees.items()
            for n in ast.walk(tree)
            if isinstance(n, ast.ClassDef)
            and total[n.name] == _reads(n)[n.name]]


def test_the_check_sees_a_class_nothing_reads():
    sources = {
        "a.py": ("class Raised(ValueError):\n    pass\n\n"
                 "class Self:\n    def copy(self):\n        return Self()\n\n"
                 "class __Odd__:\n    pass\n\n"
                 "class Outer:\n    class Inner:\n        pass\n\n"
                 "def f():\n    raise Raised\n"),
        "b.py": "from a import Outer\nx = Outer()\n",
    }
    assert unread_classes(sources) == [("a.py", "Self"), ("a.py", "__Odd__"),
                                       ("a.py", "Inner")]


def test_every_class_is_read():
    assert unread_classes(SOURCES) == []


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
    assert backend_tests(SOURCES) == []


# only scalars reads a Scalar's payload: the layers below cli hold payloads
# in their own records and compute on them, and cli reads a Scalar through
# its arithmetic
PAYLOAD_READERS = {"scalars.py"}


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
               "scalars.py": "def h(s):\n    return s._v\n",
               "report.py": "x = y.v + z._value\n"}
    assert payload_reads(sources) == [("kernel.py", 2), ("suites.py", 3)]


def test_only_the_scalar_module_reads_payloads():
    assert payload_reads(SOURCES) == []


# below the command boundary every layer computes on payloads: the kernel,
# the criteria, the solver and the suites build no Scalar, by the class or
# by a backend's scalar, except the three SsaSpec views, which the ssa
# command's printed arithmetic and the exact dichotomy's witness read
BELOW_CLI = ("kernel.py", "congruence.py", "ssa.py", "suites.py")
SCALAR_VIEWS = {("ssa.py", "SsaSpec.side_a"), ("ssa.py", "SsaSpec.side_b"),
                ("ssa.py", "SsaSpec.cos_angle")}


def scalar_builds(sources, modules=BELOW_CLI, allowed=SCALAR_VIEWS):
    """(module, qualified definition, line) of each call of ``Scalar``, by
    name or attribute, and of each ``.scalar(...)`` method in the modules
    of ``sources`` (module name -> text) that ``modules`` names, outside
    the definitions that ``allowed`` names; statements outside any
    definition are reported as ``<module>``."""
    found = []

    def visit(mod, node, qual):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.Call):
                f = sub.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if ((name == "Scalar" or (name == "scalar"
                                          and isinstance(f, ast.Attribute)))
                        and (mod, qual) not in allowed):
                    found.append((mod, qual or "<module>", sub.lineno))
            inner = qual
            if isinstance(sub, (*_FUNCTIONS, ast.ClassDef)):
                inner = f"{qual}.{sub.name}" if qual else sub.name
            visit(mod, sub, inner)

    for mod in modules:
        if mod in sources:
            visit(mod, ast.parse(sources[mod]), "")
    return found


def test_the_check_sees_a_scalar_built_below_the_cli():
    sources = {
        "kernel.py": ("def f(b, v):\n    return Scalar(b, v)\n\n"
                      "x = scalars.Scalar(b, 1)\n"),
        "ssa.py": ("class SsaSpec:\n    @property\n    def side_a(self):\n"
                   "        return Scalar(self.backend, self._a)\n\n"
                   "    def other(self):\n"
                   "        return self.backend.scalar(1)\n"),
        "suites.py": ("def g():\n"
                      "    return EXACT.scalar(2).sqrt(), EXACT.payload(2)\n"),
        "cli.py": "y = backend.scalar(1)\n",
    }
    assert scalar_builds(sources) == [
        ("kernel.py", "f", 2), ("kernel.py", "<module>", 4),
        ("ssa.py", "SsaSpec.other", 7), ("suites.py", "g", 2)]


def test_nothing_below_the_cli_builds_a_scalar_but_the_spec_views():
    assert scalar_builds(SOURCES) == []


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
    assert envelope_uses(SOURCES["cli.py"]) == []


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
    assert handler_returns(SOURCES["cli.py"]) == []


# run_check alone turns a rejected sample into a failing witness; the
# modules of the sampled checks, and the one that runs them, catch nothing
# else but the registry lookup that names an unknown scenario
EXCEPT_OWNERS = {"checks.py": {"run_check"}, "suites.py": set(),
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
        assert except_clauses(SOURCES[name], allowed) == []
    # and the registry lookup catches the missing key alone
    [handler] = [n for n in ast.walk(ast.parse(
        SOURCES["scenarios.py"]))
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
    assert package_imports(SOURCES["scenarios.py"],
                           SSA_STACK) == []


def test_only_the_sampling_modules_import_the_sample_loop():
    # a command that runs no samples loads neither run_check nor the fork
    # helper: only the verify suites and the scenarios import checks
    assert {mod for mod, text in SOURCES.items()
            if package_imports(text, {"checks"})} == {"suites.py",
                                                      "scenarios.py"}


# run_parts alone cuts the work by the usable CPUs and forks the workers:
# the verify battery and the scan hand it their items and weights, and no
# other module knows how many CPUs there are
FORK_NAMES = {"sched_getaffinity", "fork"}


def os_uses(sources, names=FORK_NAMES):
    """(module, line) of each ``os.<name>`` attribute, and of each import
    of the name from ``os``, for a name that ``names`` holds, in
    ``sources`` (module name -> text)."""
    found = []
    for mod, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Attribute):
                hit = (n.attr in names and isinstance(n.value, ast.Name)
                       and n.value.id == "os")
            elif isinstance(n, ast.ImportFrom):
                hit = n.module == "os" and not n.level and any(
                    alias.name in names for alias in n.names)
            else:
                continue
            if hit:
                found.append((mod, n.lineno))
    return found


def test_the_check_sees_a_cpu_read_or_a_fork():
    sources = {
        "suites.py": ("import os\n\ndef f():\n"
                      "    return len(os.sched_getaffinity(0))\n"),
        "scenarios.py": ("import os\nfrom os import fork as spawn\n"
                         "pid = os.getpid() or os.getppid()\n"
                         "child = os.fork()\n"),
        "cli.py": "from os import path\nx = self.os.fork\nos.forkpty\n",
    }
    assert os_uses(sources) == [("suites.py", 4), ("scenarios.py", 2),
                                ("scenarios.py", 4)]


def test_only_the_fork_helper_reads_the_cpus_or_forks():
    assert {mod for mod, _ in os_uses(SOURCES)} == {"checks.py"}


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
    assert module_imports(SOURCES, "fractions", FRACTIONS_IMPORTERS) == []


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
    assert module_imports(SOURCES, "dataclasses", {"scenarios.py"}) == []
    assert set(dataclass_definitions(SOURCES)) == DATACLASSES


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
    sources = {**SOURCES, **{f"bench/{p.name}": p.read_text()
                             for p in sorted(bench.glob("*.py"))}}
    assert len(sources) > len(SOURCES)
    assert set(name_readers(sources, "trusted_triangle")) == TRUSTED_BUILDERS


# a square in the scan's per-node code is a product, correctly rounded and
# cheaper than the libm pow that ``**`` calls: no function the scan calls
# at each node, nor the spot checks' copy of the feet, holds a power
PER_NODE = {"medial_residual", "incenter_residual", "square_residual",
            "rectangle_residual", "bisector30_residual", "_center_offsets",
            "bisector_feet"}


def powers(source, functions=PER_NODE):
    """(function, line) of each ``**``, ``**=`` and ``pow`` call in the
    top-level functions of ``source`` that ``functions`` names, and
    (function, None) for each of them that ``source`` does not define."""
    defined = {n.name: n for n in ast.parse(source).body
               if isinstance(n, _FUNCTIONS) and n.name in functions}
    found = [(name, None) for name in sorted(functions - defined.keys())]
    for name, fn in sorted(defined.items()):
        for n in ast.walk(fn):
            if isinstance(getattr(n, "op", None), ast.Pow) or (
                    isinstance(n, ast.Call) and "pow" in (
                        getattr(n.func, "id", None),
                        getattr(n.func, "attr", None))):
                found.append((name, n.lineno))
    return found


def test_the_check_sees_a_power_in_per_node_code():
    src = ("import math\n\n"
           "def medial_residual(a, bs):\n    return [b ** 2 for b in bs]\n\n"
           "def incenter_residual(a, bs):\n    x = a\n    x **= 2\n"
           "    return [math.pow(b, 2) + pow(b, 2) for b in bs]\n\n"
           "def level_set_scan(n, h):\n    return h ** 2\n\n"
           "def bisector_feet(a, b):\n    return a * a + b * b\n")
    functions = {"medial_residual", "incenter_residual", "level_set_scan",
                 "bisector_feet", "bisector30_residual"}
    assert powers(src, functions - {"level_set_scan"}) == [
        ("bisector30_residual", None), ("incenter_residual", 8),
        ("incenter_residual", 9), ("incenter_residual", 9),
        ("medial_residual", 4)]
    assert ("level_set_scan", 12) in powers(src, functions)


def test_the_scan_squares_by_multiplication():
    assert powers(SOURCES["scenarios.py"]) == []


# every record stores its fields through ``record.setters``, the slot
# descriptors' own ``__set__``: no module stores a field by name through
# ``object.__setattr__``, called as it is or under a name bound to it
def _object_setattr(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def stores_by_name(sources):
    """(module, line) of each call of ``object.__setattr__`` in ``sources``
    (module name -> text): as it is, under a name the module assigns it to,
    or as ``_set``, the name the package once imported it under."""
    found = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        aliases = {"_set"}
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and _object_setattr(n.value):
                aliases.update(t.id for t in n.targets
                               if isinstance(t, ast.Name))
        found += [(mod, n.lineno) for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and (
                      _object_setattr(n.func) or (
                          isinstance(n.func, ast.Name)
                          and n.func.id in aliases))]
    return sorted(found)


def test_the_check_sees_a_store_by_name():
    sources = {
        "kernel.py": ("class P(Record):\n    def __init__(self, x):\n"
                      "        object.__setattr__(self, 'x', x)\n"),
        "ssa.py": ("from .record import _set\n\n"
                   "def f(spec, a):\n    _set(spec, '_a', a)\n"),
        "scalars.py": ("store = object.__setattr__\n\n"
                       "class S(Record):\n    def __init__(self, v):\n"
                       "        store(self, '_v', v)\n"
                       "        _set_v(self, v)\n"),
        # a mutable record restores the store by name for assignment
        "report.py": ("class C(Record):\n"
                      "    __setattr__ = object.__setattr__\n\n"
                      "    def fail(self):\n        self.passed = False\n"),
    }
    assert stores_by_name(sources) == [
        ("kernel.py", 3), ("scalars.py", 5), ("ssa.py", 4)]


def test_every_record_stores_through_its_slot_setters():
    assert stores_by_name(SOURCES) == []
