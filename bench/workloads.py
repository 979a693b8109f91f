"""The benchmark workloads, their seeded inputs and the output gate.

A workload is a list of ``Job``s, each one ``planicheck`` CLI invocation that
runs as its own child process.  The seed is an argument of the benchmark; the
program only ever sees the CLI arguments built here.  Each job carries the
checks its report body must pass, so every repeat of every run is gated.

Sizes come from measurements on a 2-core machine (one busy thread per child;
the ranges are the machine's own drift): ``verify`` costs 0.11-0.22 ms per
sample, a five-scenario sweep at the default grid 5-11 s, and a full truth
table over 16 atoms 1-2 s per formula pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

SCENARIO_NAMES = ("medial-circumcenter", "incenter-segments", "square-center",
                  "rectangle-center", "bisector-30")
# the one scenario whose containment is exploratory rather than asserted
EXPLORATORY_SCENARIO = "rectangle-center"

WORKLOADS = ("verify-float", "scan-sweep", "logic-wide")

Checks = List[Tuple[str, bool]]


@dataclass(frozen=True)
class Size:
    """Problem sizes of one workload family; ``FULL`` is what runs are
    measured on, ``SMALL`` keeps the self-test to a few seconds."""

    float_samples: int
    scan_args: Tuple[str, ...]
    logic_atoms: int


FULL = Size(float_samples=20000, scan_args=(), logic_atoms=16)
SMALL = Size(float_samples=300,
             scan_args=("--grid-step-deg", "3", "--samples", "20"),
             logic_atoms=6)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checks its exit code and body must pass."""

    label: str
    argv: Tuple[str, ...]
    expect_exit: int
    check_body: Callable[[Dict], Checks]

    def gate(self, exit_code: int, body: Optional[Dict]) -> Checks:
        checks = [(f"{self.label}: exit code {self.expect_exit}",
                   exit_code == self.expect_exit)]
        if body is None:
            return checks + [(f"{self.label}: report written", False)]
        try:
            return checks + self.check_body(body)
        except (KeyError, IndexError, TypeError) as exc:
            return checks + [(f"{self.label}: report shape ({exc!r})", False)]


def _all_checks_pass(label: str, body: Dict, count: int) -> Checks:
    checks = [(f"{label}: {c['name']} pass", c["pass"] is True)
              for c in body["checks"]]
    return checks + [(f"{label}: {count} checks reported",
                      len(body["checks"]) == count)]


def verify_jobs(seed: int, samples: int) -> List[Job]:
    argv = ("verify", "--samples", str(samples), "--seed", str(seed))
    return [Job("verify", argv, 0,
                lambda body: _all_checks_pass("verify", body, 5))]


def scan_jobs(seed: int, extra_args: Tuple[str, ...]) -> List[Job]:
    jobs = []
    for name in SCENARIO_NAMES:
        asserted = name != EXPLORATORY_SCENARIO

        def check_body(body, name=name, asserted=asserted):
            checks = [(f"{name}: {c['name']} pass", c["pass"] is True)
                      for c in body["checks"]]
            checks.append((f"{name}: asserted is {asserted}",
                           body["scan"]["asserted"] is asserted))
            if asserted:
                checks.append((f"{name}: roots contained",
                               body["containment"] is True))
            return checks

        jobs.append(Job(name, ("scenario", name, "--seed", str(seed))
                        + extra_args, 0, check_body))
    return jobs


# -- seeded formulas with planted answers ---------------------------------------
#
# Formulas are trees of tuples: ("atom", name), ("!", x) or (op, lhs, rhs).
# The truth-table engine evaluates every node on every row, and its cost per
# node depends on the connective, so node counts and connective counts are
# fixed by the atom count, never by the seed: the seed picks shapes, the order
# of connectives and rewrites, not the amount of work.

_BINARY_OPS = ("&", "|", "^", "->", "<->")
_SYMMETRIC_OPS = ("&", "|", "^", "<->")
_EXTRA_LEAVES = 4
_NEGATIONS = 4


def atom_names(n: int) -> List[str]:
    return [f"x{i:02d}" for i in range(n)]


def random_formula(rng: Random, names: List[str]):
    """Every atom once plus ``_EXTRA_LEAVES`` repeats, joined in a random
    shape by the binary connectives in turn (shuffled), with ``_NEGATIONS``
    subtrees negated."""
    nodes = [("atom", n) for n in names]
    nodes += [("atom", rng.choice(names)) for _ in range(_EXTRA_LEAVES)]
    rng.shuffle(nodes)
    merges = len(nodes) - 1
    ops = [_BINARY_OPS[k % len(_BINARY_OPS)] for k in range(merges)]
    rng.shuffle(ops)
    negate = set(rng.sample(range(merges), _NEGATIONS))
    for step, op in enumerate(ops):
        i = rng.randrange(len(nodes) - 1)
        node = (op, nodes[i], nodes[i + 1])
        nodes[i:i + 2] = [("!", node) if step in negate else node]
    return nodes[0]


def rewrite(rng: Random, f):
    """An equivalent formula with the same node count: random commutations of
    symmetric connectives, re-association of equal associative ones, and
    negations moved from an XOR or IFF onto its left operand."""
    if f[0] == "atom":
        return f
    if f[0] == "!":
        inner = f[1]
        if inner[0] in ("^", "<->") and rng.random() < 0.5:
            return rewrite(rng, (inner[0], ("!", inner[1]), inner[2]))
        return ("!", rewrite(rng, inner))
    op, lhs, rhs = f
    if op in _SYMMETRIC_OPS:
        if rhs[0] == op and rng.random() < 0.5:
            # a op (b op c)  ->  (a op b) op c
            lhs, rhs = (op, lhs, rhs[1]), rhs[2]
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
    return (op, rewrite(rng, lhs), rewrite(rng, rhs))


def render(f) -> str:
    if f[0] == "atom":
        return f[1]
    if f[0] == "!":
        return f"!{render(f[1])}"
    return f"({render(f[1])} {f[0]} {render(f[2])})"


def conjunction(names: List[str]):
    f = ("atom", names[0])
    for n in names[1:]:
        f = ("&", f, ("atom", n))
    return f


def logic_jobs(seed: int, atoms: int, plant_wrong: bool = False) -> List[Job]:
    """Two formula pairs with answers known by construction.

    ``rewrite``: F against a rewrite of F under the constraint !(p & q) for
    two seeded atoms p, q, so exactly three quarters of the rows are in scope.
    ``last-row``: F against (rewrite of F) XOR (all atoms), which differs
    only on the all-true assignment, the last row in witness order, so the
    engine must scan the whole table before it finds the witness.

    ``plant_wrong`` flips the planted verdict of the second pair; the self-test
    uses it to show that a wrong answer is counted as a failure.
    """
    rng = Random(seed)
    names = atom_names(atoms)
    rows = 2 ** atoms

    f1 = random_formula(rng, names)
    g1 = rewrite(rng, f1)
    p, q = rng.sample(names, 2)
    constraint = ("!", ("&", ("atom", p), ("atom", q)))

    f2 = random_formula(rng, names)
    g2 = ("^", rewrite(rng, f2), conjunction(names))
    all_true = {n: True for n in names}

    def check_equivalent(body):
        c = body["checks"][0]
        return [("rewrite: verdict equivalent", c["pass"] is True),
                ("rewrite: no witness", c["witnesses"] == []),
                (f"rewrite: {rows} rows", body["rows"] == rows),
                (f"rewrite: {rows * 3 // 4} rows in scope",
                 body["constrained_rows"] == rows * 3 // 4)]

    expect_equivalent = plant_wrong

    def check_last_row(body):
        c = body["checks"][0]
        return [("last-row: verdict", c["pass"] is expect_equivalent),
                ("last-row: witness is the all-true row",
                 c["witnesses"] == ([] if expect_equivalent else [all_true])),
                (f"last-row: {rows} rows", body["rows"] == rows)]

    return [
        Job("rewrite", ("logic", "--formula", render(f1), "--equiv",
                        render(g1), "--constraint", render(constraint)),
            0, check_equivalent),
        Job("last-row", ("logic", "--formula", render(f2), "--equiv",
                         render(g2)),
            0 if expect_equivalent else 1, check_last_row),
    ]


def jobs_for(workload: str, seed: int, size: Size = FULL,
             plant_wrong: bool = False) -> List[Job]:
    if workload == "verify-float":
        return verify_jobs(seed, size.float_samples)
    if workload == "scan-sweep":
        return scan_jobs(seed, size.scan_args)
    if workload == "logic-wide":
        return logic_jobs(seed, size.logic_atoms, plant_wrong)
    raise ValueError(f"unknown workload {workload!r}")
