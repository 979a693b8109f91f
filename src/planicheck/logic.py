"""Propositional formulas over named atoms, checked by exhaustive truth table.

This is the composition calculus behind the scenario family: a statement
template combines a premise t, two condition atoms p and q, and a conclusion
r into generating problems (t AND p -> r, t AND q -> r), a combined problem
over p OR q (or p XOR q when the conditions exclude each other), and the
inverse problem (t AND r -> p OR q).  Equivalence checking is constraint
relative because the exclusive-disjunction algebra is valid only under the
mutual-exclusivity assumption NOT (p AND q); the engine can demonstrate both
the failure without the constraint and the success with it.

Each binary connective is declared once, in ``_CONNECTIVES``: its ASCII
symbol, AST class, precedence (its level's position, loosest first; all group
left) and truth function.  Tokenizer, parser, formatter and evaluator derive
from that table.  ``!`` (NOT) binds tightest; parentheses group.

Truth tables, not SAT: the atom counts here are small, and an exhaustive
table is simple to audit.  A table is packed into one integer, bit r holding
the value on row r, so one pass over the formula evaluates all 2**n rows.
"""

from __future__ import annotations

import re
from typing import List, Mapping, Optional, Tuple, Union

from .errors import UsageError
from .record import Record


class FormulaSyntaxError(UsageError, ValueError):
    """Malformed formula text; ``position`` is the 1-based token index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at token {position}")
        self.position = position


class AtomBudgetError(UsageError, ValueError):
    """Too many distinct atoms for exhaustive enumeration."""


class UnsatisfiableConstraintError(UsageError, ValueError):
    """A constraint no assignment satisfies, under which any two formulas
    would be vacuously equivalent."""


class SchemeVerificationError(RuntimeError):
    """Internal consistency check of a composed scheme failed."""


MAX_ATOMS = 20


class Atom(Record):
    __slots__ = ("name",)


class Not(Record):
    __slots__ = ("operand",)


class _Binary(Record):
    __slots__ = ("lhs", "rhs")


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


Formula = Union[Atom, Not, And, Or, Xor, Implies, Iff]

# Binary connectives by precedence level, loosest first.  A truth function
# maps the packed tables of the two operands to the compound's packed table;
# ``full`` has one bit per row, so ``full ^ a`` is NOT a.
_CONNECTIVES = (
    (("<->", Iff, lambda a, b, full: full ^ a ^ b),),
    (("->", Implies, lambda a, b, full: (full ^ a) | b),),
    (("|", Or, lambda a, b, full: a | b),
     ("^", Xor, lambda a, b, full: a ^ b)),
    (("&", And, lambda a, b, full: a & b),),
)
_BY_SYMBOL = {symbol: (level, cls)
              for level, entries in enumerate(_CONNECTIVES)
              for symbol, cls, _ in entries}
_SYMBOL = {cls: symbol for symbol, (_, cls) in _BY_SYMBOL.items()}
_TRUTH = {cls: truth for entries in _CONNECTIVES for _, cls, truth in entries}
_PREC = {**{cls: level + 1 for level, cls in _BY_SYMBOL.values()},
         Not: len(_CONNECTIVES) + 1, Atom: len(_CONNECTIVES) + 2}


def atom_names(formula: Formula) -> frozenset:
    if isinstance(formula, Atom):
        return frozenset((formula.name,))
    if isinstance(formula, Not):
        return atom_names(formula.operand)
    return atom_names(formula.lhs) | atom_names(formula.rhs)


def _table(formula: Formula, columns: Mapping[str, int], full: int) -> int:
    """Packed truth table of ``formula``, given each atom's packed table."""
    if isinstance(formula, Atom):
        return columns[formula.name]
    if isinstance(formula, Not):
        return full ^ _table(formula.operand, columns, full)
    return _TRUTH[type(formula)](_table(formula.lhs, columns, full),
                                 _table(formula.rhs, columns, full), full)


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<op>%s))" % "|".join(
    map(re.escape, [*_BY_SYMBOL, "!", "(", ")"])))


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise FormulaSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r}",
                    len(tokens) + 1)
            break
        pos = m.end()
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("op"):
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.index = 0

    @property
    def position(self) -> int:
        return self.index + 1

    def peek_op(self) -> Optional[str]:
        if self.index < len(self.tokens) and self.tokens[self.index][0] == "op":
            return self.tokens[self.index][1]
        return None

    def advance(self):
        self.index += 1

    def parse(self) -> Formula:
        node = self.parse_binary()
        if self.index != len(self.tokens):
            raise FormulaSyntaxError(
                f"unexpected {self.tokens[self.index][1]!r}", self.position)
        return node

    def parse_binary(self, min_level: int = 0) -> Formula:
        """Precedence climbing over connectives of level ``min_level`` or
        tighter; right operands take only tighter ones, so equal levels
        group left."""
        node = self.parse_not()
        while self.peek_op() in _BY_SYMBOL:
            level, cls = _BY_SYMBOL[self.peek_op()]
            if level < min_level:
                break
            self.advance()
            node = cls(node, self.parse_binary(level + 1))
        return node

    def parse_not(self) -> Formula:
        if self.peek_op() == "!":
            self.advance()
            return Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        if self.index >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", self.position)
        kind, text = self.tokens[self.index]
        if kind == "name":
            self.advance()
            return Atom(text)
        if text == "(":
            self.advance()
            node = self.parse_binary()
            if self.peek_op() != ")":
                raise FormulaSyntaxError("expected ')'", self.position)
            self.advance()
            return node
        raise FormulaSyntaxError(f"expected atom or '(', got {text!r}",
                                 self.position)


def parse_formula(text: str) -> Formula:
    return _Parser(_tokenize(text)).parse()


def format_formula(formula: Formula) -> str:
    """Minimal-parentheses rendering; parses back to an equal tree."""
    prec = _PREC[type(formula)]
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        inner = format_formula(formula.operand)
        if _PREC[type(formula.operand)] < prec:
            inner = f"({inner})"
        return f"!{inner}"
    lhs = format_formula(formula.lhs)
    if _PREC[type(formula.lhs)] < prec:
        lhs = f"({lhs})"
    rhs = format_formula(formula.rhs)
    # left-associative grammar: equal precedence on the right needs parens
    if _PREC[type(formula.rhs)] <= prec:
        rhs = f"({rhs})"
    return f"{lhs} {_SYMBOL[type(formula)]} {rhs}"


# -- equivalence --------------------------------------------------------------

class EquivalenceResult(Record):
    """``equivalent``, the first differing assignment as ``witness`` (None
    when equivalent), and the ``rows`` and ``constrained_rows`` counted."""

    __slots__ = ("equivalent", "witness", "rows", "constrained_rows")

    def __bool__(self) -> bool:
        return self.equivalent


def equivalent(f1: Formula, f2: Formula,
               constraint: Optional[Formula] = None) -> EquivalenceResult:
    """Truth-table equivalence of f1 and f2 over assignments satisfying the
    constraint (all assignments when no constraint is given); a constraint
    that holds on no row raises ``UnsatisfiableConstraintError``.

    The first differing assignment, in lexicographic order over sorted atom
    names with false before true, is returned as the witness.
    """
    names = atom_names(f1) | atom_names(f2)
    if constraint is not None:
        names |= atom_names(constraint)
    ordered = sorted(names)
    n = len(ordered)
    if n > MAX_ATOMS:
        raise AtomBudgetError(
            f"{n} atoms exceed the exhaustive budget of {MAX_ATOMS}")
    # row r gives sorted atom i bit n-1-i of r (lexicographic row order):
    # each atom added in front doubles the table and is true on the new half
    full, tables = 1, []
    for _ in ordered:
        rows = full.bit_length()
        tables = [full << rows] + [t | t << rows for t in tables]
        full |= full << rows
    columns = dict(zip(ordered, tables))
    scope = full if constraint is None else _table(constraint, columns, full)
    if not scope:
        raise UnsatisfiableConstraintError(
            f"constraint {format_formula(constraint)} holds on no row")
    differ = (_table(f1, columns, full) ^ _table(f2, columns, full)) & scope
    witness = None
    if differ:
        row = (differ & -differ).bit_length() - 1
        witness = {name: bool(row >> (n - 1 - i) & 1)
                   for i, name in enumerate(ordered)}
    return EquivalenceResult(not differ, witness, 1 << n, scope.bit_count())


# -- composition schemes ------------------------------------------------------

class ProblemScheme(Record):
    """Derived formulas of one premise/conditions/conclusion template:
    the atom names ``premise``, ``condition_p``, ``condition_q`` and
    ``conclusion``, the ``kind`` ("inclusive" or "exclusive"), and the
    formulas ``generating_1``, ``generating_2``, ``combined`` and
    ``inverse``."""

    __slots__ = ("premise", "condition_p", "condition_q", "conclusion", "kind",
                 "generating_1", "generating_2", "combined", "inverse")


def compose_scheme(t: str, p: str, q: str, r: str, kind: str) -> ProblemScheme:
    """Build the generating, combined, and inverse formulas for atoms t, p,
    q, r, and verify that the combined problem equals the conjunction of the
    generating ones (for the exclusive kind, under NOT (p AND q))."""
    if kind not in ("inclusive", "exclusive"):
        raise ValueError("kind must be 'inclusive' or 'exclusive'")
    if len({t, p, q, r}) != 4:
        raise ValueError("atoms t, p, q, r must be distinct")
    at, ap, aq, ar = Atom(t), Atom(p), Atom(q), Atom(r)
    disjunction = Or(ap, aq) if kind == "inclusive" else Xor(ap, aq)
    scheme = ProblemScheme(
        premise=t, condition_p=p, condition_q=q, conclusion=r, kind=kind,
        generating_1=Implies(And(at, ap), ar),
        generating_2=Implies(And(at, aq), ar),
        combined=Implies(And(at, disjunction), ar),
        inverse=Implies(And(at, ar), disjunction),
    )
    constraint = None if kind == "inclusive" else Not(And(ap, aq))
    check = equivalent(And(scheme.generating_1, scheme.generating_2),
                       scheme.combined, constraint)
    if not check.equivalent:
        raise SchemeVerificationError(
            f"combined formula not equivalent to generating pair: "
            f"witness {check.witness}")
    return scheme


# -- the named equivalence suite ----------------------------------------------

class LogicCheck(Record):
    __slots__ = ("name", "result", "constrained")

    @property
    def passed(self) -> bool:
        return self.result.equivalent


def verify_scheme_equivalences() -> List[LogicCheck]:
    """The six equivalences underpinning the composition calculus.

    Two unconstrained template identities over {t, p, q, r} (16 rows each)
    and four mutual-exclusivity facts over {p, q} checked under the
    constraint NOT (p AND q) (4 rows, 3 satisfying).
    """
    t, p, q, r = Atom("t"), Atom("p"), Atom("q"), Atom("r")
    not_both = Not(And(p, q))
    pairs = [
        ("combined-inclusive-equals-generating-pair",
         And(Implies(And(t, p), r), Implies(And(t, q), r)),
         Implies(And(t, Or(p, q)), r), None),
        ("combined-exclusive-equals-generating-pair",
         And(Implies(And(t, And(p, Not(q))), r),
             Implies(And(t, And(Not(p), q)), r)),
         Implies(And(t, Xor(p, q)), r), None),
        ("exclusive-reduces-p-and-not-q-to-p",
         And(p, Not(q)), p, not_both),
        ("exclusive-reduces-not-p-and-q-to-q",
         And(Not(p), q), q, not_both),
        ("not-xor-equals-clause-pair",
         Not(Xor(p, q)), And(Or(p, Not(q)), Or(Not(p), q)), not_both),
        ("clause-pair-collapses-to-neither",
         And(Or(p, Not(q)), Or(Not(p), q)), And(Not(p), Not(q)), not_both),
    ]
    return [LogicCheck(name, equivalent(f1, f2, c), c is not None)
            for name, f1, f2, c in pairs]
