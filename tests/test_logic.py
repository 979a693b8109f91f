"""Formula parsing, truth-table equivalence and the composition templates."""

import random
from itertools import product

import pytest

from planicheck.logic import (
    MAX_ATOMS,
    And,
    Atom,
    AtomBudgetError,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    UnsatisfiableConstraintError,
    Xor,
    atom_names,
    compose_scheme,
    equivalent,
    format_formula,
    parse_formula,
    verify_scheme_equivalences,
    _table,
)


def evaluate(formula, assignment):
    """The formula's value on one assignment: the engine's packed table at
    one row, which the row-by-row ``oracle_value`` checks below."""
    columns = {name: 1 if assignment[name] else 0
               for name in atom_names(formula)}
    return bool(_table(formula, columns, 1))


def test_parse_composition_template():
    got = parse_formula("t & (p | q) -> r")
    want = Implies(And(Atom("t"), Or(Atom("p"), Atom("q"))), Atom("r"))
    assert got == want


def test_parse_negated_xor():
    assert parse_formula("!(p ^ q)") == Not(Xor(Atom("p"), Atom("q")))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p -> -> q")
    assert err.value.position == 3
    assert "token 3" in str(err.value)


def test_parse_rejects_garbage():
    for text in ("", "p &", "(p", "p q", "p @ q"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


def test_precedence_and_associativity():
    assert parse_formula("!p & q | r") == \
        Or(And(Not(Atom("p")), Atom("q")), Atom("r"))
    assert parse_formula("a -> b -> c") == \
        Implies(Implies(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a <-> b -> c") == \
        Iff(Atom("a"), Implies(Atom("b"), Atom("c")))
    assert parse_formula("a | b ^ c") == Xor(Or(Atom("a"), Atom("b")), Atom("c"))


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return (And, Or, Xor, Implies, Iff)[kind - 1](left, right)


def test_format_parse_round_trip():
    rng = random.Random(12)
    names = ["p", "q", "r", "t"]
    for _ in range(300):
        f = random_formula(rng, names, 4)
        assert parse_formula(format_formula(f)) == f


def test_evaluate():
    f = parse_formula("t & (p | q) -> r")
    assert evaluate(f, {"t": True, "p": True, "q": False, "r": True})
    assert not evaluate(f, {"t": True, "p": True, "q": False, "r": False})
    assert evaluate(f, {"t": False, "p": True, "q": True, "r": False})


def test_group_one_equivalence():
    pair = parse_formula("(t & p -> r) & (t & q -> r)")
    combined = parse_formula("t & (p | q) -> r")
    res = equivalent(pair, combined)
    assert res
    assert res.rows == 16
    assert res.witness is None


def test_proposition_equivalence_requires_exclusivity():
    f1 = parse_formula("(p | !q) & (!p | q)")
    f2 = parse_formula("!p & !q")
    constrained = equivalent(f1, f2, parse_formula("!(p & q)"))
    assert constrained
    assert constrained.rows == 4
    assert constrained.constrained_rows == 3

    unconstrained = equivalent(f1, f2)
    assert not unconstrained
    assert unconstrained.witness == {"p": True, "q": True}


def test_witness_is_first_lexicographic_disagreement():
    res = equivalent(parse_formula("p"), parse_formula("q"))
    assert res.witness == {"p": False, "q": True}


def test_mutated_template_fails():
    pair = parse_formula("(t & p -> r) & (t & q -> r)")
    mutated = parse_formula("t & (p & q) -> r")
    res = equivalent(pair, mutated)
    assert not res
    assert res.witness is not None
    assert evaluate(pair, res.witness) != evaluate(mutated, res.witness)


def test_xor_expansion_identity():
    assert equivalent(parse_formula("p ^ q"),
                      parse_formula("(p & !q) | (!p & q)"))
    assert equivalent(parse_formula("!(p ^ q)"),
                      parse_formula("(p | !q) & (!p | q)"))


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(34)
    names = ["p", "q", "r"]
    constraint = parse_formula("!(p & q)")
    for _ in range(60):
        f = random_formula(rng, names, 3)
        g = random_formula(rng, names, 3)
        h = random_formula(rng, names, 3)
        assert equivalent(f, f, constraint)
        fg, gf = equivalent(f, g, constraint), equivalent(g, f, constraint)
        assert bool(fg) == bool(gf)
        if fg and equivalent(g, h, constraint):
            assert equivalent(f, h, constraint)


def test_atom_budget():
    names = [f"x{i}" for i in range(MAX_ATOMS + 1)]
    big = Atom(names[0])
    for n in names[1:]:
        big = Or(big, Atom(n))
    with pytest.raises(AtomBudgetError):
        equivalent(big, big)
    assert atom_names(big) == frozenset(names)


def oracle_atoms(formula):
    if isinstance(formula, Atom):
        return {formula.name}
    if isinstance(formula, Not):
        return oracle_atoms(formula.operand)
    return oracle_atoms(formula.lhs) | oracle_atoms(formula.rhs)


def oracle_value(formula, row):
    """Row-by-row semantics in plain Python, kept apart from the engine."""
    if isinstance(formula, Atom):
        return row[formula.name]
    if isinstance(formula, Not):
        return not oracle_value(formula.operand, row)
    a = oracle_value(formula.lhs, row)
    b = oracle_value(formula.rhs, row)
    if isinstance(formula, And):
        return a and b
    if isinstance(formula, Or):
        return a or b
    if isinstance(formula, Xor):
        return a != b
    if isinstance(formula, Implies):
        return (not a) or b
    assert isinstance(formula, Iff)
    return a == b


def oracle_equivalent(f1, f2, constraint):
    """(witness, rows, constrained_rows) by walking itertools.product rows."""
    names = oracle_atoms(f1) | oracle_atoms(f2)
    if constraint is not None:
        names |= oracle_atoms(constraint)
    names = sorted(names)
    rows = [dict(zip(names, values))
            for values in product((False, True), repeat=len(names))]
    in_scope = [row for row in rows
                if constraint is None or oracle_value(constraint, row)]
    witness = next((row for row in in_scope
                    if oracle_value(f1, row) != oracle_value(f2, row)), None)
    return witness, len(rows), len(in_scope)


def test_equivalent_and_evaluate_match_row_by_row_oracle():
    rng = random.Random(5)
    verdicts = set()
    unsatisfiable = 0
    for n in range(1, 9):
        names = [f"a{i}" for i in range(n)]
        for trial in range(30):
            f1 = random_formula(rng, names, 5)
            f2 = rng.choice([random_formula(rng, names, 5), Not(Not(f1)),
                             Xor(f1, And(Atom(names[0]), Atom(names[-1])))])
            constraint = (random_formula(rng, names, 3) if trial % 2
                          else None)
            witness, rows, in_scope = oracle_equivalent(f1, f2, constraint)
            if not in_scope:
                # a constraint that holds on no row would make any pair
                # vacuously equivalent
                with pytest.raises(UnsatisfiableConstraintError):
                    equivalent(f1, f2, constraint)
                unsatisfiable += 1
            else:
                res = equivalent(f1, f2, constraint)
                assert res.equivalent == (witness is None)
                assert res.witness == witness
                assert (res.rows, res.constrained_rows) == (rows, in_scope)
                verdicts.add(res.equivalent)
            for values in product((False, True), repeat=n):
                row = dict(zip(names, values))
                assert evaluate(f1, row) == oracle_value(f1, row)
    assert verdicts == {True, False}
    assert unsatisfiable == 6


def test_max_atoms_differ_only_on_the_all_true_row():
    names = [f"x{i:02d}" for i in range(MAX_ATOMS)]
    every = Atom(names[0])
    for name in names[1:]:
        every = And(every, Atom(name))
    never = And(every, Not(Atom(names[0])))
    res = equivalent(every, never)
    assert not res
    assert res.witness == {name: True for name in names}
    assert res.rows == res.constrained_rows == 2 ** 20
    res = equivalent(every, never, Not(every))
    assert res and res.witness is None
    assert res.constrained_rows == 2 ** 20 - 1


def test_compose_scheme_inclusive():
    s = compose_scheme("t", "p", "q", "r", "inclusive")
    assert format_formula(s.generating_1) == "t & p -> r"
    assert format_formula(s.generating_2) == "t & q -> r"
    assert format_formula(s.combined) == "t & (p | q) -> r"
    assert format_formula(s.inverse) == "t & r -> p | q"


def test_compose_scheme_exclusive():
    s = compose_scheme("t", "p", "q", "r", "exclusive")
    assert format_formula(s.combined) == "t & (p ^ q) -> r"
    assert format_formula(s.inverse) == "t & r -> p ^ q"


def test_compose_scheme_is_stable():
    a = compose_scheme("t", "p", "q", "r", "inclusive")
    b = compose_scheme("t", "p", "q", "r", "inclusive")
    assert a == b
    assert format_formula(a.combined) == format_formula(b.combined)


def test_compose_scheme_validation():
    with pytest.raises(ValueError):
        compose_scheme("t", "p", "p", "r", "inclusive")
    with pytest.raises(ValueError):
        compose_scheme("t", "p", "q", "r", "sideways")


def test_scheme_equivalences_all_pass():
    checks = verify_scheme_equivalences()
    assert len(checks) == 6
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    pair_checks = ("combined-inclusive-equals-generating-pair",
                   "combined-exclusive-equals-generating-pair")
    for name in pair_checks:
        assert by_name[name].result.rows == 16
        assert not by_name[name].constrained
    for name in ("exclusive-reduces-p-and-not-q-to-p",
                 "exclusive-reduces-not-p-and-q-to-q",
                 "not-xor-equals-clause-pair",
                 "clause-pair-collapses-to-neither"):
        assert by_name[name].result.rows == 4
        assert by_name[name].result.constrained_rows == 3
        assert by_name[name].constrained
