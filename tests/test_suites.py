"""Suite behaviour when the code under test misbehaves."""

from dataclasses import replace
from random import Random

import pytest

from planicheck import suites


@pytest.mark.parametrize("suite", [suites.suite_dichotomy_float,
                                   suites.suite_lemma],
                         ids=lambda f: f.__name__)
def test_a_lost_solution_is_a_failed_check(monkeypatch, suite):
    # the sampler does not filter its draws through the solver, so a solver
    # that drops the second triangle must surface as a failure with its count
    solve = suites.solve_ssa

    def one_solution(spec):
        sols = solve(spec)
        return replace(sols, triangles=sols.triangles[:1],
                       third_sides=sols.third_sides[:1],
                       apex_cosines=sols.apex_cosines[:1],
                       base_cosines=sols.base_cosines[:1])

    monkeypatch.setattr(suites, "solve_ssa", one_solution)
    result = suite(7, Random(3))
    assert not result.passed
    assert result.samples == 7
    assert len(result.witnesses) == 5
    assert all(w["count"] == 1 and {"a", "b", "cos_angle"} <= set(w)
               for w in result.witnesses)


def test_the_sampler_draws_without_solving(monkeypatch):
    def no_solving(spec):
        raise AssertionError("the sampler called the solver")

    monkeypatch.setattr(suites, "solve_ssa", no_solving)
    rng = Random(7)
    for _ in range(200):
        spec = suites.sample_two_solution_spec(rng)
        a, b = spec.side_a.as_float(), spec.side_b.as_float()
        sin_t = (1.0 - spec.cos_angle.as_float() ** 2) ** 0.5
        assert b * sin_t < a < b and spec.cos_angle.as_float() > 0.0
