"""Suite behaviour when the code under test misbehaves."""

import json
import math
import os
from dataclasses import replace
from random import Random

import pytest

from conftest import assert_no_child_left, pin_cpus
from planicheck import report as rpt
from planicheck import scenarios, suites
from planicheck.errors import DegenerateInputError, ExactValueError
from planicheck.kernel import point
from planicheck.checks import run_check
from planicheck.report import check_to_dict
from planicheck.scalars import Scalar


@pytest.mark.parametrize("suite", [suites.suite_dichotomy_float,
                                   suites.suite_lemma],
                         ids=lambda f: f.__name__)
def test_a_lost_solution_is_a_failed_check(monkeypatch, suite):
    # the sampler does not filter its draws through the solver, so a solver
    # that drops the second triangle must surface as a failure with its count
    solve = suites.solve_ssa
    monkeypatch.setattr(suites, "solve_ssa", lambda spec: solve(spec)[:1])
    result = suite(7, Random(3))
    assert not result.passed
    assert result.samples == 7
    assert len(result.witnesses) == 5
    assert all(w["count"] == 1 and {"a", "b", "cos_angle"} <= set(w)
               for w in result.witnesses)


def test_the_two_solution_draw_records_its_cosine_and_builds_no_scalar(
        monkeypatch):
    built = []
    init = Scalar.__init__

    def counting_init(scalar, backend, payload):
        built.append(payload)
        init(scalar, backend, payload)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    witness = {}
    assert len(suites._draw_two_solutions(Random(3), suites.FLOAT,
                                            witness)) == 2
    assert built == []
    assert list(witness) == ["theta_deg", "a", "b", "cos_angle"]
    assert witness["cos_angle"] == math.cos(math.radians(witness["theta_deg"]))


def test_a_same_side_lemma_pair_is_a_failed_check(monkeypatch):
    # D left unmirrored lies on C's side of AB, where the lemma report has
    # no concyclicity determinant: the check fails instead of raising
    monkeypatch.setattr(suites, "point",
                        lambda backend, x, y: point(backend, x, -y))
    result = suites.suite_lemma(7, Random(3))
    assert not result.passed
    assert result.samples == 7
    assert len(result.witnesses) == 5
    assert all(w["opposite_sides"] is False and w["det_norm"] is None
               and {"a", "b", "cos_angle"} <= set(w)
               for w in result.witnesses)


def forward_check(residual):
    scenario = replace(scenarios.get_scenario("square-center"),
                       residual=residual)
    return lambda samples, rng: scenarios.suite_forward(
        scenario, scenario.branches[0], samples, rng)


# each sampled check, and the code under test that it calls on every sample
SAMPLED_CHECKS = [(suites.suite_ssa_oracle, "solve_ssa"),
                  (suites.suite_dichotomy_float, "classify_pair"),
                  (suites.suite_dichotomy_exact, "classify_pair"),
                  (suites.suite_lemma, "lemma_common_side_check"),
                  (suites.suite_backend_cross, "classify_pair"),
                  (forward_check, "residual")]


@pytest.mark.parametrize("error", [DegenerateInputError, ExactValueError],
                         ids=lambda e: e.__name__)
@pytest.mark.parametrize("suite, target", SAMPLED_CHECKS,
                         ids=lambda x: getattr(x, "__name__", x))
def test_a_rejected_sample_is_a_failing_witness(monkeypatch, suite, target,
                                                error):
    def reject(*args, **kwargs):
        raise error("rejected by the code under test")

    if target == "residual":
        suite = suite(reject)
    else:
        monkeypatch.setattr(suites, target, reject)
    result = suite(7, Random(3))
    assert not result.passed
    assert result.samples == 7
    assert len(result.witnesses) == 5
    assert all(w["error"] == "rejected by the code under test"
               for w in result.witnesses)


def test_a_nan_residual_is_a_failing_witness():
    # max drops a NaN and "NaN > TOL" is False, so without its own test a
    # NaN residual would pass the sample and leave worst_residual at 0
    result = run_check("nan", 3, lambda index, witness: (math.nan, None))
    assert not result.passed
    assert result.worst_residual == 0.0
    assert result.witnesses == [{"error": "residual is not a number"}] * 3

    # a residual is a row function: one value per beta
    result = forward_check(lambda alpha, betas: [math.nan] * len(betas))(
        7, Random(3))
    assert not result.passed
    assert result.samples == 7 and result.worst_residual == 0.0
    assert len(result.witnesses) == 5
    assert all(w["error"] == "residual is not a number"
               and {"alpha_deg", "beta_deg"} <= set(w)
               for w in result.witnesses)
    # the body stays valid JSON
    json.dumps(check_to_dict(result), allow_nan=False)


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


def test_a_check_of_no_samples_is_rejected(monkeypatch):
    # run_check is the one place that refuses a count below one, for the
    # scenario checks as for the verify battery, whose suites then weigh
    # nothing and run in this process alone
    with pytest.raises(ValueError, match="at least 1"):
        scenarios.run_scenario_suites("square-center", 0, 1)
    pin_cpus(monkeypatch, 5)
    forks = counting_forks(monkeypatch)
    with pytest.raises(ValueError, match="at least 1"):
        suites.run_verify_suites(0, 1)
    assert forks == []
    with pytest.raises(ValueError, match="at least 1"):
        suites.suite_ssa_oracle(0, Random(1))


def render(checks):
    return rpt.render_json(rpt.build_report({}, checks))


def counting_forks(monkeypatch):
    """A list that gets one entry per ``os.fork`` from here on."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("samples, seed, forks_at", [
    # the oracle outweighs the other suites, which share one worker
    (1000, 42, {2: 1, 3: 1, 4: 1, 5: 1}),
    # at four samples every other suite still draws one, so up to four
    # groups form
    (4, 7, {2: 1, 3: 2, 4: 2, 5: 3})])
def test_a_grouped_verify_equals_the_one_group_run(monkeypatch, backend,
                                                   samples, seed, forks_at):
    pin_cpus(monkeypatch, 1)
    forks = counting_forks(monkeypatch)
    whole = render(suites.run_verify_suites(samples, seed, backend))
    assert forks == []
    for cpus, expected in forks_at.items():
        pin_cpus(monkeypatch, cpus)
        forks.clear()
        assert render(suites.run_verify_suites(samples, seed, backend)) \
            == whole
        assert len(forks) == expected
        assert_no_child_left()


def test_a_grouped_failing_verify_keeps_its_witnesses(monkeypatch):
    # a coarse eps fails the oracle, which runs here, and two suites that
    # run in a worker: the witnesses it sends back are the ones this
    # process records
    runs = []
    for cpus in range(1, 6):
        pin_cpus(monkeypatch, cpus)
        checks = suites.run_verify_suites(1000, 3, eps=1e-3)
        runs.append(render(checks))
    assert [c.name for c in checks if not c.passed] == [
        "ssa-oracle-equivalence", "dichotomy-supplementary-float",
        "lemma-common-side"]
    assert runs == [runs[0]] * 5


def test_a_failing_worker_raises_its_error_here_and_leaves_no_child(
        monkeypatch):
    caller = os.getpid()

    def failing(samples, rng, float_backend):
        raise RuntimeError(f"no check of {samples} samples")

    def failing_elsewhere(samples, rng, float_backend):
        # fails in a worker only, whose group is then rerun here
        if os.getpid() != caller:
            raise RuntimeError("failed in a worker")
        return suites.suite_lemma(samples, rng, float_backend)

    def with_lemma(suite):
        table = suites.VERIFY_SUITES
        return (*table[:3], ("lemma-common-side", 100, suite), table[4])

    # the lemma suite runs in a worker at 2 and 5 CPUs
    monkeypatch.setattr(suites, "VERIFY_SUITES", with_lemma(failing))
    for cpus in (1, 2, 5):
        pin_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="^no check of 4 samples$"):
            suites.run_verify_suites(400, 3)
        assert_no_child_left()

    monkeypatch.setattr(suites, "VERIFY_SUITES", with_lemma(failing_elsewhere))
    bodies = []
    for cpus in (1, 2, 5):
        pin_cpus(monkeypatch, cpus)
        bodies.append(render(suites.run_verify_suites(400, 3)))
        assert_no_child_left()
    assert bodies == [bodies[0]] * 3

