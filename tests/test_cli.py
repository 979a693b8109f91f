"""End-to-end command-line checks driven through cli.main in-process."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planicheck import cli, scenarios, suites
from planicheck.errors import UsageError
from planicheck.logic import (AtomBudgetError, FormulaSyntaxError,
                              SchemeVerificationError,
                              UnsatisfiableConstraintError)
from planicheck.report import CheckResult
from planicheck.scalars import (EXACT, BackendMismatchError,
                                DegenerateInputError, ExactValueError,
                                LengthMismatchError)
from planicheck.scenarios import FeetOffSegmentError, UnknownScenarioError
from planicheck.ssa import DichotomyViolationError, LemmaPreconditionError


def run(argv):
    return cli.main(argv)


def test_ssa_two_solution_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["ssa", "--a", "1", "--b", "1.7320508075688772",
                "--angle-deg", "30", "--report", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "2 solutions" in text
    assert "verdict: Supplementary" in text

    body = json.loads(out.read_text())
    assert body["version"]
    assert body["config"]["backend"] == "float"
    sols = body["solutions"]
    thirds = sorted(s["third_side"] for s in sols)
    assert thirds == pytest.approx([1.0, 2.0])
    angles = sorted(s["apex_angle_deg"] for s in sols)
    assert angles == pytest.approx([60.0, 120.0])
    assert body["verdict"]["kind"] == "Supplementary"
    assert sum(body["verdict"]["angles_deg"]) == pytest.approx(180.0)
    assert body["predicted_case"] == "angle-opposite-smaller"


def test_ssa_unique_solution(capsys):
    assert run(["ssa", "--a", "1", "--b", "1", "--angle-deg", "60"]) == 0
    text = capsys.readouterr().out
    assert "1 solution" in text
    assert "isosceles-equal-sides" in text


def test_ssa_no_solution(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["ssa", "--a", "0.4", "--b", "1", "--angle-deg", "30",
                "--report", str(out)])
    assert code == 0
    assert "0 solutions" in capsys.readouterr().out
    assert json.loads(out.read_text())["solutions"] == []


def test_ssa_included_angle(capsys):
    assert run(["ssa", "--a", "3", "--b", "4", "--cos", "0",
                "--included"]) == 0
    text = capsys.readouterr().out
    assert "1 solution (included angle)" in text
    assert "third side 5.0" in text


def test_ssa_exact_rational_cosine(capsys):
    code = run(["ssa", "--a", "4", "--b", "5", "--cos", "3/5",
                "--backend", "exact"])
    assert code == 0
    text = capsys.readouterr().out
    assert "1 solution" in text
    assert "third side 3.0" in text


def test_ssa_sides_take_fractions_as_cos_does(tmp_path, capsys):
    # a fraction side is the exact rational it names, and its body is the
    # body of the same rationals written as decimals
    bodies = []
    for a, b in (("1/10", "1/5"), ("0.1", "0.2")):
        out = tmp_path / f"{a.replace('/', '_')}.json"
        assert run(["ssa", "--backend", "exact", "--a", a, "--b", b,
                    "--cos", "3/5", "--report", str(out)]) == 0
        assert "0 solutions" in capsys.readouterr().out
        body = json.loads(out.read_text())
        body.pop("wall_time_s", None)
        bodies.append(body)
    assert bodies[0] == bodies[1]
    assert bodies[0]["config"]["a"] == "1/10"
    assert bodies[0]["config"]["b"] == "1/5"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_ssa_query_replays_from_its_config_echo(tmp_path, capsys, backend):
    # a side 12 digits cannot hold, such as 4/3, echoes exactly, so the
    # echo names the query that ran
    query = ["--a", "4/3", "--b", "5/3", "--cos", "3/5"]
    bodies = []
    for _ in range(2):
        out = tmp_path / "r.json"
        assert run(["ssa", "--backend", backend, *query,
                    "--report", str(out)]) == 0
        body = json.loads(out.read_text())
        body.pop("wall_time_s")
        bodies.append(body)
        config = body["config"]
        query = ["--a", config["a"], "--b", config["b"],
                 "--cos", config["cos"]]
    assert bodies[0]["config"]["a"] == "4/3"
    assert len(bodies[0]["solutions"]) == 1
    assert bodies[1] == bodies[0]


def test_ssa_exact_two_solution(capsys):
    a = "4.123105625617661"  # sqrt(17)
    code = run(["ssa", "--a", a, "--b", "5", "--cos", "3/5"])
    assert code == 0
    text = capsys.readouterr().out
    assert "2 solutions" in text
    assert "verdict: Supplementary" in text


def test_ssa_rejects_nonpositive_side():
    with pytest.raises(SystemExit) as err:
        run(["ssa", "--a", "1", "--b", "-2", "--angle-deg", "30"])
    assert err.value.code == 2


def test_ssa_rejects_degenerate_angle():
    assert run(["ssa", "--a", "1", "--b", "1", "--angle-deg", "180"]) == 2


def test_ssa_rejects_bad_cos_literal():
    assert run(["ssa", "--a", "1", "--b", "1", "--cos", "3//5"]) == 2


@pytest.mark.parametrize("angle", [
    ["--cos", "2", "--included"],
    ["--angle-deg", "0", "--included"],
    ["--angle-deg", "180", "--included"],
    ["--angle-deg", "200"],
    ["--angle-deg", "-30"],
    ["--angle-deg", "nan"],
], ids=lambda argv: " ".join(argv))
def test_ssa_rejects_an_angle_outside_the_open_range(capsys, angle):
    # the query is validated before anything goes to stdout
    assert run(["ssa", "--a", "3", "--b", "4", *angle]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_ssa_exact_degree_angle_is_the_value_of_its_double_cosine(capsys):
    # a degree angle is the exact dyadic value of its double cosine on
    # every designation; the payload arithmetic alone decides whether the
    # exact solver can represent the answer
    assert run(["ssa", "--a", "2", "--b", "1", "--angle-deg", "30",
                "--backend", "exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sum of a rational and a radical is not representable\n")
    outputs = []
    for backend in ("exact", "float"):
        assert run(["ssa", "--a", "1", "--b", "1", "--angle-deg", "60",
                    "--backend", backend]) == 0
        outputs.append(capsys.readouterr().out)
    assert "1 solution\n  solution 1: third side 1.0, apex angle 60.0 deg" in (
        outputs[0])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("query, lines", [
    # the textbook pair: third sides 3 and 5, cosines at B -1/7 and 1/7
    (["--a", "7", "--b", "8", "--cos", "1/2"],
     ["2 solutions",
      "  solution 1: third side 3.0, apex angle 98.2132107017 deg, base "
      "angle 21.7867892983 deg, apex (1.5, 2.59807621135)",
      "  solution 2: third side 5.0, apex angle 81.7867892983 deg, base "
      "angle 38.2132107017 deg, apex (2.5, 4.33012701892)",
      "verdict: Supplementary(98.2132107017 deg, 81.7867892983 deg)"]),
    (["--a", "1", "--b", "1", "--cos", "1/2"],
     ["1 solution", "  solution 1: third side 1.0, apex angle 60.0 deg, "
      "base angle 60.0 deg, apex (0.5, 0.866025403784)"]),
    (["--a", "3", "--b", "4", "--cos", "1/3"], ["0 solutions"]),
    (["--a", "3", "--b", "4", "--angle-deg", "50"], ["0 solutions"]),
], ids=lambda v: " ".join(v) if v[0].startswith("--") else None)
def test_ssa_exact_solves_a_rational_cosine_with_a_radical_sine(capsys, query,
                                                               lines):
    assert run(["ssa", *query, "--backend", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == lines


def test_ssa_exact_third_side_off_the_representable_set_is_a_usage_error(
        capsys):
    # t = 9/5 -/+ sqrt(481)/5 adds a rational and a radical
    assert run(["ssa", "--a", "5", "--b", "3", "--cos", "3/5",
                "--backend", "exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sum of a rational and a radical is not representable\n")


def test_ssa_verdict_prints_the_apex_angles(tmp_path, capsys):
    # the 60-digit apex angle of solution 2 is 0.020000000269924 deg; acos
    # of its cosine near 1 printed 0.0200000002966
    out = tmp_path / "r.json"
    assert run(["ssa", "--a", "0.5", "--b", "1", "--angle-deg", "0.01",
                "--report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "apex angle 0.0200000002699 deg" in text
    assert text.splitlines()[-1] == (
        "verdict: Supplementary(179.98 deg, 0.0200000002699 deg)")
    body = json.loads(out.read_text())
    assert body["verdict"]["angles_deg"] == [
        s["apex_angle_deg"] for s in body["solutions"]]


def test_ssa_exact_included_degree_angle_solves(capsys):
    assert run(["ssa", "--a", "3", "--b", "4", "--angle-deg", "90",
                "--included", "--backend", "exact"]) == 0
    assert "1 solution (included angle)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--a", "1e200", "--b", "1e200", "--angle-deg", "60"],
    ["--a", "3", "--b", "4", "--cos", "1e400"],
    # the third side, 2.04e308, is past the largest binary64 value
    ["--a", "1.7e308", "--b", "1.7e308", "--cos", "3/5", "--backend", "exact"],
], ids=lambda argv: " ".join(argv))
def test_ssa_overflow_is_a_usage_error(capsys, argv):
    # every printed number is computed before the first line goes out
    assert run(["ssa", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large for binary64" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) < 100


@pytest.mark.parametrize("scale, eps", [(1, "1e-9"), (1e100, "1e-9"),
                                        (1e-90, "1e-300")])
@pytest.mark.parametrize("a, b, angle_deg, angles", [
    # the query's exact triangle, worked out to 60 digits, in 12
    (1, 1, 60, "apex angle 60.0 deg, base angle 60.0 deg"),
    (13, 0.01, 30,
     "apex angle 0.0220368388176 deg, base angle 149.977963161 deg"),
    (2.5, 1.75, 178.5,
     "apex angle 1.04993882187 deg, base angle 0.450061178134 deg"),
])
def test_ssa_angles_keep_their_digits_at_every_size(capsys, a, b, angle_deg,
                                                    angles, scale, eps):
    # a cosine over a degree-4 root overflows to 0 past sides of about 1e77
    # and divides by zero below about 1e-77; acos of a cosine near 1 or -1
    # loses the last printed digits
    assert run(["ssa", "--a", repr(a * scale), "--b", repr(b * scale),
                "--angle-deg", str(angle_deg), "--eps", eps]) == 0
    assert angles in capsys.readouterr().out


@pytest.mark.parametrize("a, b, eps", [("8e99", "1e100", "1e-9"),
                                       ("8e-91", "1e-90", "1e-300")])
def test_ssa_verdict_does_not_depend_on_the_size_of_the_sides(capsys, a, b,
                                                              eps):
    # classify_pair's cosines divide by the root of a degree-4 product,
    # which overflowed to cosines of 0 at the first size (a Supplementary
    # verdict of 90 and 90 deg) and underflowed to a ZeroDivisionError at
    # the second; each query must give the verdict of its twin with sides 8
    # and 10 and the same eps (at eps 1e-300 that twin's two triangles
    # differ at A by more than the tolerance, so it says NotSsaMatched)
    def verdict(a, b):
        assert run(["ssa", "--a", a, "--b", b, "--angle-deg", "30",
                    "--eps", eps]) == 0
        return capsys.readouterr().out.splitlines()[-1]

    assert verdict(a, b) == verdict("8", "10")
    if eps == "1e-9":
        assert verdict(a, b) == (
            "verdict: Supplementary(141.317812547 deg, 38.6821874535 deg)")


def test_ssa_exact_radical_converts_where_its_square_overflows(capsys):
    # third side sqrt(0.8) * 1.7e308 fits binary64, its square does not
    assert run(["ssa", "--a", "1.7e308", "--b", "1.7e308", "--cos", "3/5",
                "--backend", "exact", "--included"]) == 0
    assert "third side 1.5205262247e+308" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["ssa", "--a", "inf", "--b", "4", "--angle-deg", "30"],
    ["ssa", "--a", "3", "--b", "4", "--angle-deg", "30", "--eps", "inf"],
    ["verify", "--samples", "10", "--eps", "inf"],
], ids=lambda argv: " ".join(argv))
def test_infinite_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_verify_small_run(capsys):
    assert run(["verify", "--samples", "200", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    assert text.count("pass ") == 5
    assert "FAIL" not in text


def test_verify_coarse_eps_fails_with_witnesses(capsys):
    # the suites draw angles down to 1 degree, which the backend rejects at
    # eps 1e-3: each rejected sample is a failing witness, not a usage error
    assert run(["verify", "--samples", "200", "--seed", "42",
                "--eps", "1e-3"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len([ln for ln in lines if not ln.startswith(" ")]) == 5
    assert any("witness:" in ln and "'error': 'angle must be strictly inside"
               in ln for ln in lines)
    assert captured.err == ""


def test_a_rejected_draw_is_reported_with_its_values(tmp_path):
    # eps 1e-2 rejects some drawn angles in the spec's validation; the
    # samplers record the draw first, so each failing witness can be replayed
    out = tmp_path / "r.json"
    assert run(["verify", "--samples", "200", "--seed", "3", "--eps", "1e-2",
                "--report", str(out)]) == 1
    witnesses = [w for c in json.loads(out.read_text())["checks"]
                 for w in c["witnesses"]]
    assert any("error" in w for w in witnesses)
    assert all({"a", "b"} <= set(w) for w in witnesses), witnesses


def test_verify_reports_every_check_when_an_exact_suite_raises(
        monkeypatch, tmp_path, capsys):
    # a rejected sample in an exact suite is a failing witness, not a usage
    # error that would end the run without a report
    classify = suites.classify_pair

    def exact_fails(t1, t2):
        if t1.backend is EXACT:
            raise ExactValueError("sum of distinct radicals is not representable")
        return classify(t1, t2)

    monkeypatch.setattr(suites, "classify_pair", exact_fails)
    out = tmp_path / "r.json"
    assert run(["verify", "--samples", "200", "--report", str(out)]) == 1
    captured = capsys.readouterr()
    heads = [ln.split()[:2] for ln in captured.out.splitlines()
             if not ln.startswith(" ")]
    assert heads == [["pass", "ssa-oracle-equivalence"],
                     ["pass", "dichotomy-supplementary-float"],
                     ["FAIL", "dichotomy-supplementary-exact"],
                     ["pass", "lemma-common-side"],
                     ["FAIL", "backend-cross-validation"]]
    assert "'error': 'sum of distinct radicals" in captured.out
    assert captured.err == ""
    checks = json.loads(out.read_text())["checks"]
    assert [c["pass"] for c in checks] == [True, True, False, True, False]


def test_verify_exact_backend_takes_eps_silently(capsys):
    # --eps still configures the float-domain suites on the exact backend
    assert run(["verify", "--samples", "200", "--backend", "exact",
                "--eps", "1e-6"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_rejects_zero_samples():
    with pytest.raises(SystemExit) as err:
        run(["verify", "--samples", "0"])
    assert err.value.code == 2


def test_verify_report_body_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run(["verify", "--samples", "300", "--seed", "42",
                    "--report", str(p)]) == 0
    bodies = []
    for p in paths:
        data = json.loads(p.read_text())
        assert "wall_time_s" in data
        data.pop("wall_time_s")
        bodies.append(json.dumps(data, sort_keys=True))
    assert bodies[0] == bodies[1]


BODIES = Path(__file__).parent / "bodies"
PINNED_RUNS = {
    "verify": ["verify", "--samples", "2000", "--seed", "42"],
    "verify-exact": ["verify", "--backend", "exact", "--samples", "300",
                     "--seed", "5"],
    "ssa-readme-float": ["ssa", "--a", "1", "--b", "1.7320508075688772",
                         "--angle-deg", "30"],
    "ssa-readme-exact": ["ssa", "--a", "4", "--b", "5", "--cos", "3/5",
                         "--backend", "exact"],
    "ssa-textbook-exact": ["ssa", "--a", "7", "--b", "8", "--cos", "1/2",
                           "--backend", "exact"],
    "ssa-sqrt17": ["ssa", "--a", "4.123105625617661", "--b", "5",
                   "--cos", "3/5"],
    "ssa-included": ["ssa", "--a", "3", "--b", "4", "--cos", "0",
                     "--included"],
    **{f"scenario-{name}": ["scenario", name, "--grid-step-deg", "2",
                            "--samples", "50", "--seed", "42"]
       for name in ("medial-circumcenter", "incenter-segments",
                    "square-center", "rectangle-center", "bisector-30")},
    "logic-battery": ["logic"],
    "logic-readme-constrained": ["logic", "--formula", "(p | !q) & (!p | q)",
                                 "--equiv", "!p & !q",
                                 "--constraint", "!(p & q)"],
    "logic-readme-unconstrained": ["logic", "--formula", "(p | !q) & (!p | q)",
                                   "--equiv", "!p & !q"],
}
# pinned runs whose verdict is a failed check
PINNED_EXIT_CODES = {"logic-readme-unconstrained": 1}


@pytest.mark.parametrize("tag", sorted(PINNED_RUNS))
def test_report_body_matches_the_pinned_body(tmp_path, capsys, tag):
    # a change that alters a body regenerates tests/bodies/<tag>.json and
    # names every changed field in CHANGES.md
    out = tmp_path / "r.json"
    code = run(PINNED_RUNS[tag] + ["--report", str(out)])
    assert code == PINNED_EXIT_CODES.get(tag, 0)
    data = json.loads(out.read_text())
    data.pop("wall_time_s")
    body = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert body == (BODIES / f"{tag}.json").read_text()


def test_scenario_scan_and_report(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = run(["scenario", "bisector-30", "--grid-step-deg", "2",
                "--samples", "50", "--report", str(out)])
    assert code == 0
    assert "containment=true" in capsys.readouterr().out

    body = json.loads(out.read_text())
    assert body["scan"]["scenario"] == "bisector-30"
    assert body["containment"] is True
    assert body["roots"]
    for root in body["roots"]:
        assert root["branch"] in ("gamma-60", "alpha-120")
        assert abs(root["residual"]) <= 1e-9


def test_scenario_forward_check_per_branch(tmp_path):
    out = tmp_path / "medial.json"
    assert run(["scenario", "medial-circumcenter", "--grid-step-deg", "2",
                "--samples", "50", "--report", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["forward-isosceles",
                                           "forward-gamma-60"]
    for c in checks:
        assert c["pass"] and c["samples"] == 50, c


def test_scenario_prints_the_witnesses_of_a_failing_check(monkeypatch,
                                                          capsys):
    failing = CheckResult("forward-isosceles", False, 3, 0.5,
                          [{"alpha_deg": 40.0, "residual": 0.5}])
    monkeypatch.setattr(scenarios, "run_scenario_suites",
                        lambda *a, **k: [failing])
    assert run(["scenario", "medial-circumcenter", "--grid-step-deg", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "FAIL  forward-isosceles  samples=3  worst_residual=0.5",
        "      witness: {'alpha_deg': 40.0, 'residual': 0.5}"]


@pytest.mark.parametrize("asserted, code", [(True, 1), (False, 0)])
def test_scenario_off_branch_root_fails_only_an_asserted_scan(
        monkeypatch, capsys, asserted, code):
    scan = scenarios.level_set_scan

    def uncontained(*a, **k):
        return dataclasses.replace(scan(*a, **k), contained=False,
                                   asserted=asserted)

    monkeypatch.setattr(scenarios, "level_set_scan", uncontained)
    assert run(["scenario", "medial-circumcenter", "--grid-step-deg", "5",
                "--samples", "50"]) == code
    assert "containment=false" in capsys.readouterr().out


def test_scenario_grid_step_too_fine_for_binary64(capsys):
    assert run(["scenario", "medial-circumcenter",
                "--grid-step-deg", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too fine for binary64" in captured.err


def test_scenario_unknown_name(capsys):
    assert run(["scenario", "no-such"]) == 2
    assert "medial-circumcenter" in capsys.readouterr().err


def test_scenario_rectangle_is_exploratory(capsys):
    code = run(["scenario", "rectangle-center", "--grid-step-deg", "2",
                "--samples", "50", "--rect-t", "0.3"])
    assert code == 0
    assert "(exploratory, not asserted)" in capsys.readouterr().out


def test_scenario_rect_t_validation(capsys):
    assert run(["scenario", "rectangle-center", "--grid-step-deg", "2",
                "--rect-t", "1.5"]) == 2
    assert capsys.readouterr().err == \
        "error: height fraction t must lie in (0, 1)\n"
    assert run(["scenario", "medial-circumcenter", "--grid-step-deg", "2",
                "--rect-t", "0.3"]) == 2


def test_logic_default_battery(capsys):
    assert run(["logic"]) == 0
    text = capsys.readouterr().out
    assert "6/6 checks pass" in text


def test_logic_equivalence_with_constraint(capsys):
    code = run(["logic", "--formula", "(p | !q) & (!p | q)",
                "--equiv", "!p & !q", "--constraint", "!(p & q)"])
    assert code == 0
    assert "equivalent" in capsys.readouterr().out


def test_logic_witness_on_dropped_constraint(capsys):
    code = run(["logic", "--formula", "(p | !q) & (!p | q)",
                "--equiv", "!p & !q"])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness: {'p': True, 'q': True}" in out


def test_logic_syntax_error(capsys):
    assert run(["logic", "--formula", "p -> -> q", "--equiv", "q"]) == 2
    assert "token 3" in capsys.readouterr().err


def test_logic_formula_requires_equiv():
    assert run(["logic", "--formula", "p"]) == 2


def test_logic_constraint_requires_formula(capsys):
    assert run(["logic", "--constraint", "!(p & q)"]) == 2
    captured = capsys.readouterr()
    assert "--constraint needs --formula and --equiv" in captured.err
    assert "checks pass" not in captured.out


def test_logic_empty_constraint_is_a_syntax_error(capsys):
    assert run(["logic", "--formula", "p", "--equiv", "q",
                "--constraint", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unexpected end of input at token 1\n"
    assert captured.out == ""


def test_logic_unsatisfiable_constraint_is_a_usage_error(capsys):
    # under a constraint that holds on no row every pair would be vacuously
    # equivalent, as a check of no samples would vacuously pass
    assert run(["logic", "--formula", "p", "--equiv", "!p",
                "--constraint", "q & !q"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: constraint q & !q holds on no row\n"
    assert captured.out == ""


def test_logic_atom_budget_is_a_usage_error(capsys):
    wide = " | ".join(f"x{i}" for i in range(21))
    assert run(["logic", "--formula", wide, "--equiv", wide]) == 2
    err = capsys.readouterr().err
    assert err == "error: 21 atoms exceed the exhaustive budget of 20\n"


def test_markdown_report(tmp_path):
    out = tmp_path / "r.md"
    assert run(["verify", "--samples", "100", "--seed", "1",
                "--format", "markdown", "--report", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# planicheck report")
    assert "worst residual" in text


@pytest.mark.parametrize("cls, base", [
    (DegenerateInputError, ValueError), (ExactValueError, ArithmeticError),
    (UnknownScenarioError, ValueError), (FormulaSyntaxError, ValueError),
    (AtomBudgetError, ValueError), (FeetOffSegmentError, ValueError),
    (UnsatisfiableConstraintError, ValueError)],
    ids=lambda v: v.__name__)
def test_each_named_input_error_is_a_usage_error(cls, base):
    assert issubclass(cls, UsageError) and issubclass(cls, base)


@pytest.mark.parametrize("cls", [
    BackendMismatchError, LengthMismatchError, LemmaPreconditionError,
    DichotomyViolationError, SchemeVerificationError],
    ids=lambda v: v.__name__)
def test_a_program_error_is_not_a_usage_error(cls):
    # main lets these propagate: they signal a fault, not a bad input
    assert not issubclass(cls, UsageError)


SRC = Path(cli.__file__).resolve().parents[1]
# the planicheck modules a child loaded, and fractions, dataclasses and
# inspect (the dataclass machinery that no record-only command needs)
LOADED = ("import sys\n{}\n"
          "print(' '.join(sorted(m for m in sys.modules if m in ("
          "'fractions', 'dataclasses', 'inspect', 'planicheck')"
          " or m.startswith('planicheck.'))))")


def modules_loaded_by(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", LOADED.format(code)],
                          capture_output=True, text=True, env=env,
                          check=True)
    return set(done.stdout.splitlines()[-1].split())


BARE = {"planicheck", "planicheck.cli", "planicheck.errors",
        "planicheck.record", "planicheck.report"}


def test_parsing_the_arguments_loads_no_layer():
    assert modules_loaded_by(
        "from planicheck.cli import build_parser\n"
        "build_parser().parse_args(['verify', '--seed', '1'])") == BARE


def test_the_logic_command_loads_only_the_logic_layer():
    assert modules_loaded_by(
        "from planicheck.cli import main\n"
        "assert main(['logic', '--formula', 'p & q', '--equiv', 'q & p']) == 0"
    ) == BARE | {"planicheck.logic"}


def test_the_readme_ssa_query_loads_no_dataclass_machinery():
    assert modules_loaded_by(
        "from planicheck.cli import main\n"
        "assert main(['ssa', '--a', '1', '--b', '1.7320508075688772',"
        " '--angle-deg', '30']) == 0"
    ) == BARE | {"fractions", "planicheck.scalars", "planicheck.kernel",
                 "planicheck.congruence", "planicheck.ssa"}


def test_the_scenario_command_loads_no_ssa_layer():
    assert modules_loaded_by(
        "from planicheck.cli import main\n"
        "assert main(['scenario', 'square-center', '--grid-step-deg', '30',"
        " '--samples', '1']) == 0"
    ) == BARE | {"planicheck.scenarios", "dataclasses", "inspect"}


def test_the_check_sees_the_dataclass_machinery():
    assert {"dataclasses", "inspect"} <= modules_loaded_by(
        "import dataclasses")
