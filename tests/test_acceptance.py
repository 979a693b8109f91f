"""Acceptance battery.

One test per acceptance criterion, each printing a single PASS/FAIL line to
the real terminal (bypassing capture) with the measured numbers next to the
budgets they must meet.
"""

import json
import math
import time
from random import Random

from planicheck import report as rpt
from planicheck.logic import equivalent, parse_formula, verify_scheme_equivalences
from planicheck.scenarios import (
    SCENARIOS,
    level_set_scan,
    suite_forward,
    suite_offset_bisector_spots,
)
from planicheck.suites import (
    run_verify_suites,
    suite_backend_cross,
    suite_dichotomy_exact,
    suite_dichotomy_float,
    suite_lemma,
    suite_ssa_oracle,
)

ASSERTED_SCENARIOS = ("medial-circumcenter", "incenter-segments",
                      "square-center", "bisector-30")
ALL_SCENARIOS = ASSERTED_SCENARIOS + ("rectangle-center",)


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def verdict(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_1_ssa_oracle_equivalence(capsys):
    started = time.perf_counter()
    res = suite_ssa_oracle(100000, Random(42))
    elapsed = time.perf_counter() - started
    ok = res.passed and res.worst_residual <= 1e-9 and elapsed < 10.0
    announce(capsys,
             f"criterion 1 (ssa-oracle-equivalence): {verdict(ok)}  "
             f"samples={res.samples} worst={res.worst_residual:.3e} rad "
             f"(budget 1e-9), runtime={elapsed:.1f}s (budget 10s)")
    assert res.passed, res.witnesses
    assert res.worst_residual <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_dichotomy_supplementary(capsys):
    fl = suite_dichotomy_float(10000, Random(43))
    ex = suite_dichotomy_exact(1000, Random(44))
    ok = (fl.passed and fl.worst_residual <= 1e-9 and ex.passed)
    announce(capsys,
             f"criterion 2 (dichotomy-supplementary): {verdict(ok)}  "
             f"float samples={fl.samples} worst |cos1+cos2|="
             f"{fl.worst_residual:.3e} (budget 1e-9); exact samples="
             f"{ex.samples} cosine sums identically zero")
    assert fl.passed and fl.samples == 10000, fl.witnesses
    assert fl.worst_residual <= 1e-9
    assert ex.passed and ex.samples == 1000, ex.witnesses


def test_criterion_3_lemma_concyclicity(capsys):
    res = suite_lemma(1000, Random(45))
    ok = res.passed and res.worst_residual <= 1e-9
    announce(capsys,
             f"criterion 3 (lemma-common-side): {verdict(ok)}  "
             f"samples={res.samples} worst normalized residual="
             f"{res.worst_residual:.3e} (budget 1e-9), AC<AB everywhere")
    assert res.passed, res.witnesses
    assert res.worst_residual <= 1e-9


def test_criterion_4_containment_scans(capsys):
    step = math.radians(0.25)
    lines = []
    all_ok = True
    for name in ASSERTED_SCENARIOS:
        started = time.perf_counter()
        scan = level_set_scan(name, step, refine_tol=1e-12, delta=1e-6)
        elapsed = time.perf_counter() - started
        ok = scan.contained and not scan.violations and elapsed < 60.0
        all_ok = all_ok and ok
        lines.append((name, scan, elapsed, ok))
    announce(capsys, f"criterion 4 (containment-scans): {verdict(all_ok)}")
    for name, scan, elapsed, ok in lines:
        announce(capsys,
                 f"  {name}: {verdict(ok)}  roots={len(scan.roots)} "
                 f"violations={len(scan.violations)} "
                 f"runtime={elapsed:.1f}s (budget 60s)")
    for name, scan, elapsed, ok in lines:
        assert scan.contained and not scan.violations, (name, scan.violations)
        assert elapsed < 60.0, name
        assert scan.roots, name


def forward_checks(seed):
    """(scenario, residual kwargs, result) for every claimed branch of every
    scenario at 1000 samples, with rectangle-center at each height j/11."""
    master = Random(seed)
    out = []
    for scenario in SCENARIOS.values():
        settings = ([{"t": j / 11} for j in range(1, 11)]
                    if scenario.name == "rectangle-center" else [{}])
        for kwargs in settings:
            for branch in scenario.branches:
                res = suite_forward(scenario, branch, 1000,
                                    Random(master.getrandbits(64)), **kwargs)
                out.append((scenario.name, kwargs, res))
    return out


def test_criterion_5_forward_implications(capsys):
    suites = forward_checks(46)
    pairs = {(name, res.name) for name, _, res in suites}
    spots = suite_offset_bisector_spots()
    worst = max(res.worst_residual for _, _, res in suites)
    ok = (all(res.passed for _, _, res in suites) and worst <= 1e-9
          and spots.passed)
    announce(capsys,
             f"criterion 5 (forward-implications): {verdict(ok)}  "
             f"{len(suites)} checks over {len(pairs)} branch pairs x 1000 "
             f"samples, worst residual={worst:.3e} (budget 1e-9); spot-set "
             f"min gap={spots.worst_residual:.4f} rad (must exceed 1e-3)")
    assert len(pairs) == 9
    for name, kwargs, res in suites:
        where = (name, res.name, kwargs)
        assert res.passed and res.samples == 1000, (where, res.witnesses)
        assert res.worst_residual <= 1e-9, where
    assert spots.passed, spots.witnesses
    assert spots.worst_residual > 1e-3


def test_criterion_6_logic_equivalences(capsys):
    checks = verify_scheme_equivalences()
    dropped = equivalent(parse_formula("(p | !q) & (!p | q)"),
                         parse_formula("!p & !q"))
    ok = (len(checks) == 6 and all(c.passed for c in checks)
          and not dropped and dropped.witness == {"p": True, "q": True})
    announce(capsys,
             f"criterion 6 (logic-equivalences): {verdict(ok)}  "
             f"{sum(c.passed for c in checks)}/6 table checks pass; dropping "
             f"the exclusivity constraint fails with witness {dropped.witness}")
    assert len(checks) == 6
    for c in checks:
        assert c.passed, c.name
    assert not dropped
    assert dropped.witness == {"p": True, "q": True}


def test_criterion_7_backend_cross_validation(capsys):
    res = suite_backend_cross(1000, Random(50))
    ok = res.passed
    announce(capsys,
             f"criterion 7 (backend-cross-validation): {verdict(ok)}  "
             f"samples={res.samples}, exact and float verdicts agree")
    assert res.passed and res.samples == 1000, res.witnesses


def test_criterion_8_deterministic_reports(capsys):
    config = {"command": "verify", "samples": 100000, "seed": 42,
              "backend": "float", "eps": 1e-9, "rng_algorithm": "mt19937"}
    rendered = []
    for _ in range(2):
        checks = run_verify_suites(100000, 42)
        rendered.append(rpt.render_json(rpt.build_report(config, checks)))
    verify_ok = rendered[0] == rendered[1]

    scan_ok = True
    step = math.radians(1.0)
    for name in ALL_SCENARIOS:
        pair = []
        for _ in range(2):
            scan = level_set_scan(name, step, refine_tol=1e-12, delta=1e-6)
            body = rpt.build_report({"command": "scenario", "scenario": name,
                                     "grid_step_deg": 1.0,
                                     "refine_tol": 1e-12, "delta": 1e-6,
                                     "rng_algorithm": "mt19937"},
                                    [], scan=scan)
            pair.append(rpt.render_json(body))
        if pair[0] != pair[1]:
            scan_ok = False
    ok = verify_ok and scan_ok
    announce(capsys,
             f"criterion 8 (deterministic-reports): {verdict(ok)}  "
             f"verify battery bodies byte-identical={verify_ok}; "
             f"scenario scan bodies byte-identical={scan_ok} "
             f"({len(ALL_SCENARIOS)} scenarios)")
    assert verify_ok
    assert scan_ok
    body = json.loads(rendered[0])
    assert all(c["pass"] for c in body["checks"])
