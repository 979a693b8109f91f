"""Deterministic report envelopes for the command-line harness.

A report body is a plain dict of version, config echo, and results; floats
are rounded to 12 significant digits before serialization so reruns with the
same config produce byte-identical bodies.  Wall time is attached as a
separate top-level field and is the only part allowed to differ between
reruns.

``CheckResult``, the outcome of one check, lives here with the code that
renders it and with ``run_check``, the one sample loop that fills it, so a
command imports the layers it runs and no others: the scan report and the
``Sample`` type are named in annotations only.  ``CheckResult`` is a
mutable ``Record``, so parsing a command's arguments loads no
``dataclasses``.

``run_check`` runs a per-sample function ``sample(index, witness)``, which
records what it draws in ``witness`` and returns ``(residual, failure)``,
``failure`` being None or the fields a failing witness adds.  It keeps the
worst residual and at most five witnesses; a sample that raises
``DegenerateInputError`` (as a coarse ``eps`` may), ``ExactValueError`` or
``LemmaPreconditionError``, or that returns a NaN residual, fails with the
values drawn so far plus ``"error"``.  ``TOL`` bounds every float residual
(radians, cosine sums, normalized determinants).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from . import __version__
from .errors import DegenerateInputError, ExactValueError, LemmaPreconditionError
from .record import Record

if TYPE_CHECKING:
    from .scenarios import ScanReport
    Sample = Callable[[int, Dict], Tuple[float, Optional[Dict]]]


class CheckResult(Record):
    """Outcome of one check; unlike the other records it is mutable (a
    check fails as its samples run) and so unhashable."""

    __slots__ = ("name", "passed", "samples", "worst_residual", "witnesses")

    def __init__(self, name: str, passed: bool, samples: int,
                 worst_residual: float, witnesses: Optional[List[Dict]] = None):
        Record.__init__(self, name, passed, samples, worst_residual,
                        [] if witnesses is None else witnesses)

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def add_failure(self, witness: Dict):
        self.passed = False
        if len(self.witnesses) < 5:
            self.witnesses.append(witness)


TOL = 1e-9
_REJECTED = (DegenerateInputError, ExactValueError, LemmaPreconditionError)


def run_check(name: str, samples: int, sample: Sample) -> CheckResult:
    """The one sample loop, with a fresh ``witness`` dict per index; a check
    of no samples would pass vacuously, so fewer than one is an error."""
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    result = CheckResult(name, True, samples, 0.0)
    for index in range(samples):
        witness = {}
        try:
            residual, failure = sample(index, witness)
        except _REJECTED as exc:
            result.add_failure({**witness, "error": str(exc)})
            continue
        if math.isnan(residual):
            # max would drop it and every "> TOL" test passes it
            result.add_failure({**witness, "error": "residual is not a number"})
            continue
        result.worst_residual = max(result.worst_residual, residual)
        if failure is not None:
            result.add_failure({**witness, **failure})
    return result


def round12(x: float) -> float:
    """Round to 12 significant digits; the canonical numeric precision of
    serialized reports."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def sanitize(obj):
    """Recursively round floats and normalize containers for serialization."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return str(obj)


def check_to_dict(check: CheckResult) -> Dict:
    return sanitize({
        "name": check.name,
        "pass": check.passed,
        "samples": check.samples,
        "worst_residual": check.worst_residual,
        "witnesses": check.witnesses,
    })


def build_report(config: Dict, checks: List[CheckResult],
                 scan: Optional[ScanReport] = None,
                 extra: Optional[Dict] = None) -> Dict:
    """Assemble the report body (no wall time)."""
    body = {
        "version": __version__,
        "config": sanitize(config),
        "checks": [check_to_dict(c) for c in checks],
    }
    if scan is not None:
        body["containment"] = scan.contained
        body["roots"] = sanitize([{
            "alpha_deg": math.degrees(r.alpha),
            "beta_deg": math.degrees(r.beta),
            "gamma_deg": math.degrees(r.gamma),
            "residual": r.residual,
            "branch": r.branch,
        } for r in scan.roots])
        body["scan"] = sanitize({
            "scenario": scan.scenario,
            "grid_step_deg": math.degrees(scan.grid_step),
            "refine_tol": scan.refine_tol,
            "delta": scan.delta,
            "evaluations": scan.evaluations,
            "asserted": scan.asserted,
            "violations": len(scan.violations),
        })
    if extra:
        body.update(sanitize(extra))
    return body


def render_json(body: Dict, wall_time_s: Optional[float] = None) -> str:
    full = dict(body)
    if wall_time_s is not None:
        full["wall_time_s"] = round12(wall_time_s)
    return json.dumps(full, indent=2, sort_keys=True) + "\n"


def render_markdown(body: Dict, wall_time_s: Optional[float] = None) -> str:
    lines = [f"# planicheck report (v{body['version']})", ""]
    lines.append("## Config")
    for key in sorted(body["config"]):
        lines.append(f"- {key}: {body['config'][key]}")
    lines.append("")
    if body["checks"]:
        lines.append("## Checks")
        lines.append("| name | pass | samples | worst residual |")
        lines.append("| --- | --- | --- | --- |")
        for c in body["checks"]:
            lines.append(f"| {c['name']} | {c['pass']} | {c['samples']} "
                         f"| {c['worst_residual']} |")
        for c in body["checks"]:
            for w in c["witnesses"]:
                lines.append(f"- witness ({c['name']}): {w}")
        lines.append("")
    if "containment" in body:
        lines.append("## Scan")
        scan = body["scan"]
        lines.append(f"- scenario: {scan['scenario']}")
        lines.append(f"- grid step: {scan['grid_step_deg']} deg, "
                     f"refine tol {scan['refine_tol']}, delta {scan['delta']}")
        lines.append(f"- asserted: {scan['asserted']}")
        lines.append(f"- containment: {body['containment']}")
        lines.append(f"- roots: {len(body['roots'])}"
                     f" ({scan['violations']} off-branch)")
        lines.append("")
    for key in body:
        if key in ("version", "config", "checks", "containment",
                   "roots", "scan"):
            continue
        lines.append(f"- {key}: {body[key]}")
    if wall_time_s is not None:
        lines.append(f"- wall time: {round12(wall_time_s)} s")
    return "\n".join(lines) + "\n"
