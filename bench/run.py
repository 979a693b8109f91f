#!/usr/bin/env python3
"""planicheck benchmark: time to verdict through the CLI, per-layer spans
from outside.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-float --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-test

``--trace 0`` spawns the workload's ``python -m planicheck.cli`` commands
serially, one child process at a time, in turn until ``--seconds`` is
used up, and reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
(per job, the mean spawn-to-exit time over its runs, summed over jobs),
``setup_s`` (mean of children that only import ``planicheck.cli`` and
parse arguments, spread over the measured window), both scaled by the run's
calibration children (see ``CALIBRATION_ARGV``), and ``peak_rss_mb`` (each
child's own maximum RSS from ``os.wait4``; per job the median over its runs,
the largest job).

``--trace 1`` runs the commands once as children (for the reference report
bodies and the children's CPU time), then in this process through
``planicheck.cli.main``: untraced, with spans around the public functions of
each layer (see tracing.py), and untraced again.  Every in-process body must
equal the CLI body byte for byte.  It reports the per-layer metrics.

Every report body is gated (see workloads.py).  Each check counts as one
attempt; a miss is a failure.  ``fail_ratio`` = failed / attempted checks.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed and 2
when the program to measure is missing.  A result file with provenance goes
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Tuple

import tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# every run must finish within 180 s; children still running at this point
# (counted from the start of the run) are killed and counted as failures
RUN_DEADLINE_S = 170.0
# The speed of one process on the shared 2-core VM this benchmark was built
# on drifts by up to 2x between runs a minute apart, and the median of one run
# cannot average that out.  Short children started between the workload's
# children drift with them, so each run also times a calibration child: the
# interpreter, a few stdlib imports and a fixed loop, none of it planicheck,
# so no change to the program can move it.  wall_s and setup_s are scaled by
# CALIBRATION_REF_S over the run's mean calibration time, which is about that
# mean on the VM in a quiet period; the raw seconds go to the result file.
CALIBRATION_ARGV = ("-c", "import argparse, dataclasses, fractions, json, "
                    "math, random\n"
                    "table = {}\n"
                    "acc = 0.0\n"
                    "for i in range(100000):\n"
                    "    x = (i * 0.5 + 1.25) / (i + 3.0)\n"
                    "    acc += x * x - x\n"
                    "    table[i & 1023] = (x, i)\n"
                    "    acc += table.get((i * 7) & 1023, (0.0, 0))[0]\n")
CALIBRATION_REF_S = 0.2
# calibration and set-up children per run, spread over the measured window
SIDE_SAMPLES = 24
SETUP_ARGV = ("-c", "import sys; from planicheck.cli import build_parser; "
              "build_parser().parse_args(sys.argv[1:])",
              "verify", "--seed", "1")
SCALAR_POOL = 2000
SCALAR_REPEATS = 15
MACHINE_NOTE = ("Nothing was pinned, dropped or reconfigured on the machine: "
                "no CPU affinity, no cache drop, no frequency, kernel or "
                "cgroup setting. Children run serially, one busy thread "
                "each; the load average is recorded before and after.")

VERIFY_CHECKS = ("ssa-oracle-equivalence", "dichotomy-supplementary-float",
                 "dichotomy-supplementary-exact", "lemma-common-side",
                 "backend-cross-validation")
# suites whose samples come from the two-solution rejection sampler
SAMPLER_SUITES = ("dichotomy-supplementary-float", "lemma-common-side")


class Gate:
    """Attempted and failed output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.misses: List[str] = []

    def add(self, checks):
        for what, ok in checks:
            self.attempted += 1
            if not ok:
                self.misses.append(what)

    @property
    def failed(self) -> int:
        return len(self.misses)

    def summary(self) -> Dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": self.failed / max(1, self.attempted),
                "base": "output checks attempted in this run (exit codes, "
                        "check verdicts, containment, planted logic answers, "
                        "body identity across repeats and with the traced "
                        "run)",
                "misses": self.misses[:50]}


# -- child processes -------------------------------------------------------------

@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stderr_tail: str


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, deadline: float, stderr_path: Path) -> Child:
    """One serial child; its own peak RSS and CPU time come from wait4, which
    reports that child alone (RUSAGE_CHILDREN would carry the maximum over
    every earlier child)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = stderr_path.read_text(errors="replace")[-2000:]
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime, tail)


def body_bytes(path: Path) -> Optional[str]:
    """The report without its wall time, serialized as the CLI serializes
    bodies; None when the report is missing or unreadable."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    report.pop("wall_time_s", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run_job(job, work: Path, tag: str, deadline: float, gate: Gate,
            bodies: Dict[str, str]) -> Child:
    """One job as a child process, gated once it exits.  The first body seen
    per job is the reference that later runs of the job must equal."""
    report = work / f"{job.label}-{tag}.json"
    if report.exists():
        report.unlink()
    child = run_child(
        ("-m", "planicheck.cli", *job.argv, "--report", str(report)),
        deadline, work / f"{job.label}-{tag}.stderr")
    text = body_bytes(report)
    body = json.loads(text) if text is not None else None
    gate.add(job.gate(child.exit_code, body))
    if text is not None:
        if job.label in bodies:
            gate.add([(f"{job.label}: body identical across repeats",
                       text == bodies[job.label])])
        else:
            bodies[job.label] = text
    if child.exit_code != job.expect_exit:
        print(f"{job.label}: exit {child.exit_code}\n{child.stderr_tail}",
              file=sys.stderr)
    return child


def spread(values: List[float]) -> Dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"mean": statistics.mean(values),
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "repeats": len(values), "values": values}


# -- end-to-end measurement (--trace 0) ------------------------------------------

def measure(workload: str, seed: int, seconds: float, size: wl.Size,
            work: Path, plant_wrong: bool = False) -> Tuple[Dict, Dict, Gate]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = wl.jobs_for(workload, seed, size, plant_wrong)
    gate = Gate()
    setup: List[float] = []
    calibration: List[float] = []

    def side_children():
        for argv, times, what in (
                (CALIBRATION_ARGV, calibration, "calibration"),
                (SETUP_ARGV, setup, "setup")):
            child = run_child(argv, deadline, work / f"{what}.stderr")
            gate.add([(f"{what} child: exit code 0", child.exit_code == 0)])
            times.append(child.wall_s)

    side_children()  # writes the bytecode caches; not counted
    setup.clear()
    calibration.clear()

    def side_due():
        progress = (time.perf_counter() - loop_start) / seconds
        while len(setup) < SIDE_SAMPLES * min(1.0, progress):
            side_children()

    # the jobs run in turn, one child at a time, for as long as the next one
    # is expected to fit in the window; every job runs at least once, and a
    # partial last round still counts
    runs: Dict[str, List[Child]] = {job.label: [] for job in jobs}
    bodies: Dict[str, str] = {}
    loop_start = time.perf_counter()
    for n in itertools.count():
        job = jobs[n % len(jobs)]
        done = runs[job.label]
        if done and (
                time.perf_counter() - loop_start + done[-1].wall_s > seconds
                or time.monotonic() + done[-1].wall_s >= deadline):
            break
        done.append(run_job(job, work, f"r{len(done)}", deadline, gate,
                            bodies))
        side_due()
    while len(setup) < SIDE_SAMPLES:
        side_children()

    # Times are means, not medians: the machine's slowdown is a factor that
    # varies smoothly over seconds, so the ratio of mean times weights every
    # second alike, while the ratio of medians compares two single samples
    # taken at different moments.  Recomputed from the same ten 40 s runs of
    # each workload on the 2-core VM, the ratio of means spread by 0.06-0.07
    # (interquartile range over median), the ratio of medians by 0.13-0.17.
    per_job = {label: spread([c.wall_s for c in done])
               for label, done in runs.items()}
    raw_wall = sum(d["mean"] for d in per_job.values())
    raw_setup = spread(setup)
    cal = spread(calibration)
    scale = CALIBRATION_REF_S / cal["mean"]
    rss = max(statistics.median(c.peak_rss_mb for c in done)
              for done in runs.values())
    metrics = {"wall_s": (raw_wall * scale, "s"),
               "setup_s": (raw_setup["mean"] * scale, "s"),
               "peak_rss_mb": (rss, "MB")}
    detail = {"raw_wall_s": raw_wall, "raw_job_s": per_job,
              "raw_setup_s": raw_setup, "calibration_s": cal, "scale": scale,
              "children": {label: [dataclasses.asdict(c) for c in done]
                           for label, done in runs.items()},
              "jobs": [list(j.argv) for j in jobs]}
    return metrics, detail, gate


# -- per-layer measurement (--trace 1) -------------------------------------------

def import_planicheck() -> Dict:
    sys.path.insert(0, str(SRC))
    import planicheck.cli
    from planicheck import (congruence, kernel, logic, report, scalars,
                            scenarios, ssa, suites)
    if Path(planicheck.cli.__file__).resolve().parent != SRC / "planicheck":
        raise ImportError(f"planicheck imported from {planicheck.cli.__file__},"
                          f" not from {SRC}")
    return {"scalars": scalars, "kernel": kernel, "congruence": congruence,
            "ssa": ssa, "suites": suites, "scenarios": scenarios,
            "logic": logic, "report": report, "cli": planicheck.cli}


def scalar_op_ns(pc, seed: int,
                 constructed: Dict[str, int]) -> Dict[str, float]:
    """ns per operation of a fixed add/mul/div/eq/sqrt mix, on operands drawn
    by the verify suites' own samplers, for each backend of which the traced
    run built a ``Scalar``; 0 for a backend the workload does not use."""
    suites = pc["suites"]
    rng = Random(seed)

    def per_op(pairs):
        times = []
        for _ in range(SCALAR_REPEATS):
            start = time.perf_counter_ns()
            for x, y in pairs:
                x + y
                p = x * y
                x / y
                x.eq(y)
                p.sqrt()
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times) / (5 * len(pairs))

    op_ns = {"float": 0.0, "exact": 0.0}
    if constructed["float"]:
        floats = [suites.sample_two_solution_spec(rng)
                  for _ in range(SCALAR_POOL)]
        op_ns["float"] = per_op([(s.side_a, s.side_b) for s in floats])
    if constructed["exact"]:
        exacts = [suites.sample_rational_two_solution_spec(rng)
                  for _ in range(SCALAR_POOL)]
        # side_a of an exact spec may be a radical; the rationals mix freely
        op_ns["exact"] = per_op([(s.side_b, s.cos_angle) for s in exacts])
    return op_ns


def run_in_process(pc, jobs, work: Path, mode: str, gate: Gate,
                   cli_bodies: Dict[str, str],
                   rec: Optional[tracing.SpanRecorder] = None) -> float:
    """Each job through ``planicheck.cli.main`` in this process; returns the
    summed time of the main() calls."""
    total = 0.0
    for job in jobs:
        report = work / f"{job.label}-{mode}.json"
        if report.exists():
            report.unlink()
        gc.collect()
        if rec is not None:
            rec.start_run(job.label)
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            if rec is not None:
                sid = rec.open("cli.main")
            try:
                code = pc["cli"].main([*job.argv, "--report", str(report)])
            except SystemExit as exc:
                code = exc.code
            finally:
                if rec is not None:
                    rec.close(sid)
        total += time.perf_counter() - start
        gate.add([(f"{job.label}: {mode} exit code {job.expect_exit}",
                   code == job.expect_exit),
                  (f"{job.label}: {mode} body equals the CLI body",
                   job.label in cli_bodies
                   and body_bytes(report) == cli_bodies[job.label])])
    return total


def _layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    u: Dict[str, str] = {}
    u.update({"scalars.float.op_ns": "ns", "scalars.exact.op_ns": "ns",
              "scalars.constructed": "count"})
    for fn in ("kernel.angle_cos", "kernel.concyclic", "congruence.measure",
               "congruence.congruent_any"):
        u[f"{fn}.calls"] = "count"
        u[f"{fn}.self_s"] = "s"
    u["congruence.measure_per_classify"] = "ratio"
    for backend in ("float", "exact"):
        u[f"ssa.solve_ssa.{backend}.calls"] = "count"
        u[f"ssa.solve_ssa.{backend}.self_s"] = "s"
        u[f"ssa.solve_ssa.{backend}.us_per_call"] = "us"
    for fn in ("ssa.classify_pair", "ssa.lemma_common_side_check"):
        u[f"{fn}.calls"] = "count"
        u[f"{fn}.self_s"] = "s"
    for check in VERIFY_CHECKS:
        u[f"suites.{check}.s"] = "s"
        u[f"suites.{check}.us_per_sample"] = "us"
    u.update({"suites.sampler.accept_ratio": "ratio",
              "suites.solves_per_sample": "ratio",
              "suites.law_of_sines_oracle.self_s": "s"})
    for name in wl.SCENARIO_NAMES:
        u.update({f"scenarios.{name}.grid_evals": "count",
                  f"scenarios.{name}.bisect_evals": "count",
                  f"scenarios.{name}.us_per_eval": "us",
                  f"scenarios.{name}.grid_s": "s",
                  f"scenarios.{name}.bisect_s": "s",
                  f"scenarios.{name}.roots": "count"})
    u.update({"scenarios.forward.s": "s", "logic.parse.s": "s",
              "logic.equivalent.s": "s", "logic.rows": "count",
              "logic.us_per_row": "us", "report.build_s": "s",
              "report.render_s": "s", "report.bytes": "bytes",
              "process.cpu_s": "s", "trace.overhead_ratio": "ratio"})
    return u


LAYER_UNITS = _layer_units()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: tracing.SpanRecorder, inst: tracing.Instrumentation,
                  op_ns: Dict[str, float], cpu_s: float,
                  overhead: float) -> Dict[str, float]:
    agg = rec.aggregate()

    def stat(name: str, key: str) -> float:
        return agg[name][key] if name in agg else 0

    v: Dict[str, float] = {
        "scalars.float.op_ns": op_ns["float"],
        "scalars.exact.op_ns": op_ns["exact"],
        "scalars.constructed": sum(inst.scalars_constructed.values())}
    for fn in ("kernel.angle_cos", "kernel.concyclic", "congruence.measure",
               "congruence.congruent_any", "ssa.classify_pair",
               "ssa.lemma_common_side_check"):
        v[f"{fn}.calls"] = stat(fn, "calls")
        v[f"{fn}.self_s"] = stat(fn, "self_s")
    classify = stat("ssa.classify_pair", "calls")
    v["congruence.measure_per_classify"] = _ratio(
        rec.count_under("congruence.measure", "ssa.classify_pair"), classify)
    for backend in ("float", "exact"):
        fn = f"ssa.solve_ssa.{backend}"
        v[f"{fn}.calls"] = stat(fn, "calls")
        v[f"{fn}.self_s"] = stat(fn, "self_s")
        v[f"{fn}.us_per_call"] = 1e6 * _ratio(stat(fn, "total_s"),
                                              stat(fn, "calls"))
    for check in VERIFY_CHECKS:
        seconds = stat(f"suites.{check}", "total_s")
        v[f"suites.{check}.s"] = seconds
        v[f"suites.{check}.us_per_sample"] = 1e6 * _ratio(
            seconds, inst.suite_samples.get(check, 0))
    accepted = stat("suites.sampler", "calls")
    sampler_solves = rec.count_with_parent("ssa.solve_ssa.float",
                                           {"suites.sampler"})
    v["suites.sampler.accept_ratio"] = _ratio(accepted, sampler_solves)
    # one solve per accepted spec inside the sampler, plus the suite's own
    caller_solves = rec.count_with_parent(
        "ssa.solve_ssa.float", {f"suites.{s}" for s in SAMPLER_SUITES})
    v["suites.solves_per_sample"] = _ratio(
        accepted + caller_solves,
        sum(inst.suite_samples.get(s, 0) for s in SAMPLER_SUITES))
    v["suites.law_of_sines_oracle.self_s"] = stat(
        "suites.law_of_sines_oracle", "self_s")
    for name in wl.SCENARIO_NAMES:
        scan = inst.scans.get(name, {})
        grid, bisect = scan.get("grid_evals", 0), scan.get("bisect_evals", 0)
        v[f"scenarios.{name}.grid_evals"] = grid
        v[f"scenarios.{name}.bisect_evals"] = bisect
        grid_ns, bisect_ns = scan.get("grid_ns", 0), scan.get("bisect_ns", 0)
        v[f"scenarios.{name}.us_per_eval"] = 1e-3 * _ratio(
            grid_ns + bisect_ns, grid + bisect)
        v[f"scenarios.{name}.grid_s"] = grid_ns / 1e9
        v[f"scenarios.{name}.bisect_s"] = bisect_ns / 1e9
        v[f"scenarios.{name}.roots"] = scan.get("roots", 0)
    v["scenarios.forward.s"] = stat("scenarios.forward", "total_s")
    v["logic.parse.s"] = stat("logic.parse", "total_s")
    v["logic.equivalent.s"] = stat("logic.equivalent", "total_s")
    v["logic.rows"] = inst.logic_rows
    v["logic.us_per_row"] = 1e6 * _ratio(v["logic.equivalent.s"],
                                         inst.logic_rows)
    v["report.build_s"] = stat("report.build", "total_s")
    v["report.render_s"] = stat("report.render", "total_s")
    v["report.bytes"] = inst.report_bytes
    v["process.cpu_s"] = cpu_s
    v["trace.overhead_ratio"] = overhead
    return {name: v[name] for name in LAYER_UNITS}


def trace(workload: str, seed: int, size: wl.Size, work: Path,
          spans_path: Path) -> Tuple[Dict, Dict, Gate]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = wl.jobs_for(workload, seed, size)
    gate = Gate()
    cli_bodies: Dict[str, str] = {}
    cli_cpu_s = sum(run_job(job, work, "cli", deadline, gate,
                            cli_bodies).cpu_s for job in jobs)

    pc = import_planicheck()
    # untraced passes before and after the traced one, so that a change in
    # machine speed during the run does not read as tracing overhead
    untraced_s = [run_in_process(pc, jobs, work, "untraced", gate,
                                 cli_bodies)]
    rec = tracing.SpanRecorder()
    inst = tracing.Instrumentation(pc, rec)
    inst.install()
    try:
        traced_s = run_in_process(pc, jobs, work, "traced", gate, cli_bodies,
                                  rec)
    finally:
        inst.restore()
    untraced_s.append(run_in_process(pc, jobs, work, "untraced", gate,
                                     cli_bodies))
    op_ns = scalar_op_ns(pc, seed, inst.scalars_constructed)
    values = layer_metrics(rec, inst, op_ns, cli_cpu_s,
                           traced_s / statistics.mean(untraced_s))
    rec.write(spans_path, {"workload": workload, "seed": seed})
    metrics = {name: (values[name], LAYER_UNITS[name]) for name in values}
    detail = {"cli_cpu_s": cli_cpu_s, "in_process_untraced_s": untraced_s,
              "in_process_traced_s": traced_s, "spans": len(rec.names),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "span_totals": rec.aggregate(),
              "jobs": [list(j.argv) for j in jobs]}
    return metrics, detail, gate


# -- driver ------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, load_before) -> Dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": git_sha(), "seed": seed,
            "load_avg_before": list(load_before),
            "load_avg_after": list(os.getloadavg()),
            "machine_note": MACHINE_NOTE}


def run_once(workload: str, seed: int, seconds: float, traced: bool,
             size: wl.Size = wl.FULL, plant_wrong: bool = False,
             tag: str = "") -> Dict:
    """One benchmark run; writes its result file and returns the result."""
    load_before = os.getloadavg()
    name = f"{workload}-seed{seed}-trace{int(traced)}{tag}"
    work = OUT_DIR / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    if traced:
        metrics, detail, gate = trace(workload, seed, size, work,
                                      OUT_DIR / f"{name}.spans.jsonl")
    else:
        metrics, detail, gate = measure(workload, seed, seconds, size, work,
                                        plant_wrong)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {**result, "workload": workload, "trace": traced,
              "seconds": seconds, "size": size.__dict__,
              "gate": gate.summary(), "detail": detail,
              "provenance": provenance(seed, load_before)}
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_result(record: Dict):
    detail = record["detail"]
    for name, m in record["metrics"].items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if name == "wall_s" and "raw_job_s" in detail:
            line += f"  (calibrated; raw {detail['raw_wall_s']:.6g} s)"
        print(line)
    for label, d in detail.get("raw_job_s", {}).items():
        print(f"  {label}: raw mean {d['mean']:.6g} s of {d['repeats']} "
              f"runs; median {d['median']:.6g}, q1 {d['q1']:.6g}, "
              f"q3 {d['q3']:.6g}")
    for name in ("raw_setup_s", "calibration_s"):
        if name in detail:
            d = detail[name]
            print(f"  {name[:-2]}: mean {d['mean']:.6g} s of "
                  f"{d['repeats']} children; median {d['median']:.6g}, "
                  f"q1 {d['q1']:.6g}, q3 {d['q3']:.6g}")
    if "scale" in detail:
        print(f"  raw times scaled by {detail['scale']:.6g}")
    gate = record["gate"]
    print(f"fail_ratio = {gate['fail_ratio']:.6g} ratio  "
          f"({gate['failed']} failed of {gate['attempted']} {gate['base']})")
    for miss in gate["misses"]:
        print(f"  miss: {miss}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def self_test() -> int:
    """Small sizes: every declared metric is emitted with its declared unit,
    every workload passes its gate, and a planted wrong logic answer makes
    fail_ratio positive."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in wl.WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run_once(workload, 1, 1, traced, wl.SMALL, tag="-small")
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {n: m["unit"] for n, m in record["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(traced)}: emitted "
                                f"{sorted(set(got.items()) ^ set(want.items()))}"
                                " differ from BENCHMARK.json")
            if not record["correct"]:
                problems.append(f"{workload} trace={int(traced)}: "
                                f"misses {record['gate']['misses']}")
    planted = run_once("logic-wide", 1, 1, False, wl.SMALL, plant_wrong=True,
                       tag="-planted")
    if not planted["gate"]["fail_ratio"] > 0:
        problems.append("a planted wrong logic answer left fail_ratio at 0")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check metric names, units and the gate at "
                             "small sizes")
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds through run_child, which kills and
    # reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "planicheck" / "cli.py").is_file():
        print(f"error: no planicheck sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    record = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    print_result(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
