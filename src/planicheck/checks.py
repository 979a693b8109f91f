"""The one sample loop of the sampled checks, and the one fork helper that
spreads a check battery or a scan over every usable CPU.

``run_check`` runs a per-sample function ``sample(index, witness)``, which
records what it draws in ``witness`` and returns ``(residual, failure)``,
``failure`` being None or the fields a failing witness adds.  It keeps the
worst residual and at most five witnesses in a ``report.CheckResult``; a
sample that raises ``DegenerateInputError`` (as a coarse ``eps`` may),
``ExactValueError``, ``LemmaPreconditionError`` or
``DichotomyViolationError`` (as an ``eps`` below binary64 resolution may),
or that returns a NaN residual, fails with the values drawn so far plus
``"error"``.  ``TOL`` bounds every float residual (radians, cosine sums,
normalized determinants).

``run_parts`` cuts weighted items with ``balanced_parts`` into contiguous
parts, one per usable CPU (``os.sched_getaffinity``), and runs them: this
process runs the first part while each later part runs in a worker made
with ``os.fork``, which sends its result back through a pipe with
``marshal``.  ``suites`` runs the ``verify`` battery through it and
``scenarios`` the grid scan; neither knows how many CPUs there are, and
each result is the one-process result whatever their number.  No other
module reads the CPU set or forks, as an import rule of the test suite
checks.

Only ``suites`` and ``scenarios`` import this module, so a command that
runs no samples loads neither it nor the sample errors.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
from bisect import bisect_left
from itertools import accumulate, pairwise
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from .errors import (DegenerateInputError, DichotomyViolationError,
                     ExactValueError, LemmaPreconditionError)
from .report import CheckResult

if TYPE_CHECKING:
    Sample = Callable[[int, Dict], Tuple[float, Optional[Dict]]]

TOL = 1e-9
_REJECTED = (DegenerateInputError, ExactValueError, LemmaPreconditionError,
             DichotomyViolationError)


def run_check(name: str, samples: int, sample: Sample) -> CheckResult:
    """The one sample loop, with a fresh ``witness`` dict per index; a check
    of no samples would pass vacuously, so fewer than one is an error."""
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    result = CheckResult(name, True, samples, 0.0)
    worst = 0.0
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
        # max(worst, residual), by the builtin's own > test
        if residual > worst:
            worst = residual
        if failure is not None:
            result.add_failure({**witness, **failure})
    result.worst_residual = worst
    return result


def balanced_parts(items: Sequence, weights: Sequence[int],
                   parts: int) -> List[Sequence]:
    """``items`` (at least one) cut into at most ``parts`` contiguous,
    nonempty parts of about equal total ``weights``.  Each cut is the first
    item at which the weight before it reaches its share, or the last item
    if none does; two cuts that meet make one, and a cut before the first
    item is dropped, so all-zero weights give one part, never an empty
    one."""
    prefix = list(accumulate(weights, initial=0))
    shares = (-(-c * prefix[-1] // parts) for c in range(1, parts))
    cuts = sorted({min(bisect_left(prefix, share), len(items) - 1)
                   for share in shares} - {0})
    return [items[s:e] for s, e in pairwise([0, *cuts, len(items)])]


def run_parts(items: Sequence, weights: Sequence[int],
              run: Callable) -> List:
    """``run(part)`` for each part of ``items`` that ``balanced_parts`` cuts
    by ``weights``, one part per usable CPU, in order.  This process runs the
    first part; each later part runs in a worker made with ``os.fork``,
    which sends its result back through a pipe with ``marshal`` (exact for
    binary64, NaN included), so a result holds only what marshal writes.
    One part forks nothing.  A worker that exits nonzero has its part rerun
    here, which raises its error; every worker is killed and reaped on
    every path."""
    parts = balanced_parts(items, weights, len(os.sched_getaffinity(0)))
    pipes, pids = [], []
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if not pid:
                    # the worker leaves only through os._exit, so no atexit
                    # handler or buffered output of the caller runs twice;
                    # with no read end of its own open, its write fails if
                    # the caller is gone
                    status = 1
                    try:
                        for pipe in pipes:
                            pipe.close()
                        out.write(marshal.dumps(run(part)))
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        results = [run(parts[0])]
        for part, pipe in zip(parts[1:], pipes):
            data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            results.append(marshal.loads(data) if status == 0 else run(part))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
