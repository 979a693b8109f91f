"""The base class of the errors a command reports as a usage error, and the
four errors ``checks.run_check`` turns into a failing witness.

``cli.main`` catches ``UsageError`` and turns it into one ``error:`` line
and exit code 2.  Each layer's named input error derives from it next to
its old built-in base (``DegenerateInputError``, ``ExactValueError``,
``UnknownScenarioError``, ``FormulaSyntaxError``, ``AtomBudgetError``,
``UnsatisfiableConstraintError``), so ``main`` names no layer and a command
loads only the layers it runs.  ``scalars`` and ``ssa`` raise the four
sample errors, which live here so that the sample loop loads neither;
``LemmaPreconditionError`` and ``DichotomyViolationError`` are program
errors.  A float tolerance finer than binary64 resolves can still raise the
second (the solver's own pair then reads as not supplementary), so
``main`` reports it as one ``error:`` line and exit code 1, a failed check
rather than a usage error.  The module imports nothing.
"""


class UsageError(Exception):
    """An input the command cannot run on; reported, not raised, by main."""


class DegenerateInputError(UsageError, ValueError):
    """Geometrically degenerate input (collinear triangle, zero segment, ...)."""


class ExactValueError(UsageError, ArithmeticError):
    """An exact result would leave the representable set (rationals plus single radicals)."""


class LemmaPreconditionError(ValueError):
    """A common-side lemma precondition failed; ``reason`` says which."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DichotomyViolationError(RuntimeError):
    """A matched non-congruent pair failed the supplementary test.

    Unreachable if the dichotomy theorem holds; raising keeps the check honest.
    """
