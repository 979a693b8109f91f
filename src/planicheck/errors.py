"""The one base class of the errors a command reports as a usage error.

``cli.main`` catches ``UsageError`` and turns it into one ``error:`` line
and exit code 2.  Each layer's named input error derives from it next to
its old built-in base (``DegenerateInputError``, ``ExactValueError``,
``UnknownScenarioError``, ``FormulaSyntaxError``, ``AtomBudgetError``), so
``main`` names no layer and a command loads only the layers it runs.  The
module imports nothing.
"""


class UsageError(Exception):
    """An input the command cannot run on; reported, not raised, by main."""
