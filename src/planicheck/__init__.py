"""Planimetry verification toolkit.

Exact and tolerance-aware primitives for triangle congruence criteria, the
ambiguous SSA dichotomy (congruent or supplementary remaining angles), and
numeric verification of classical triangle locus statements.

The package imports none of its modules: import each from where it lives
(``planicheck.scalars``, ``planicheck.ssa``, ...), so a command loads only
the layers it runs.
"""

__version__ = "0.1.0"
