"""Raw-float plane geometry on (x, y) tuples, shared by the scenario scans
and the SSA oracle of ``verify``.  It imports only ``math``, so neither
command loads the other's layers for it."""

import math


def angle_at(v, p, q) -> float:
    """Angle pvq in [0, pi] between raw (x, y) points; the atan2 form keeps
    full precision near 0 and pi."""
    ux, uy = p[0] - v[0], p[1] - v[1]
    wx, wy = q[0] - v[0], q[1] - v[1]
    return math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
