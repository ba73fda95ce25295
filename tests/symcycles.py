"""The solved base of a symmetric 5-cycle built by hand in a test: the point
of the circle about (x0, x2) at √t that `find_symmetric_5cycle` charts x1
from and carries in `SymCycle.base`."""

from __future__ import annotations

from scavenger.geom import equidistant_circle, rational_point_on_circle
from scavenger.qcore import QPoint3, Rational


def solved_base(x0: QPoint3, x2: QPoint3, t: Rational) -> QPoint3:
    return rational_point_on_circle(equidistant_circle(x0, x2, t))
