"""Feasibility classes of spherical instances.

An instance is strictly feasible, ill-posed or infeasible as its smallest
including cap has radius below, at or above pi/2 (`sic.classify_rho`).
"""

from __future__ import annotations

import enum


class FeasibilityClass(enum.Enum):
    STRICTLY_FEASIBLE = "SF"
    ILL_POSED = "IP"
    INFEASIBLE = "IF"
