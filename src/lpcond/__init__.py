"""Condition numbers of spherical LP-feasibility instances.

Smallest-including-cap solvers, spherical convex geometry, seeded cap
samplers, and Monte Carlo harnesses that check the closed-form tail,
expectation, and neighborhood-volume bounds.  The names below are the
ones the commands run, and the oracle (`sic_bruteforce`, `SicResult`)
and replay (`sample_instance`, `RngStream`) that check their records.
"""

from .lp import FeasibilityClass
from .samplers import (
    AdversarialParams,
    HTable,
    RngStream,
    build_radial_cdf,
    compute_delta_c,
    make_adversarial_params,
    sample_instance,
    stream,
)
from .sic import (
    Instance,
    SicResult,
    cond_and_class,
    sic_bruteforce,
)
from .sphere import integral_I

__version__ = "0.1.0"

__all__ = [
    "AdversarialParams", "FeasibilityClass", "HTable", "Instance",
    "RngStream", "SicResult", "build_radial_cdf", "compute_delta_c",
    "cond_and_class", "integral_I", "make_adversarial_params",
    "sample_instance", "sic_bruteforce", "stream",
]
