"""Condition numbers of spherical LP-feasibility instances.

Smallest-including-cap solvers, spherical convex geometry, seeded cap
samplers, and Monte Carlo harnesses that check the closed-form tail,
expectation, and neighborhood-volume bounds.
"""

from .convexgeom import (
    SpherePolytope,
    cap_distance_suite,
    distance_to_boundary,
    distance_to_dual,
    distance_to_sconv,
    project_onto_cone,
)
from .lp import FeasibilityClass
from .samplers import (
    AdversarialParams,
    HTable,
    RngStream,
    build_radial_cdf,
    compute_delta_c,
    make_adversarial_params,
    radial_density,
    sample_cap,
    sample_instance,
    stream,
    uniform_sphere,
)
from .sic import (
    Instance,
    SicResult,
    cond_and_class,
    sic_bruteforce,
    sic_solve,
)
from .sphere import (
    Cap,
    SpherePoint,
    angular_distance,
    integral_I,
    integral_J,
    rotation_to,
    sphere_volume,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialParams", "Cap", "FeasibilityClass", "HTable", "Instance",
    "RngStream", "SicResult", "SpherePoint", "SpherePolytope",
    "angular_distance", "build_radial_cdf", "cap_distance_suite",
    "compute_delta_c", "cond_and_class", "distance_to_boundary",
    "distance_to_dual", "distance_to_sconv", "integral_I", "integral_J",
    "make_adversarial_params", "project_onto_cone", "radial_density",
    "rotation_to", "sample_cap", "sample_instance", "sic_bruteforce",
    "sic_solve", "sphere_volume", "stream", "uniform_sphere",
]
