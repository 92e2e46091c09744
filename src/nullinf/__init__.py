"""Desk-scale calculus of waves and gravity near null infinity.

Modules
-------
compactify
    Tortoise coordinate, chart transitions, boundary defining functions,
    the null coordinate frame and the rescaled-time fixed point.
indexsets
    Exact calculus of truncated polyhomogeneity index sets and the coupled
    index recursion for the boundary faces.
metrics / tensors / leading_terms
    Metric fields in the double-null spherical splitting, closed-form
    connection and curvature of the static background, gauge 1-form,
    modified gradients, energy currents, and the leading-term decay suite.
expansions / modelpde
    Exact transport of finite polyhomogeneous expansions, characteristic
    solvers for the damped and weak-null model systems, the global linear
    iteration, and leading-term fits.
geodesics / bondi
    Radial null geodesics by Picard iteration from infinity, sphere cuts,
    Hawking and Bondi masses, the mass-loss budget, and the closed-form
    static scattering solutions.
cli
    Configuration-driven experiment runner with CSV reports.
"""

__version__ = "0.1.0"

from .compactify import (  # noqa: F401
    DoubleNullPoint,
    BoundaryTriple,
    tortoise,
    inverse_tortoise,
    chart_transition_temporal_to_nullcone,
    chart_transition_nullcone_to_temporal,
    boundary_defining,
    null_frame_coefficients,
    scaled_time_fixed_point,
)
from .indexsets import (  # noqa: F401
    IndexSet,
    RecursionResult,
    union,
    extended_union,
    sum_sets,
    shift,
    scale_sum,
    elog,
    elog_prime,
    solve_index_recursion,
    transport_index_rho,
    transport_index_two_face,
)
from .metrics import MetricField, PerturbationField, Weights, perturbation, schwarzschild_exact  # noqa: F401
from .leading_terms import excess_decay_slopes  # noqa: F401
from .expansions import PolyhomExpansion, ProductExpansion  # noqa: F401
from .modelpde import (  # noqa: F401
    BoundaryData,
    CharacteristicGrid,
    ModeSolution,
    fit_leading_terms,
    newton_iterate,
    solve_damped_mode,
    solve_wave_mode,
    solve_weak_null_system,
)
from .geodesics import GeodesicTrajectory, integrate_radial_null_geodesic, retarded_time  # noqa: F401
from .bondi import (  # noqa: F401
    BondiReport,
    Congruence,
    NewsTensor,
    area_radius,
    bondi_mass_from_data,
    evolve_mass_aspect,
    hawking_mass,
    scattering_limit_combination,
    scattering_operator_residual,
    scattering_solution,
    tensor_harmonic,
)
