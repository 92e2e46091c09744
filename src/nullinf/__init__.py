"""Desk-scale calculus of waves and gravity near null infinity.

Modules
-------
compactify
    Tortoise coordinate, chart transitions, boundary defining functions,
    the null coordinate frame and the rescaled-time fixed point.
indexsets
    Exact calculus of truncated polyhomogeneity index sets and the joint
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

The package root imports no module: import what you use from the module
that defines it, e.g. ``from nullinf.metrics import MetricField``.
"""

__version__ = "0.1.0"
