"""Exact and numerical archimedean zeta integrals for rank-one unitary groups.

Library layout:

* :mod:`arczeta.weights`: half-integral parameters with Fraction entries,
  Case I/II classification, closed-form evaluators (zeta values,
  endomorphism scalars, projection constants).
* :mod:`arczeta.group`: matrix structure, polar decomposition of the
  indefinite unitary group, Haar and ball samplers.
* :mod:`arczeta.characters`: Schur polynomial characters with genuine
  det twists, the canonical matrix coefficient.
* :mod:`arczeta.fock`: the holomorphic polynomial model: exact inner
  product, compact substitution action, hyperbolic integral transform,
  joint highest-weight vectors.
* :mod:`arczeta.verify`: the cross-verification harness (deterministic
  quadrature and reproducible Monte Carlo).
* :mod:`arczeta.cli`: batch front end with JSON/CSV reports.
"""

from .weights import (
    Case,
    ClosedValue,
    HCParameter,
    ThetaDatum,
    WeightPair,
    admissible_sweep,
    c_squared,
    classify_theta,
    closed_S,
    closed_T,
    formal_degree_product,
    gl_dim,
    hc_to_blattner,
    weyl_dim,
    zeta_closed,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "ClosedValue",
    "HCParameter",
    "ThetaDatum",
    "WeightPair",
    "admissible_sweep",
    "c_squared",
    "classify_theta",
    "closed_S",
    "closed_T",
    "formal_degree_product",
    "gl_dim",
    "hc_to_blattner",
    "weyl_dim",
    "zeta_closed",
    "__version__",
]
