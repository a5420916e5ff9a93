"""Entropy-regularized dynamical optimal transport on periodic domains.

Two independent solvers for the same variational problem (a proximal
splitting of the kinetic + entropy action, and damped Newton on its
closed-form discrete dual), plus ground-truth oracles and
structural diagnostics: energy conservation, duality identity, displacement
convexity, interior bounds, and the vanishing-regularization limit.
"""

from .grid import Grid, build_grid, covariant_gradient, divergence_g, integrate, laplace_beltrami
from .transport import (
    DensityPath,
    MomentumField,
    Potential,
    ReferenceMeasure,
    bb_kernel,
    continuity_residual,
    dual_value,
    energy_slice,
    functional_value,
    relative_entropy,
)
from .prox import ProxConfig, SolveReport, solve_prox
from .elliptic import EllipticConfig, EllipticProblem, solve_elliptic
from .oracles import circular_w2_oracle, flow_w2_oracle, heat_competitor_bound

__all__ = [
    "Grid", "build_grid", "covariant_gradient", "divergence_g", "integrate",
    "laplace_beltrami", "DensityPath", "MomentumField", "Potential",
    "ReferenceMeasure", "bb_kernel", "continuity_residual", "dual_value",
    "energy_slice", "functional_value", "relative_entropy", "ProxConfig", "SolveReport",
    "solve_prox", "EllipticConfig", "EllipticProblem", "solve_elliptic",
    "circular_w2_oracle", "flow_w2_oracle", "heat_competitor_bound",
]
