"""Two independent routes to the same minimizer.

The primal route minimizes the action directly by proximal splitting; the
dual route maximizes the closed-form discrete dual G(phi) by damped Newton
and reads the density and momentum off the minimizing pair.  On a
stationary instance both reproduce the closed form B_eps = -eps T log Z to
rounding; on a genuine transport instance they meet at the same discrete
optimum, so their objectives and densities agree to solver precision at
every resolution.
"""

import numpy as np

from otgeo.grid import build_grid
from otgeo.transport import ReferenceMeasure
from otgeo.prox import solve_prox
from otgeo.elliptic import EllipticProblem, solve_elliptic
from otgeo.families import make_marginals

print("=== stationary instance: closed form -eps T log Z ===")
grid = build_grid(1, 64, 32, 1.0)
x = grid.axis_coords()
reference = ReferenceMeasure.from_potential(0.3 * np.cos(2 * np.pi * x), grid)
ms = reference.stationary_density(grid)
target = -0.1 * reference.log_normalizer

_, _, _, rep_p = solve_prox(ms, ms, reference, 0.1, grid)
_, _, rep_e = solve_elliptic(EllipticProblem(grid, reference, 0.1, ms, ms))
print(f"closed form      {target:+.9f}")
print(f"primal solver    {rep_p.objective:+.9f}   (error {abs(rep_p.objective - target):.1e})")
print(f"dual solver      {rep_e.objective:+.9f}   (error {abs(rep_e.objective - target):.1e})")

print("\n=== two-bump transport: cross-method agreement at two resolutions ===")
for n, nt in ((64, 32), (128, 64)):
    g = build_grid(1, n, nt, 1.0)
    ref = ReferenceMeasure.from_potential(0.0, g)
    m0, m1 = make_marginals("bump_pair", {"width": 0.18, "centers": (0.0, 0.5)}, g)
    mp, _, _, rp = solve_prox(m0, m1, ref, 0.1, g)
    ue, me, re = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
    l1 = np.sum(np.abs(mp.values - me.values) * g.cell_volume) * g.tau
    print(f"n={n:3d} Nt={nt:2d}:  B primal {rp.objective:.9f}  B dual {re.objective:.9f}  "
          f"|dB| = {abs(rp.objective - re.objective):.1e}  L1(m_primal - m_dual) = {l1:.2e}")
