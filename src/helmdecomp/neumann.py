"""Smallness arithmetic and the second-kind boundary solve.

The Neumann problem (Laplace inside, prescribed outward normal derivative g
on the boundary graph) is solved through the single layer ansatz
u = E * (delta_Gamma x g*), whose interior normal-derivative trace equals
(1/2) g* - S g*.  Matching the data gives the second-kind equation
(I - 2S) g* = 2g, inverted by the geometric series sum_i (2S)^i (2g).

Convergence is gated at runtime by the empirical operator norm of 2S on
the discretized lattice (power iteration in the combined sup / pullback
Hdot^{-1/2} metric); the closed-form smallness constants are reported as
advisory output since their dimensional prefactor is not pinned down by
theory.  C_{*,2} uses the support-radius exponent 1/(2n).  S is that of
q.hs, the quadrature's half space; apply_S takes it again as hs (see layers).
"""

from dataclasses import dataclass, asdict, field

import numpy as np

from .errors import MaxIterations, NotContractive
from .layers import apply_S
from .sobolev import hs_norm_fourier, th_pull


@dataclass
class SmallnessReport:
    """Closed-form boundary constants plus the measured contraction factor."""

    n: int
    R_h: float
    C_s: float
    C_1: float
    C_star_1: float
    C_star_2: float
    C_star_3: float
    C_star: float
    first_condition: bool
    empirical_2S_norm: float = float("nan")

    def verdict(self, cstar_n):
        """The gate at the supplied C*(n): the first condition, the second
        C_star < 1 / (2 C*(n)), and the empirical contraction below 1 (true
        while unmeasured); ok when all three hold."""
        if cstar_n <= 0:
            raise ValueError("cstar_n must be positive")
        emp = self.empirical_2S_norm
        out = {"first": bool(self.first_condition),
               "second": bool(self.C_star < 1.0 / (2.0 * cstar_n)),
               "empirical": bool(np.isnan(emp) or emp < 1.0)}
        out["ok"] = all(out.values())
        return out

    def to_dict(self):
        return asdict(self)


def smallness_constants(boundary):
    """Evaluate the support/curvature constants of the boundary bump.

    For the identically-zero bump the effective support radius is 0, making
    every constant (and thus the combined product) vanish.
    """
    n = boundary.n
    hinf, hgrad, hhess = boundary.sup_norms()
    flat = hinf == 0.0 and hgrad == 0.0
    Rh = 0.0 if flat else boundary.support_radius
    c1norm = hinf + hgrad
    Cs = boundary.lipschitz()
    C1 = 1.0 + Rh * hhess
    Cs1 = C1**3 * (1.0 + Rh**0.25) * (np.sqrt(Rh) * hhess + Rh**2.5 * hhess**3)
    Cs2 = (Rh + Rh ** (1.0 / (2.0 * n))) * hhess + (Rh ** (n - 1) + 1.0) * c1norm
    Cs3 = Rh ** (n - 1) * (Cs1 + Cs2) + Rh**n * hhess
    Cstar = Cs ** (1.5 * n + 8.0) * C1 * (Cs1 + Cs2 + Rh ** (n / 2.0))
    first = Rh ** ((2.0 * n - 1.0) / (2.0 * n)) < 0.5
    return SmallnessReport(n=n, R_h=Rh, C_s=Cs, C_1=C1, C_star_1=Cs1,
                           C_star_2=Cs2, C_star_3=Cs3, C_star=Cstar,
                           first_condition=bool(first))


def _combined_norm(q, values):
    dens = q.density(values)
    linf = float(np.abs(values).max())
    hm = hs_norm_fourier(th_pull(dens), -0.5, check_decay=False, origin_rings=4)
    return max(linf, hm)


def estimate_contraction(q, steps=30, seed=0):
    """Empirical norm of 2S by power iteration in the combined metric.

    Returns the largest growth ratio over the second half of the iteration;
    identically zero operators report 0.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(q.res * q.res)
    nrm = _combined_norm(q, g)
    g /= nrm
    ratios = []
    for _ in range(steps):
        g = 2.0 * apply_S(q, q.hs, g)
        nrm = _combined_norm(q, g)
        if nrm < 1e-250:
            return 0.0
        ratios.append(nrm)
        g /= nrm
    tail = ratios[len(ratios) // 2:]
    return float(max(tail))


@dataclass
class NeumannSolution:
    """Boundary density g* = 2 (I - 2S)^{-1} g with series diagnostics."""

    density: object
    series_terms_used: int
    residual: float
    increments: list = field(default_factory=list)


def solve_density(q, g, contraction, tol=1e-8, kmax=64):
    """Sum the geometric series for (I - 2S)^{-1}(2g) on the lattice.

    contraction is the measured norm of 2S (``estimate_contraction``).
    Stops when the sup norm of the increment falls below tol * sup|g|;
    raises NotContractive when contraction is >= 1 and MaxIterations
    (carrying the partial solution) when kmax is hit, as a NaN series is.
    """
    if not contraction < 1.0:
        raise NotContractive(f"empirical |2S| = {contraction:.3f} >= 1")
    gvec = q.match(g)
    gmax = float(np.abs(gvec).max())
    term = 2.0 * gvec
    acc = term.copy()
    increments = [float(np.abs(term).max())]
    converged = gmax == 0.0
    # kmax - 1 applications of S at most: a NaN increment neither counts nor converges
    for _ in range(0 if converged else kmax - 1):
        term = 2.0 * apply_S(q, q.hs, term)
        acc += term
        inc = float(np.abs(term).max())
        if inc > 0.0:
            increments.append(inc)
        if inc < tol * gmax:
            converged = True
            break
    residual = float(np.abs(acc - 2.0 * gvec - 2.0 * apply_S(q, q.hs, acc)).max())
    sol = NeumannSolution(density=q.density(acc),
                          series_terms_used=len(increments), residual=residual,
                          increments=increments)
    if not converged:
        raise MaxIterations(f"series hit kmax={kmax}, residual={residual:.3e}", solution=sol)
    return sol
