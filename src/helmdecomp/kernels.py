"""Closed-form Laplace kernels on R^n (n >= 3): grad E, the one statement
of the gradient kernel that the layer quadrature sums, and the half-space
Poisson kernel.

E(x) = |x|^(2-n) / (n (n-2) b1(n)) with b1(n) the unit-ball volume is the
decaying fundamental solution of -Laplace (1/(4 pi |x|) at n = 3); only its
gradient, -x |x|^(-n) / (n b1(n)), enters the program.  The quadrature
forms the boundary normal-derivative kernel from it
(``SurfaceQuadrature._kern_dEdny``).

Sign convention, fixed once for the whole package: boundary normals point
out of the domain (downward on a flat boundary), normal derivatives are
n . grad, and with this choice the boundary flux of dE/dn_y over the graph
evaluates to exactly -1/2 at every interior point (the flat case reduces to
minus one half of the Poisson integral).
"""

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .errors import SingularPoint


def unit_ball_volume(n):
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class KernelContext:
    """Dimension-dependent normalizations for the fundamental solution."""

    n: int = 3

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("kernels require n >= 3")

    @property
    def b1(self):
        return unit_ball_volume(self.n)

    @property
    def grad_const(self):
        # 1 / (n b1(n)); the prefactor of |x|^(1-n) in |grad E|
        return 1.0 / (self.n * self.b1)


def _radii(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ValueError(f"points must have {n} components")
    r = np.linalg.norm(x, axis=-1)
    if np.any(r == 0.0):
        raise SingularPoint("kernel evaluated at the origin")
    return x, r


def grad_E(ctx, x):
    """grad E(x) = -x |x|^(-n) / (n b1(n))."""
    x, r = _radii(x, ctx.n)
    return -ctx.grad_const * x * (r ** (-ctx.n))[..., None]


def poisson_kernel(ctx, t, zp):
    """Half-space Poisson kernel P_t(z') = (2/(n b1)) t / (|z'|^2 + t^2)^(n/2).

    Normalized to unit mass over R^(n-1) for every t > 0.
    """
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("poisson_kernel requires t > 0")
    zp = np.asarray(zp, dtype=float)
    r2 = np.sum(zp * zp, axis=-1)
    return 2.0 * ctx.grad_const * t / (r2 + t * t) ** (ctx.n / 2.0)
