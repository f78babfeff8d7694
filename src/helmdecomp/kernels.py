"""Closed-form Laplace kernels on R^n (n >= 3): the one statement of E and
grad E that the layer quadrature and the tests build on.

E(x) = |x|^(2-n) / (n (n-2) b1(n)) with b1(n) the unit-ball volume, so that
E is the decaying fundamental solution of -Laplace; at n = 3 this is the
familiar 1/(4 pi |x|).

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
    def e_const(self):
        # 1 / (n (n-2) b1(n)); equals 1/(4 pi) at n = 3
        return 1.0 / (self.n * (self.n - 2) * self.b1)

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


def E_eval(ctx, x):
    """Fundamental solution E(x), positive and homogeneous of degree 2-n."""
    x, r = _radii(x, ctx.n)
    return ctx.e_const * r ** (2 - ctx.n)


def grad_E(ctx, x):
    """grad E(x) = -x |x|^(-n) / (n b1(n))."""
    x, r = _radii(x, ctx.n)
    return -ctx.grad_const * x * (r ** (-ctx.n))[..., None]


def dE_dny(ctx, hs, x, y):
    """Outward normal derivative in y of E(x - y) for y on the boundary graph:
    -n(y) . grad E(x - y); SingularPoint on the diagonal."""
    y = np.asarray(y, dtype=float)
    return -np.sum(hs.outward_normal(y) * grad_E(ctx, np.asarray(x, dtype=float) - y), axis=-1)


def kernel_K0_and_R(ctx, hs, x, y):
    """Split sigma/rho^n into leading part (sigma -> x_n - h(x')) and remainder.

    Both pieces share the denominator (|x'-y'|^2 + (x_n - h(y'))^2)^(n/2);
    the remainder numerator is the first-order Taylor rest of h at y', so
    |R| <= 1/2 sup|hess h| |x'-y'|^(2-n) at every separation:

      |h(x') - h(y') - grad'h(y').(x'-y')| <= 1/2 sup||hess h||_2 |x'-y'|^2,
      (|x'-y'|^2 + (x_n - h(y'))^2)^(n/2) >= |x'-y'|^n.

    ``BoundaryFunction.sup_norms()[2]`` is the inf-norm of the Hessian; for a
    symmetric matrix it bounds the 2-norm, so it may stand for sup|hess h|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xp, xn = x[..., :-1], x[..., -1]
    yp = y[..., :-1]
    dxp = xp - yp
    b = hs.boundary
    hy = b.height(yp)
    gh = b.gradient(yp)
    rho2 = np.sum(dxp * dxp, axis=-1) + (xn - hy) ** 2
    if np.any(rho2 == 0.0):
        raise SingularPoint("kernel split evaluated on the diagonal")
    den = rho2 ** (ctx.n / 2.0)
    k0 = (xn - b.height(xp)) / den
    rem = (b.height(xp) - hy - np.sum(gh * dxp, axis=-1)) / den
    return k0, rem


def poisson_kernel(ctx, t, zp):
    """Half-space Poisson kernel P_t(z') = (2/(n b1)) t / (|z'|^2 + t^2)^(n/2).

    Normalized to unit mass over R^(n-1) for every t > 0.
    """
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("poisson_kernel requires t > 0")
    zp = np.asarray(zp, dtype=float)
    r2 = np.sum(zp * zp, axis=-1)
    return 2.0 * ctx.grad_const * t / (r2 + t * t) ** (ctx.n / 2.0)


def neumann_green(ctx, x, y):
    """Half-space Neumann-Green function E(x-y) + E(x'-y', x_n + y_n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    reflected = y.copy()
    reflected[..., -1] = -reflected[..., -1]
    return E_eval(ctx, x - y) + E_eval(ctx, x - reflected)
