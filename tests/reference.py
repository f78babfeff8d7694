"""Reference statements that only the tests call.

The package holds what the program runs.  What follows are independent
statements of a kernel, an operator or an estimator that the tests check
the package against, or check a statement of the paper with; each is the
arithmetic it had inside the package, so the pinned values in
``data/layers_pinned.json`` and ``data/trace_s_baseline.json`` still hold
bit for bit.  This module is imported by tests and is not a test module.

* ``E_eval`` with ``e_const``: the fundamental solution E of -Laplace,
  |x|^(2-n) / (n (n-2) b1(n)); ``test_kernels`` checks its normalization
  and harmonicity, and that ``grad_E`` is its gradient.
* ``kernel_K0_and_R``: the split of the normal-derivative kernel into its
  leading part and the Taylor remainder of h, with the bound
  |R| <= 1/2 sup|hess h| |x'-y'|^(2-n) (``test_kernels.TestKernelSplit``).
* ``neumann_green``: the half-space Neumann-Green function, whose normal
  derivative at the plane is the Poisson kernel
  (``test_kernels.TestNeumannGreen``).
* ``single_layer``: the single layer potential int E(x - y) g(y) dH(y) of
  the paper's ansatz for q2; ``test_layers`` checks it against a flat
  Fourier oracle, for harmonicity and as the potential whose finite
  differences ``grad_single_layer`` must match, and ``test_layers_pinned``
  pins it.
* ``abs_flux``: the flux of |dE/dn_y|, which stays bounded as the target
  nears the wall inside the tube (``test_layers.TestFluxes``,
  ``test_layers_pinned``).
* ``trace_S_norms`` with ``lp_norm``: the sup, L^{(2n-2)/n}(Gamma) and
  pullback Hdot^{-1/2} norms of S g, pinned in ``trace_s_baseline.json``
  (``test_layers.TestTraceS``); ``lp_norm`` also pins the Plancherel
  convention of the package (``test_sobolev``).
* ``surface_area``: the surface measure of the graph over a disc, checked
  against a radial integral (``test_layers``, ``test_layers_pinned``).
* ``normal_coords_forward`` / ``normal_coords_inverse`` with
  ``OutOfChart``: the normal-coordinate chart of the tube, whose Jacobian
  stays near the identity (``test_geometry.TestNormalCoordinates``).
* ``bmo_seminorm`` and ``bnu_seminorm``: the BMO and b^nu estimators on
  their own, drawing the balls that ``ledger_geometry`` keeps for
  ``vbmol2_norm`` (``test_sobolev.TestBMO``, ``TestBnu``).
"""

import numpy as np

from helmdecomp import kernels, sobolev
from helmdecomp.errors import (HelmdecompError, NonDecayingInput, SingularPoint,
                               TooCloseToSurface)
from helmdecomp.layers import apply_S
from helmdecomp.sobolev import hs_norm_fourier, th_pull


class OutOfChart(HelmdecompError):
    """Normal-coordinate argument outside the chart box."""


# -- kernels ------------------------------------------------------------------

def e_const(ctx):
    """1 / (n (n-2) b1(n)); equals 1/(4 pi) at n = 3."""
    return 1.0 / (ctx.n * (ctx.n - 2) * ctx.b1)


def E_eval(ctx, x):
    """Fundamental solution E(x), positive and homogeneous of degree 2-n."""
    x, r = kernels._radii(x, ctx.n)
    return e_const(ctx) * r ** (2 - ctx.n)


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


def neumann_green(ctx, x, y):
    """Half-space Neumann-Green function E(x-y) + E(x'-y', x_n + y_n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    reflected = y.copy()
    reflected[..., -1] = -reflected[..., -1]
    return E_eval(ctx, x - y) + E_eval(ctx, x - reflected)


# -- layer operators on a SurfaceQuadrature q ----------------------------------

def single_layer(q, g, x):
    """Single layer potential int_Gamma E(x - y) g(y) dH(y).

    g must decay on the lattice (the kernel itself has no integrable
    constant closure); within a quarter spacing of the boundary the
    corrected quadrature is no longer trusted.
    """
    x = np.asarray(x, dtype=float)
    gvals = q.match(g)
    vmax = np.abs(gvals).max()
    if vmax > 0 and abs(q.ring_mean(g)) > 1e-4 * vmax:
        raise NonDecayingInput("single_layer requires a decaying density")
    if abs(q.hs.signed_distance(x)) < 0.25 * q.dx:
        raise TooCloseToSurface("target below the corrected-quadrature range")

    def kern(x, y, om, gh):
        return E_eval(q.ctx, x - y) * om

    return q._refined_sum(kern, x, gvals)


def abs_flux(q, x):
    """Absolute-kernel flux int |dE/dn_y (x-y)| dH(y) for x in the tube."""
    x = np.asarray(x, dtype=float)
    if not (0.0 < q.hs.signed_distance(x)):
        raise TooCloseToSurface("absolute flux evaluated at interior points")
    return 0.5 + q._bump_correction(lambda *sample: np.abs(q._kern_dEdny(*sample)), x)


def lp_norm(f, p, weight=None):
    w = 1.0 if weight is None else weight
    return float((np.sum(w * np.abs(f.values) ** p) * f.dx**2) ** (1.0 / p))


def trace_S_norms(q, g):
    """(sup, L^{(2n-2)/n}(Gamma), pullback Hdot^{-1/2}) of S g on the lattice."""
    vals = apply_S(q, q.hs, q.match(g))
    dens = q.density(vals)
    linf = float(np.abs(vals).max())
    p = (2.0 * q.ctx.n - 2.0) / q.ctx.n
    lp = lp_norm(dens, p, weight=q.omega.reshape(q.res, q.res))
    hminus = hs_norm_fourier(th_pull(dens), -0.5, check_decay=False)
    return linf, lp, hminus


def surface_area(q, delta):
    """Sum of q's weights over |y'| < delta, splitting straddling cells 8x8."""
    r = np.linalg.norm(q.yp, axis=-1)
    margin = q.dx * np.sqrt(0.5)
    inside = r < delta - margin
    total = float(q.weights[inside].sum())
    edge = (~inside) & (r < delta + margin)
    if np.any(edge):
        pts = q.subcell_points(q.yp[edge], 8)
        om = q._surface(pts)[1]
        om *= np.linalg.norm(pts, axis=-1) < delta
        total += float(om.reshape(edge.sum(), -1).mean(axis=1).sum()) * q.dx**2
    return total


# -- the normal-coordinate chart of a PerturbedHalfSpace hs -------------------

def normal_coords_forward(hs, z0, eta):
    """Chart (eta', eta_n) |-> (z0' + eta', h) + eta_n grad d at that base point."""
    eta = np.asarray(eta, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if np.max(np.abs(eta[..., :2])) >= hs.rho0 or np.max(np.abs(eta[..., 2])) >= hs.rho0:
        raise OutOfChart("eta outside the chart box")
    yp = z0[:2] + eta[..., :2]
    base = hs.boundary.surface_point(yp)
    gd = -hs.outward_normal(base)
    return base + eta[..., 2:3] * gd


def normal_coords_inverse(hs, z0, x):
    x = np.asarray(x, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    d = hs.signed_distance(x)
    if np.max(np.abs(d)) >= hs.rho0:
        raise OutOfChart("point outside the chart tube")
    pi = hs.project_to_boundary(x, check_reach=False)
    etap = pi[..., :2] - z0[:2]
    if np.max(np.abs(etap)) >= hs.rho0:
        raise OutOfChart("projection outside the chart box")
    return np.concatenate([etap, np.asarray(d)[..., None]], axis=-1)


# -- the seminorm estimators on their own -------------------------------------

def bmo_seminorm(v, hs, mu, samples=200, seed=0):
    """Monte-Carlo lower bound for the mean-oscillation sup over interior balls.

    Ball centers are drawn from inside nodes and radii from (0, mu) subject
    to B_r(x) within Omega and the grid box.  The sample stream depends only
    on ``seed``, so the estimate is nondecreasing in ``samples``.
    """
    balls = sobolev._bmo_balls(hs, v.grid, v.inside_mask, mu, samples, seed)
    return sobolev._largest_over_balls(v.data, balls, sobolev._oscillation)


def bnu_seminorm(f, hs, nu, samples=200, seed=0):
    """Monte-Carlo lower bound for sup r^{-n} int_{Omega cap B_r(x)} |f|, x on the boundary."""
    balls = sobolev._bnu_balls(hs, f.grid, f.inside_mask, nu, samples, seed)
    return sobolev._largest_over_balls(f.data, balls,
                                       sobolev._boundary_mass(float(np.prod(f.grid.dx))))
