"""Surface quadrature for layer potentials on the boundary graph.

All operators share one scheme: a tensor-product midpoint rule on a uniform
y'-lattice carrying the surface measure omega(y') dy', a local subcell
refinement near the target, and an exact flat-tail closure.

Refinement rules:
  * pointwise operators refine only targets within two spacings of the
    wall; for those, every cell within four spacings of the target's
    projection is split into 8x8 subcells;
  * the dense S matrix splits the cells within three spacings of each
    bump-neighbourhood target into 4x4 subcells;
  * ``apply_S`` on lattices above 96^2 nodes does no refinement.

The closure exploits that the boundary is an exact plane outside the bump
support: for a density with far-field constant g_inf the integral is
written as

    integral_Gamma k (g - g_inf)  +  g_inf * [ A_flat + sum_bump (k - k_flat) ]

where A_flat is the closed-form value of the kernel integrated over the full
plane (e.g. -1/2 for the outward normal-derivative kernel) and the bump-
support correction k - k_flat vanishes identically outside the support, so
no truncated tail remains.

Boundary traces use the principal-value convention: the self cell of an
on-surface target is omitted (all kernels here are weakly singular on the
graph, order |x-y|^{2-n} relative to the surface measure).
"""

import numpy as np

from .errors import NonDecayingInput, SingularPoint, TooCloseToSurface
from .kernels import KernelContext
from .sobolev import BoundaryDensity, hs_norm_fourier, lp_norm, th_pull

# dense S matrix: cells within _REFINE_CELLS spacings, _REFINE_SUB^2 subcells
_REFINE_CELLS = 3
_REFINE_SUB = 4
# pointwise operators: targets within _POINT_GAP spacings of the wall refine
# the cells within _POINT_CELLS spacings into _POINT_SUB^2 subcells
_POINT_GAP = 2.0
_POINT_CELLS = 4
_POINT_SUB = 8


class SurfaceQuadrature:
    """Midpoint quadrature nodes/weights on the boundary graph.

    The lattice is the same [-L/2, L/2)^2 grid used by BoundaryDensity, so
    densities and quadratures with equal (extent, res) are interchangeable.
    The exact constant-density closure requires the lattice to contain the
    bump support with a safety margin.
    """

    def __init__(self, hs, extent, res):
        self.hs = hs
        self.ctx = KernelContext(hs.n)
        self.extent = float(extent)
        self.res = int(res)
        self.dx = self.extent / self.res
        a = -self.extent / 2.0 + self.dx * np.arange(self.res)
        gx, gy = np.meshgrid(a, a, indexing="ij")
        self.yp = np.stack([gx, gy], axis=-1).reshape(-1, 2)
        b = hs.boundary
        self.h = b.height(self.yp)
        self.gh = b.gradient(self.yp)
        self.omega = np.sqrt(1.0 + np.sum(self.gh**2, axis=-1))
        self.nodes = np.concatenate([self.yp, self.h[:, None]], axis=1)
        self.weights = self.omega * self.dx**2
        Rh = b.support_radius
        if self.extent / 2.0 <= Rh + 2 * self.dx:
            raise ValueError("flat-tail closure needs extent/2 > support radius")
        self.bump_sel = np.linalg.norm(self.yp, axis=-1) <= Rh + 1e-12
        self.delta_min = 1.5 * self.dx
        self._s_matrix = None

    # -- density plumbing ---------------------------------------------------
    def match(self, g):
        if g.res != self.res or abs(g.extent - self.extent) > 1e-12:
            raise ValueError("density lattice does not match the quadrature")
        return g.values.ravel()

    def ring_mean(self, g):
        v = g.values
        return float(np.mean(np.concatenate([v[0, :], v[-1, :], v[:, 0], v[:, -1]])))

    def density(self, values, on_graph=True):
        return BoundaryDensity(self.extent, np.asarray(values, float).reshape(self.res, self.res),
                               on_graph=on_graph)

    def surface_area(self, delta):
        """Sum of weights over |y'| < delta, splitting straddling cells 8x8."""
        r = np.linalg.norm(self.yp, axis=-1)
        margin = self.dx * np.sqrt(0.5)
        inside = r < delta - margin
        total = float(self.weights[inside].sum())
        edge = (~inside) & (r < delta + margin)
        if np.any(edge):
            pts = self.subcell_points(self.yp[edge], 8)
            om = np.sqrt(1.0 + np.sum(self.hs.boundary.gradient(pts) ** 2, axis=-1))
            om *= np.linalg.norm(pts, axis=-1) < delta
            total += float(om.reshape(edge.sum(), -1).mean(axis=1).sum()) * self.dx**2
        return total

    def subcell_points(self, yp, sub):
        """Centres of the sub x sub subcells of the cells at yp, grouped by cell."""
        off = ((np.arange(sub) + 0.5) / sub - 0.5) * self.dx
        ox, oy = np.meshgrid(off, off, indexing="ij")
        shift = np.stack([ox.ravel(), oy.ravel()], axis=-1)
        return (yp[:, None, :] + shift[None, :, :]).reshape(-1, 2)

    # -- kernels --------------------------------------------------------------
    # each returns values *including* the omega measure factor, or the flat
    # reference (omega == 1, y_n == 0) when flat=True
    def _kern_dEdny(self, x, yp, flat=False):
        ctx = self.ctx
        b = self.hs.boundary
        dxp = x[:2] - yp
        # omega in the kernel denominator cancels the measure: no factor here
        if flat:
            h = 0.0
            sigma = np.full(len(yp), x[2])
        else:
            h = b.height(yp)
            gh = b.gradient(yp)
            sigma = -np.sum(gh * dxp, axis=-1) + (x[2] - h)
        rho2 = np.sum(dxp * dxp, axis=-1) + (x[2] - h) ** 2
        return -ctx.grad_const * sigma / rho2 ** (ctx.n / 2.0)

    def _kern_E(self, x, yp, flat=False):
        h = 0.0 if flat else self.hs.boundary.height(yp)
        om = 1.0 if flat else np.sqrt(1.0 + np.sum(self.hs.boundary.gradient(yp) ** 2, axis=-1))
        dxp = x[:2] - yp
        rho2 = np.sum(dxp * dxp, axis=-1) + (x[2] - h) ** 2
        if np.any(rho2 == 0.0):
            raise SingularPoint("single-layer kernel hit a node")
        return self.ctx.e_const * rho2 ** ((2 - self.ctx.n) / 2.0) * om

    def _kern_gradE(self, x, yp, flat=False):
        h = 0.0 if flat else self.hs.boundary.height(yp)
        om = 1.0 if flat else np.sqrt(1.0 + np.sum(self.hs.boundary.gradient(yp) ** 2, axis=-1))
        dxp = x[:2] - yp
        dz = x[2] - h
        rho2 = np.sum(dxp * dxp, axis=-1) + dz**2
        if np.any(rho2 == 0.0):
            raise SingularPoint("gradient kernel hit a node")
        fac = -self.ctx.grad_const * rho2 ** (-self.ctx.n / 2.0) * om
        return np.stack([fac * dxp[:, 0], fac * dxp[:, 1], fac * dz], axis=-1)

    def _kern_dir_gradE(self, direction):
        def kern(x, yp, flat=False):
            return self._kern_gradE(x, yp, flat=flat) @ direction
        return kern

    # -- generic evaluation ---------------------------------------------------
    def _hit_guard(self, x, pts, flat):
        """Mask of quadrature points farther than dx/64 from the target."""
        h = 0.0 if flat else self.hs.boundary.height(pts)
        d2 = np.sum((pts - x[:2]) ** 2, axis=-1) + (x[2] - h) ** 2
        return d2 > (self.dx / 64.0) ** 2

    def _kern_kept(self, kern, x, pts, flat):
        """kern at pts, with 0 at the points the hit guard drops."""
        keep = self._hit_guard(x, pts, flat)
        vals = kern(x, pts[keep], flat=flat)
        out = np.zeros((len(pts),) + vals.shape[1:])
        out[keep] = vals
        return out

    def _refined_sum(self, kern, x, gvals, refine=True, sel=None, flat=False):
        """Midpoint sum of kern * g with subcell refinement near x'.

        kern returns one value per point, or a row per point (vector
        kernels).  Quadrature points within dx/64 of the target are dropped
        (principal value for on-surface targets; a no-op off the surface).
        """
        yp = self.yp if sel is None else self.yp[sel]
        gv = gvals if sel is None else gvals[sel]
        base = self._kern_kept(kern, x, yp, flat)
        tail = base.shape[1:]
        gcol = gv.reshape(gv.shape + (1,) * len(tail))
        total = np.sum(base * gcol, axis=0) * self.dx**2
        if not refine:
            return total
        # the plain lattice sum is spectrally accurate for smooth
        # integrands (trapezoidal/Poisson summation); mixing in subcell
        # corrections only pays off once the target sits within a couple of
        # spacings of the surface, where the kernel is rough at cell scale
        zgap = abs(x[2] - float(self.hs.boundary.height(x[:2])))
        if zgap > _POINT_GAP * self.dx:
            return total
        near = np.max(np.abs(yp - x[:2]), axis=-1) <= _POINT_CELLS * self.dx + 1e-12
        if not np.any(near):
            return total
        ny = yp[near]
        ng = gcol[near]
        total -= np.sum(base[near] * ng, axis=0) * self.dx**2
        pts = self.subcell_points(ny, _POINT_SUB)
        vals = self._kern_kept(kern, x, pts, flat)
        vals = vals.reshape((len(ny), -1) + tail).mean(axis=1)
        total += np.sum(vals * ng, axis=0) * self.dx**2
        return total

    def _bump_correction(self, kern, x, refine=True):
        """Sum of kern - kern_flat over the bump support (0 for a flat wall).

        Outside the support the boundary is the plane, so this is the whole
        difference between the boundary and the plane integral of kern.
        """
        ones = np.ones(len(self.yp))
        curved = self._refined_sum(kern, x, ones, refine=refine, sel=self.bump_sel)
        flatref = self._refined_sum(kern, x, ones, refine=refine, sel=self.bump_sel, flat=True)
        return curved - flatref

    def _closed_sum(self, g, x, direction=None, refine=True):
        """int grad E(x - y) g(y) dH(y), dotted with direction when given.

        The far-field constant g_inf (the lattice ring mean) is closed
        exactly: the plane integral of grad E is (0, 0, -sign(x_n)/2), with
        principal value 0 on the plane itself, plus the bump correction.
        """
        kern = self._kern_gradE if direction is None else self._kern_dir_gradE(direction)
        gvals = self.match(g)
        ginf = self.ring_mean(g)
        # a ring mean at roundoff level is a decaying density: skip the closure
        if abs(ginf) <= 1e-13 * max(np.abs(gvals).max(), 1e-300):
            ginf = 0.0
        total = self._refined_sum(kern, x, gvals - ginf, refine=refine)
        if ginf != 0.0:
            plane = np.array([0.0, 0.0, 0.0 if abs(x[2]) <= 1e-14 else -0.5 * np.sign(x[2])])
            if direction is not None:
                plane = plane @ direction
            total = total + ginf * (plane + self._bump_correction(kern, x, refine))
        return total


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
    return q._refined_sum(q._kern_E, x, gvals)


def grad_single_layer(q, g, x):
    """Gradient of the single layer potential at x with d(x) > 1.5 spacings.

    Constant far fields are closed analytically: the plane integral of
    grad E is (0, 0, -sign(x_n)/2).
    """
    x = np.asarray(x, dtype=float)
    d = q.hs.signed_distance(x)
    if abs(d) < q.delta_min:
        raise TooCloseToSurface("use the trace-extrapolation path below delta_min")
    return q._closed_sum(g, x)


def double_layer_Q(q, hs, g, x, refine=True):
    """Directional-derivative potential int dE/dn_x (x-y) g(y) dH(y).

    n_x is the outward normal at the projection of x, so the kernel equals
    -grad d(x) . grad E(x-y); gated by a unique projection (reach) rather
    than the tube radius so trace-extrapolation ladders stay usable.
    """
    x = np.asarray(x, dtype=float)
    d = hs.signed_distance(x)
    if not (0.0 < d < hs.reach_estimate):
        raise TooCloseToSurface("double layer needs 0 < d(x) < reach")
    if d < q.delta_min:
        raise TooCloseToSurface("target below delta_min; extrapolate instead")
    return q._closed_sum(g, x, direction=-hs.grad_distance(x), refine=refine)


def gauss_flux(q, hs, x):
    """Boundary flux int dE/dn_y (x-y) dH(y); equals -1/2 at interior points.

    Computed as -1/2 plus the bump-support correction of the kernel against
    its flat reference, which vanishes identically for a flat boundary.
    """
    x = np.asarray(x, dtype=float)
    d = hs.signed_distance(x)
    if d <= 0:
        raise TooCloseToSurface("flux identity holds at interior points")
    if d < q.delta_min:
        raise TooCloseToSurface("target below delta_min")
    return -0.5 + q._bump_correction(q._kern_dEdny, x)


def abs_flux(q, hs, x):
    """Absolute-kernel flux int |dE/dn_y (x-y)| dH(y) for x in the tube."""
    x = np.asarray(x, dtype=float)
    d = hs.signed_distance(x)
    if not (0.0 < d):
        raise TooCloseToSurface("absolute flux evaluated at interior points")

    def kern_abs(xx, yp, flat=False):
        return np.abs(q._kern_dEdny(xx, yp, flat=flat))

    return 0.5 + q._bump_correction(kern_abs, x)


def poisson_smoothing_deficit(q, g, x0p, t):
    """(1/2)(P_t * g - g)(x0') on the plane lattice, with exact unit mass.

    This is the height-t smoothing deficit of the half Poisson integral; at
    a flat boundary the normal-derivative potential satisfies
    Qg(x0 - t n) = (1/2)(P_t * g)(x0') identically, so subtracting the
    deficit turns the slow O(t) trace approach into pure quadrature error.
    """
    from .kernels import poisson_kernel

    gvals = q.match(g)
    ginf = q.ring_mean(g)

    def kern(x, yp, flat=False):
        return 0.5 * poisson_kernel(q.ctx, t, x[:2] - yp)

    x = np.array([x0p[0], x0p[1], float(q.hs.boundary.height(np.asarray(x0p))) + t])
    main = q._refined_sum(kern, x, gvals - ginf)
    # unit kernel mass closes the constant part exactly
    main += 0.5 * ginf
    return main - 0.5 * float(g.bilinear(x0p[0], x0p[1]))


def trace_limit_Q(q, hs, g, x0, delta0=None, ladder=(8.0, 4.0, 2.0, 1.0)):
    """Boundary-trace estimate of the normal-derivative potential at x0.

    Evaluates Qg along the inward normal at the ladder heights, removes the
    flat Poisson smoothing deficit, and Richardson-extrapolates the two
    smallest corrected values.  Returns (estimate, raw ladder values,
    empirical convergence order of the raw values).
    """
    top = max(ladder)
    if delta0 is None:
        delta0 = 2.0 * q.delta_min
    if np.isfinite(hs.reach_estimate):
        delta0 = min(delta0, 0.8 * hs.reach_estimate / top)
    if delta0 < q.delta_min:
        raise TooCloseToSurface("ladder cannot fit between delta_min and the reach")
    nrm = hs.outward_normal(x0)
    raw = []
    corrected = []
    for s in sorted(ladder, reverse=True):
        t = s * delta0
        val = double_layer_Q(q, hs, g, x0 - t * nrm)
        raw.append(val)
        corrected.append(val - poisson_smoothing_deficit(q, g, x0[:2], t))
    est = 2.0 * corrected[-1] - corrected[-2]
    # convergence order of the raw defect against the extrapolated limit
    d1 = abs(raw[-1] - est)
    d2 = abs(raw[-2] - est)
    order = float(np.log2(d2 / d1)) if d1 > 0 else float("inf")
    return est, raw, order


def trace_S(q, hs, g, x0, refine=True):
    """Boundary trace operator: (S g)(x0) = -int dE/dn_{x0}(x0-y) g(y) dH(y).

    x0 lies on the boundary; the weakly singular self cell is omitted
    (principal-value convention).  The same full-boundary integral is used
    on the flat region as over the bump: for a flat-region target the
    flat-flat kernel vanishes pointwise, so restricting the domain to the
    bump neighborhood would change nothing.  Vanishes identically when the
    boundary is flat.
    """
    x0 = np.asarray(x0, dtype=float)
    if abs(x0[2] - hs.boundary.height(x0[:2])) > 1e-9:
        raise ValueError("trace target must lie on the boundary graph")
    gd = -hs.outward_normal(x0)  # grad d at the boundary point itself
    # S = +grad d . grad E convolved with g
    return q._closed_sum(g, x0, direction=gd, refine=refine)


def _assemble_s_matrix(q, hs):
    """Dense lattice discretization of S (targets x sources), cached."""
    if q._s_matrix is not None:
        return q._s_matrix
    m = q.res * q.res
    if hs.boundary.is_flat:
        # flat-flat pairing vanishes pointwise; S == 0
        q._s_matrix = np.zeros((m, m))
        return q._s_matrix
    from ._fast import dir_gradslp_rows

    ctx = q.ctx
    x = q.nodes
    gd = -hs.outward_normal(x)
    A = dir_gradslp_rows(np.ascontiguousarray(x), np.ascontiguousarray(gd),
                         np.ascontiguousarray(q.nodes),
                         np.ascontiguousarray(q.weights), -ctx.grad_const)
    np.fill_diagonal(A, 0.0)
    # refinement of near-diagonal cells, skipping flat-flat pairs (kernel 0)
    Rh = hs.boundary.support_radius
    pad = Rh + (_REFINE_CELLS + 1) * q.dx
    active = np.flatnonzero(np.linalg.norm(q.yp, axis=-1) <= pad)
    for i in active:
        x0 = q.nodes[i]
        near = np.flatnonzero(np.max(np.abs(q.yp - x0[:2]), axis=-1)
                              <= _REFINE_CELLS * q.dx + 1e-12)
        near = near[near != i]
        pts = q.subcell_points(q.yp[near], _REFINE_SUB)
        h = hs.boundary.height(pts)
        ghp = hs.boundary.gradient(pts)
        om = np.sqrt(1.0 + np.sum(ghp**2, axis=-1))
        diff = np.concatenate([x0[:2] - pts, (x0[2] - h)[:, None]], axis=1)
        rho2 = np.sum(diff * diff, axis=-1)
        keep = rho2 > (q.dx / 64.0) ** 2
        vals = np.zeros(len(pts))
        vals[keep] = (diff[keep] @ gd[i]) * (-ctx.grad_const) * rho2[keep] ** (-ctx.n / 2.0) \
            * om[keep]
        A[i, near] = vals.reshape(len(near), -1).mean(axis=1) * q.dx**2
    q._s_matrix = A
    return A


def apply_S(q, hs, gvalues):
    """Apply the discretized trace operator to lattice values (decaying g).

    Uses the cached dense matrix (with near-diagonal refinement) up to 96^2
    lattice nodes; beyond that a chunked matrix-free product without the
    refinement, adequate because large lattices imply small spacings.
    """
    gvec = np.asarray(gvalues, dtype=float).ravel()
    if hs.boundary.is_flat:
        return np.zeros_like(gvec)
    if q.res * q.res <= 96 * 96:
        return _assemble_s_matrix(q, hs) @ gvec
    from ._fast import dir_gradslp_rows

    nodes = np.ascontiguousarray(q.nodes)
    weights = np.ascontiguousarray(q.weights)
    gd = -hs.outward_normal(q.nodes)
    out = np.empty(len(gvec))
    block = 2048
    for a in range(0, len(gvec), block):
        sl = slice(a, min(a + block, len(gvec)))
        rows = dir_gradslp_rows(nodes[sl], np.ascontiguousarray(gd[sl]),
                                nodes, weights, -q.ctx.grad_const)
        out[sl] = rows @ gvec
    return out


def trace_S_norms(q, hs, g):
    """(sup, L^{(2n-2)/n}(Gamma), pullback Hdot^{-1/2}) of S g on the lattice."""
    vals = apply_S(q, hs, q.match(g))
    dens = q.density(vals, on_graph=True)
    linf = float(np.abs(vals).max())
    p = (2.0 * q.ctx.n - 2.0) / q.ctx.n
    lp = lp_norm(dens, p, weight=q.omega.reshape(q.res, q.res))
    hminus = hs_norm_fourier(th_pull(dens), -0.5, check_decay=False)
    return linf, lp, hminus
