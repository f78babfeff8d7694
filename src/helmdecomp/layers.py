"""Surface quadrature for layer potentials on the boundary graph.

All operators share one scheme: a tensor-product midpoint rule on a uniform
y'-lattice carrying the surface measure omega(y') dy', a local subcell
refinement near the target, and an exact flat-tail closure.  The kernel
formulas live in ``kernels``; SurfaceQuadrature samples the graph once per
quadrature point (points, omega, grad h) and evaluates them on the samples.

Refinement rules:
  * pointwise operators refine only targets within two spacings of the
    wall; for those, every cell within four spacings of the target's
    projection is split into 8x8 subcells;
  * the lattice S matrix splits the cells within three spacings of each
    bump-neighbourhood target into 4x4 subcells, at every lattice size.
    It stores only the rows of the bump-neighbourhood nodes B and the
    columns B of the other rows (the flat-flat block is exactly 0):
    8 |B| (2m - |B|) bytes for m lattice nodes.

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

from .errors import NonDecayingInput, TooCloseToSurface
from .kernels import E_eval, KernelContext, grad_E, poisson_kernel
from .sobolev import BoundaryDensity, hs_norm_fourier, lattice_points, lp_norm, th_pull

# lattice S matrix: cells within _REFINE_CELLS spacings, _REFINE_SUB^2 subcells
_REFINE_CELLS = 3
_REFINE_SUB = 4
# (row, cell) pairs per refinement chunk: 64k subcell points
_REFINE_PAIRS = 4096
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
        self.yp = lattice_points(self.extent, self.res).reshape(-1, 2)
        self.nodes, self.omega, _ = self._surface(self.yp)
        self.weights = self.omega * self.dx**2
        Rh = hs.boundary.support_radius
        if self.extent / 2.0 <= Rh + 2 * self.dx:
            raise ValueError("flat-tail closure needs extent/2 > support radius")
        self.bump_sel = np.linalg.norm(self.yp, axis=-1) <= Rh + 1e-12
        self.delta_min = 1.5 * self.dx
        self._s_blocks = None

    # -- density plumbing ---------------------------------------------------
    def match(self, g):
        if not g.same_grid(self):
            raise ValueError("density lattice does not match the quadrature")
        return g.values.ravel()

    def ring_mean(self, g):
        v = g.values
        return float(np.mean(np.concatenate([v[0, :], v[-1, :], v[:, 0], v[:, -1]])))

    def density(self, values):
        """Lattice values as a density on the boundary graph."""
        return BoundaryDensity(self.extent, np.asarray(values, float).reshape(self.res, self.res),
                               on_graph=True)

    def surface_area(self, delta):
        """Sum of weights over |y'| < delta, splitting straddling cells 8x8."""
        r = np.linalg.norm(self.yp, axis=-1)
        margin = self.dx * np.sqrt(0.5)
        inside = r < delta - margin
        total = float(self.weights[inside].sum())
        edge = (~inside) & (r < delta + margin)
        if np.any(edge):
            pts = self.subcell_points(self.yp[edge], 8)
            om = self._surface(pts)[1]
            om *= np.linalg.norm(pts, axis=-1) < delta
            total += float(om.reshape(edge.sum(), -1).mean(axis=1).sum()) * self.dx**2
        return total

    def subcell_points(self, yp, sub):
        """Centres of the sub x sub subcells of the cells at yp, grouped by cell."""
        off = ((np.arange(sub) + 0.5) / sub - 0.5) * self.dx
        ox, oy = np.meshgrid(off, off, indexing="ij")
        shift = np.stack([ox.ravel(), oy.ravel()], axis=-1)
        return (yp[:, None, :] + shift[None, :, :]).reshape(-1, 2)

    # -- graph samples and kernels ------------------------------------------
    def _surface(self, yp, flat=False):
        """(points, omega, grad h) of the graph over yp; the plane when flat."""
        if flat:
            return (np.concatenate([yp, np.zeros((len(yp), 1))], axis=1),
                    np.ones(len(yp)), np.zeros_like(yp))
        b = self.hs.boundary
        gh = b.gradient(yp)
        return b.surface_point(yp), np.sqrt(1.0 + np.sum(gh**2, axis=-1)), gh

    # each kernel takes the target x and the samples (y, omega, grad h) of
    # _surface, and returns its values times the measure factor omega
    def _kern_E(self, x, y, om, gh):
        return E_eval(self.ctx, x - y) * om

    def _kern_gradE(self, x, y, om, gh):
        return grad_E(self.ctx, x - y) * om[:, None]

    def _kern_dEdny(self, x, y, om, gh):
        # omega n_y = (grad h, -1), so omega dE/dn_y = -(grad h, -1) . grad E(x - y)
        g = grad_E(self.ctx, x - y)
        return g[:, 2] - np.sum(gh * g[:, :2], axis=-1)

    # -- generic evaluation ---------------------------------------------------
    def _kern_kept(self, kern, x, yp, flat):
        """kern at the graph samples over yp, 0 at those within dx/64 of the
        target (off the surface there are none, and no gather runs)."""
        y, om, gh = self._surface(yp, flat)
        keep = np.sum((x - y) ** 2, axis=-1) > (self.dx / 64.0) ** 2
        if keep.all():
            return kern(x, y, om, gh)
        vals = kern(x, y[keep], om[keep], gh[keep])
        out = np.zeros((len(yp),) + vals.shape[1:])
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
        kern = self._kern_gradE if direction is None else (
            lambda *sample: self._kern_gradE(*sample) @ direction)
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

    def kern_abs(*sample):
        return np.abs(q._kern_dEdny(*sample))

    return 0.5 + q._bump_correction(kern_abs, x)


def poisson_smoothing_deficit(q, g, x0p, t):
    """(1/2)(P_t * g - g)(x0') on the plane lattice, with exact unit mass.

    This is the height-t smoothing deficit of the half Poisson integral; at
    a flat boundary the normal-derivative potential satisfies
    Qg(x0 - t n) = (1/2)(P_t * g)(x0') identically, so subtracting the
    deficit turns the slow O(t) trace approach into pure quadrature error.
    """
    gvals = q.match(g)
    ginf = q.ring_mean(g)

    def kern(x, y, om, gh):
        return 0.5 * poisson_kernel(q.ctx, t, x[:2] - y[:, :2])

    x = np.array([x0p[0], x0p[1], float(q.hs.boundary.height(np.asarray(x0p))) + t])
    main = q._refined_sum(kern, x, gvals - ginf)
    # unit kernel mass closes the constant part exactly
    main += 0.5 * ginf
    return main - 0.5 * float(g.bilinear(x0p[0], x0p[1]))


def trace_limit_Q(q, hs, g, x0, ladder=(8.0, 4.0, 2.0, 1.0)):
    """Boundary-trace estimate of the normal-derivative potential at x0.

    Evaluates Qg along the inward normal at the ladder heights, removes the
    flat Poisson smoothing deficit, and Richardson-extrapolates the two
    smallest corrected values.  Returns (estimate, raw ladder values,
    empirical convergence order of the raw values).  The ladder unit is
    2 delta_min, cut to fit the top rung within 0.8 of the reach.
    """
    top = max(ladder)
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


def _assemble_s_blocks(q):
    """Lattice discretization of S on q.hs (targets x sources) in blocks, cached.

    B holds the nodes within _REFINE_CELLS + 1 spacings of the bump support,
    F the rest.  Both ends of an F-F pair lie on the plane, where
    grad d . (x - y) = x_n - y_n = 0, and no F row is refined, so S[F, F]
    vanishes exactly and only rows = S[B, :] and cols = S[F, B] are stored:
    8 |B| (2m - |B|) bytes for m lattice nodes, against 8 m^2 for dense S.
    Returns (B, F, rows, cols) as index arrays and matrices.
    """
    if q._s_blocks is not None:
        return q._s_blocks
    from ._fast import dir_gradslp_rows

    ctx = q.ctx
    pad = q.hs.boundary.support_radius + (_REFINE_CELLS + 1) * q.dx
    near_bump = np.linalg.norm(q.yp, axis=-1) <= pad
    B = np.flatnonzero(near_bump)
    F = np.flatnonzero(~near_bump)
    gd = -q.hs.outward_normal(q.nodes)
    rows = dir_gradslp_rows(q.nodes[B], gd[B], q.nodes, q.weights, -ctx.grad_const)
    cols = dir_gradslp_rows(q.nodes[F], gd[F], q.nodes[B], q.weights[B], -ctx.grad_const)
    _refine_rows(q, B, gd, rows)
    q._s_blocks = (B, F, rows, cols)
    return q._s_blocks


def _refine_rows(q, B, gd, rows):
    """Replace the near-diagonal entries of the B rows by subcell means.

    Every cell within _REFINE_CELLS spacings (max norm) of a B node, other
    than the node's own, is split into _REFINE_SUB^2 subcells; the graph is
    sampled once per cell, and the (row, cell) pairs run in chunks of
    _REFINE_PAIRS.
    """
    res, c = q.res, -q.ctx.grad_const
    off = np.arange(-_REFINE_CELLS, _REFINE_CELLS + 1)
    oi, oj = (a.ravel() for a in np.meshgrid(off, off, indexing="ij"))
    own = (oi == 0) & (oj == 0)
    ti = B[:, None] // res + oi[~own]
    tj = B[:, None] % res + oj[~own]
    ok = (ti >= 0) & (ti < res) & (tj >= 0) & (tj < res)
    pair_row = np.nonzero(ok)[0]
    pair_cell = ti[ok] * res + tj[ok]
    cells, pair_ucell = np.unique(pair_cell, return_inverse=True)
    y, om, _ = q._surface(q.subcell_points(q.yp[cells], _REFINE_SUB))
    h = y[:, 2].reshape(len(cells), -1)
    om = om.reshape(h.shape)
    pts = y[:, :2].reshape(h.shape + (2,))
    for a in range(0, len(pair_row), _REFINE_PAIRS):
        k = pair_row[a:a + _REFINE_PAIRS]
        j = pair_ucell[a:a + _REFINE_PAIRS]
        x0 = q.nodes[B[k]]
        g = gd[B[k]]
        d0 = x0[:, 0, None] - pts[j, :, 0]
        d1 = x0[:, 1, None] - pts[j, :, 1]
        d2 = x0[:, 2, None] - h[j]
        rho2 = d0 * d0 + d1 * d1 + d2 * d2
        dot = d0 * g[:, 0, None] + d1 * g[:, 1, None] + d2 * g[:, 2, None]
        vals = np.where(rho2 > (q.dx / 64.0) ** 2,
                        dot * c * rho2 ** (-q.ctx.n / 2.0) * om[j], 0.0)
        rows[k, pair_cell[a:a + _REFINE_PAIRS]] = vals.mean(axis=1) * q.dx**2


def apply_S(q, hs, gvalues):
    """Apply the discretized trace operator to lattice values (decaying g).

    Every lattice size uses the cached blocks of ``_assemble_s_blocks``
    (near-diagonal refinement in the bump rows); S is 0 on a flat boundary.
    S is that of q.hs, the half space q was built on; ValueError unless hs is
    that object.
    """
    if hs is not q.hs:
        raise ValueError("apply_S: hs is not the half space of the quadrature")
    gvec = np.asarray(gvalues, dtype=float).ravel()
    if hs.boundary.is_flat:
        return np.zeros_like(gvec)
    B, F, rows, cols = _assemble_s_blocks(q)
    out = np.empty_like(gvec)
    out[B] = rows @ gvec
    out[F] = cols @ gvec[B]
    return out


def trace_S_norms(q, hs, g):
    """(sup, L^{(2n-2)/n}(Gamma), pullback Hdot^{-1/2}) of S g on the lattice."""
    vals = apply_S(q, hs, q.match(g))
    dens = q.density(vals)
    linf = float(np.abs(vals).max())
    p = (2.0 * q.ctx.n - 2.0) / q.ctx.n
    lp = lp_norm(dens, p, weight=q.omega.reshape(q.res, q.res))
    hminus = hs_norm_fourier(th_pull(dens), -0.5, check_decay=False)
    return linf, lp, hminus
