"""Fractional Sobolev, BMO and related norm machinery: the Hdot^{+-1/2}
norms of boundary densities, the Gagliardo pair sum, the harmonic lifting,
and the ledger of a box field (vbmol2_norm), whose BMO and b^nu estimates
run on the balls that ledger_geometry draws once per grid and mask.

Fourier convention used everywhere in this package:

    fhat(xi) = integral e^{-i x . xi} f(x) dx,
    f(x)     = (2 pi)^{-(n-1)} integral e^{+i x . xi} fhat(xi) dxi,

so Plancherel reads  ||f||_{L^2}^2 = (2 pi)^{-(n-1)} ||fhat||_{L^2}^2  and the
homogeneous norm of order s is  ||f||_{Hdot^s}^2 = int |xi|^{2s} |fhat|^2 dxi.

Under this convention the harmonic lifting u_f (Fourier multiplier
e^{-|x_n| |xi'|} on the trace) satisfies the exact energy identity

    || grad u_f ||_{L^2(R^n)}^2 = 2 (2 pi)^{-(n-1)} ||f||_{Hdot^{1/2}}^2,

i.e. 1/(2 pi^2) at n = 3.  Classical statements of the same identity under
unitary-free bookkeeping quote the constant 8 pi^2; the conversion factor
between the two is (2 pi)^{n+1}, and the acceptance suite checks the
measured ratio against 8 pi^2 through exactly that documented factor.

For s = -1/2 the |xi'|^{2s} weight is integrable but singular at the
origin; cells of the discrete frequency lattice within a few spacings of
xi' = 0 use the exact cell average of the weight (the point xi' = 0 itself
is never evaluated).
"""

import functools
from dataclasses import dataclass, asdict

import numpy as np

from .errors import NoAdmissibleBall, NonDecayingInput, ZeroFrequencyIll
from .geometry import BoxField, BoxGrid, compact_index, take_nodes

_RING_TOL = 1e-6


def lattice_axis(extent, res):
    """Nodes -L/2 + (L/res) k, k < res, of the boundary lattice [-L/2, L/2)^2."""
    return -extent / 2.0 + (extent / res) * np.arange(res)


def lattice_points(extent, res):
    """The (res, res, 2) nodes of the boundary lattice."""
    a = lattice_axis(extent, res)
    return np.stack(np.meshgrid(a, a, indexing="ij"), axis=-1)


@dataclass
class BoundaryDensity:
    """Scalar samples on a uniform (n-1)-lattice spanning [-L/2, L/2)^2.

    ``on_graph`` marks whether the values are read as a function on the
    boundary graph (via the relabeling x' -> (x', h(x'))) or on the plane.
    """

    extent: float
    values: np.ndarray
    on_graph: bool = False

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("values must be a square 2-d array")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def res(self):
        return self.values.shape[0]

    @property
    def dx(self):
        return self.extent / self.res

    def axis(self):
        return lattice_axis(self.extent, self.res)

    def points(self):
        return lattice_points(self.extent, self.res)

    @classmethod
    def sample(cls, extent, res, fn, on_graph=False):
        return cls(extent, fn(lattice_points(extent, res)), on_graph)

    def bilinear(self, xs, ys):
        """Bilinear lookup at plane points, clamped to the lattice."""
        lo = self.axis()[0]
        tx = np.clip((xs - lo) / self.dx, 0.0, self.res - 1.0)
        ty = np.clip((ys - lo) / self.dx, 0.0, self.res - 1.0)
        i0 = np.clip(tx.astype(int), 0, self.res - 2)
        j0 = np.clip(ty.astype(int), 0, self.res - 2)
        fx = tx - i0
        fy = ty - j0
        v = self.values
        return (v[i0, j0] * (1 - fx) * (1 - fy)
                + v[i0 + 1, j0] * fx * (1 - fy)
                + v[i0, j0 + 1] * (1 - fx) * fy
                + v[i0 + 1, j0 + 1] * fx * fy)

    def same_grid(self, other):
        """Same lattice as other (a density or a quadrature): equal res, extents within 1e-12."""
        return self.res == other.res and abs(self.extent - other.extent) <= 1e-12


def _check_decay(f):
    vmax = np.abs(f.values).max()
    if vmax == 0.0:
        return
    ring = np.concatenate([f.values[0, :], f.values[-1, :], f.values[:, 0], f.values[:, -1]])
    if np.abs(ring).max() > _RING_TOL * vmax:
        raise NonDecayingInput("density does not decay at the lattice boundary")


def _freq_axes(f):
    xi = 2.0 * np.pi * np.fft.fftfreq(f.res, d=f.dx)
    return np.meshgrid(xi, xi, indexing="ij")


def _abs_fhat2(f):
    # |fhat|^2 on the frequency lattice; grid-origin phase drops out
    fh = np.fft.fft2(f.values) * f.dx**2
    return np.abs(fh) ** 2


def _inv_dist_antideriv(x, y):
    # corner antiderivative of 1/|z| on a quadrant: y asinh(x/y)-style form,
    # written to stay finite on the axes
    r = np.hypot(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * np.log(np.maximum(x + r, 1e-300)), 0.0)
        t2 = np.where(x > 0, x * np.log(np.maximum(y + r, 1e-300)), 0.0)
    return t1 + t2


def _inv_dist_rect_quadrant(x0, x1, y0, y1):
    # exact int_{[x0,x1]x[y0,y1]} dz/|z| for 0 <= x0 <= x1, 0 <= y0 <= y1
    return (_inv_dist_antideriv(x1, y1) - _inv_dist_antideriv(x0, y1)
            - _inv_dist_antideriv(x1, y0) + _inv_dist_antideriv(x0, y0))


def _inv_dist_rect(x0, x1, y0, y1):
    """Exact integral of 1/|z| over [x0,x1]x[y0,y1], any signs."""
    total = np.zeros(np.broadcast(x0, x1, y0, y1).shape)
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            ax0 = np.clip(sx * np.where(sx > 0, x0, x1), 0.0, None)
            ax1 = np.clip(sx * np.where(sx > 0, x1, x0), 0.0, None)
            ay0 = np.clip(sy * np.where(sy > 0, y0, y1), 0.0, None)
            ay1 = np.clip(sy * np.where(sy > 0, y1, y0), 0.0, None)
            ok = (ax1 > ax0) & (ay1 > ay0)
            piece = _inv_dist_rect_quadrant(ax0, ax1, ay0, ay1)
            total += np.where(ok, piece, 0.0)
    return total


def _singular_weights(xi1, xi2, s, dxi):
    """|xi|^{2s} weights; for s = -1/2 every cell uses the exact cell mean."""
    if s > 0:
        return np.hypot(xi1, xi2)  # |xi| at s = 1/2
    x0 = xi1 - dxi / 2.0
    x1 = xi1 + dxi / 2.0
    y0 = xi2 - dxi / 2.0
    y1 = xi2 + dxi / 2.0
    return _inv_dist_rect(x0, x1, y0, y1) / dxi**2


def _separable_dft(axis, xis):
    """(E(u1), i1, E(u2)^T, i2) of _semidiscrete_fhat2 on a lattice axis:
    u1 and u2 the unique coordinates of xis and i1, i2 where each
    frequency reads them."""
    u1, i1 = np.unique(xis[:, 0], return_inverse=True)
    u2, i2 = np.unique(xis[:, 1], return_inverse=True)
    return np.exp(-1j * np.outer(u1, axis)), i1, np.exp(-1j * np.outer(axis, u2)), i2


def _semidiscrete_fhat2(f, dft):
    """|fhat|^2 at arbitrary frequencies xis via the separable lattice sum.

    The lattice is a tensor product, so fhat(u1, u2) = dx^2 (E(u1) F
    E(u2)^T) with E(u)[k, a] = exp(-i u_k x_a), evaluated once on the
    unique coordinates of xis and read off at each frequency.  dft is
    _separable_dft(f.axis(), xis).
    """
    e1, i1, e2, i2 = dft
    fh = e1 @ f.values @ e2
    return np.abs(fh[i1, i2] * f.dx**2) ** 2


@functools.lru_cache(maxsize=16)
def _fourier_weights(res, extent, s, origin_rings, sub):
    """The weights of hs_norm_fourier, which depend on the lattice alone:
    |xi|^{2s} on the res x res frequency lattice of a density of the given
    extent, and for s = -1/2 the mask of the cells within origin_rings
    spacings of xi = 0, the exact (cells, sub^2) integrals of |xi|^{-1}
    over the sub x sub subcells of those cells and the _separable_dft
    factors of the subcell centres (else None each).  Kept per lattice and
    read-only."""
    dxi = 2.0 * np.pi / extent
    xi = 2.0 * np.pi * np.fft.fftfreq(res, d=extent / res)
    xi1, xi2 = np.meshgrid(xi, xi, indexing="ij")
    w = _singular_weights(xi1, xi2, s, dxi)
    near = wsub = dft = None
    if s == -0.5:
        near = np.hypot(xi1, xi2) <= origin_rings * dxi + 1e-12
        centers = np.stack([xi1[near], xi2[near]], axis=-1)
        dsub = dxi / sub
        off = (np.arange(sub) + 0.5) * dsub - dxi / 2.0
        ox, oy = np.meshgrid(off, off, indexing="ij")
        flat = (centers[:, None, :]
                + np.stack([ox.ravel(), oy.ravel()], axis=-1)[None]).reshape(-1, 2)
        wsub = _inv_dist_rect(flat[:, 0] - dsub / 2, flat[:, 0] + dsub / 2,
                              flat[:, 1] - dsub / 2, flat[:, 1] + dsub / 2)
        wsub = wsub.reshape(len(centers), -1)
        dft = _separable_dft(lattice_axis(extent, res), flat)
    for a in (w, near, wsub) + (dft or ()):
        if a is not None:
            a.flags.writeable = False
    return w, near, wsub, dft


def hs_norm_fourier(f, s, check_decay=True, origin_rings=8, sub=4):
    """Homogeneous Sobolev norm of order s = -1/2 or 1/2 via the FFT.

    Returns (int |xi'|^{2s} |fhat|^2 dxi')^{1/2}.  For s = -1/2 the cells
    within ``origin_rings`` spacings of xi' = 0 are integrated with exact
    cell means of the weight against the semidiscrete transform on a
    ``sub x sub`` subgrid; the point xi' = 0 is never evaluated.  Raises
    ZeroFrequencyIll when the origin cell would dominate the value (the
    mean of f is then unresolved by the lattice).
    """
    if s not in (-0.5, 0.5):
        raise ValueError("s must be -1/2 or 1/2")
    if check_decay:
        _check_decay(f)
    p2 = _abs_fhat2(f)
    dxi = 2.0 * np.pi / f.extent
    w, near, wsub, dft = _fourier_weights(f.res, f.extent, s, origin_rings, sub)
    contrib = w * p2 * dxi**2
    origin_share = float(contrib[0, 0])
    total = float(contrib.sum())
    if s == -0.5:
        total -= float(contrib[near].sum())
        p2s = _semidiscrete_fhat2(f, dft).reshape(wsub.shape)
        refined = float(np.sum(wsub * p2s))
        origin_share = float(np.sum(wsub[0] * p2s[0])) if near[0, 0] else origin_share
        total += refined
    if s == -0.5 and total > 0 and origin_share > 0.5 * total:
        raise ZeroFrequencyIll("Hdot^{-1/2} value dominated by the origin cell")
    return np.sqrt(total)


def pairing(f, g):
    """Plane duality pairing int f g dx' on a shared lattice."""
    if not f.same_grid(g):
        raise ValueError("densities live on different lattices")
    return float(np.sum(f.values * g.values) * f.dx**2)


# exact integral of 1/|z| over the unit square centered at the origin
_UNIT_SQUARE_INV_DIST = 4.0 * np.log(1.0 + np.sqrt(2.0))


# three entries: the norms of one density alternate three lattices (the
# wide plane, the graph and the narrow plane); each entry holds about
# 80 bytes per lattice node, 84 MB at res 1024
@functools.lru_cache(maxsize=3)
def _gagliardo_lattice(res, extent, boundary):
    """What gagliardo_half reads of the lattice and the boundary alone:
    (coords, geometry, self_w, ext_w), kept per (res, extent, boundary)
    and read-only; boundary is None on the plane.

    coords are the res^2 nodes lifted to the graph (height 0 on the plane),
    geometry is _fast.gagliardo_geometry(coords, mu) with the measure
    mu = omega dx^2 (dx^2 on the plane), and self_w and ext_w are the
    weights of the self-cell and exterior terms: c0 dx mu and 2 T mu.
    """
    from ._fast import gagliardo_geometry

    dx = extent / res
    pts2 = lattice_points(extent, res).reshape(-1, 2)
    if boundary is None:
        h = np.zeros(len(pts2))
        mu = np.full(len(pts2), dx**2)
    else:
        h = boundary.height(pts2)
        mu = boundary.omega(pts2) * dx**2
    coords = np.column_stack([pts2, h])

    # int_cell |z|^{2-n} dz for the square cell == dx * c0 with c0 the
    # unit-square integral of 1/|z| (n == 3)
    self_w = (_UNIT_SQUARE_INV_DIST * dx) * mu

    # pairs with one leg outside the lattice: f vanishes there, so each
    # lattice point contributes 2 |f|^2 * int_{exterior} |x-y|^{-3} dy,
    # an exact half-plane/corner expression T
    half = extent / 2.0
    gxx, gyy = pts2.T
    d_w = np.maximum(gxx + half, dx / 2)
    d_e = np.maximum(half - gxx, dx / 2)
    d_s = np.maximum(gyy + half, dx / 2)
    d_n = np.maximum(half - gyy, dx / 2)

    def corner(aa, bb):
        return 1.0 / aa + 1.0 / bb - np.sqrt(aa**2 + bb**2) / (aa * bb)

    T = 2.0 / d_w + 2.0 / d_e + 2.0 / d_s + 2.0 / d_n \
        - corner(d_w, d_s) - corner(d_w, d_n) - corner(d_e, d_s) - corner(d_e, d_n)
    ext_w = 2.0 * T * mu
    for a in (coords, mu, self_w, ext_w):
        a.flags.writeable = False
    return coords, gagliardo_geometry(coords, mu), self_w, ext_w


def gagliardo_half(f, hs=None):
    """Gagliardo realization of the 1/2-norm over the lattice pairs.

    Plane mode integrates |f(x')-f(y')|^2 / |x'-y'|^n dx' dy'; graph mode
    (``f.on_graph``) uses ambient distances |x-y| in R^n and the surface
    measure omega dy'.  The pair sum is one lattice FFT convolution of the
    field, plus a direct sum over the pairs with an end on the bump in graph
    mode; everything that depends on the lattice and the boundary alone is
    kept by _gagliardo_lattice.  The self-cell uses the local-gradient
    surrogate |grad f(x)|^2 |z|^{2-n}, integrated exactly over the square
    cell.
    """
    from ._fast import gagliardo_pairs

    if f.on_graph and hs is None:
        raise ValueError("graph-mode Gagliardo needs the half-space geometry")
    boundary = hs.boundary if f.on_graph else None
    coords, geometry, self_w, ext_w = _gagliardo_lattice(f.res, f.extent, boundary)
    vals = np.ascontiguousarray(f.values.ravel())
    total = gagliardo_pairs(coords, vals, geometry)

    gx, gy = np.gradient(f.values, f.dx, f.dx)
    grad2 = (gx**2 + gy**2).ravel()
    return np.sqrt(total + float(grad2 @ self_w) + float((vals * vals) @ ext_w))


def th_push(f):
    """Relabel a plane density as a function on the boundary graph."""
    return BoundaryDensity(f.extent, f.values.copy(), on_graph=True)


def th_pull(f):
    """Relabel a graph density as a function on the plane."""
    return BoundaryDensity(f.extent, f.values.copy(), on_graph=False)


def lift_harmonic(f, check_decay=True):
    """Harmonic lifting of a plane density by the e^{-|x_n||xi'|} multiplier.

    Returns a scalar BoxField on the cube [-L/2, L/2)^3 sharing the lattice
    of f in the first two axes; the x_n = 0 plane reproduces f exactly and
    the field is harmonic in each open half space.
    """
    if check_decay:
        _check_decay(f)
    M = f.res
    L = f.extent
    fh = np.fft.fft2(f.values)
    xi1, xi2 = _freq_axes(f)
    aximod = np.hypot(xi1, xi2)
    data = np.empty((M, M, M))
    for k, zn in enumerate(f.axis()):
        mult = np.exp(-np.abs(zn) * aximod)
        data[:, :, k] = np.fft.ifft2(mult * fh).real
    grid = BoxGrid((-L / 2, -L / 2, -L / 2), (L / 2, L / 2, L / 2), (M, M, M))
    return BoxField(grid, data[None])


# ---------------------------------------------------------------------------
# Mean-oscillation and boundary-mass estimators
# ---------------------------------------------------------------------------

def _ball_nodes(g, mask, center, r):
    """Flat indices, in row-major order, of the nodes of mask within the
    ball B_r(center); None when there are none."""
    lo_idx = []
    hi_idx = []
    for ax in range(3):
        lo = int(np.floor((center[ax] - r - g.lower[ax]) / g.dx[ax]))
        hi = int(np.ceil((center[ax] + r - g.lower[ax]) / g.dx[ax])) + 1
        if hi <= 0 or lo >= g.resolution[ax]:
            return None
        lo_idx.append(max(lo, 0))
        hi_idx.append(min(hi, g.resolution[ax]))
    sl = tuple(slice(a, b) for a, b in zip(lo_idx, hi_idx))
    axes = [g.axis(ax)[sl[ax]] for ax in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    inball = ((X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2) <= r * r
    inball &= mask[sl]
    if not np.any(inball):
        return None
    ijk = [i + i0 for i, i0 in zip(np.nonzero(inball), lo_idx)]
    return np.ravel_multi_index(ijk, g.resolution)


def _admissible_balls(grid, mask, centers, radii, dmin, fewest):
    """(r, flat node indices) of each ball B_r(center) with r >= dmin that
    holds at least fewest nodes of mask, in the order drawn."""
    balls = []
    for center, r in zip(centers, radii):
        index = None if r < dmin else _ball_nodes(grid, mask, center, r)
        if index is not None and len(index) >= fewest:
            balls.append((r, compact_index(index, mask.size)))
    return balls


def _largest_over_balls(data, balls, stat):
    """Largest stat(values, r) over the balls, values the (ncomp, k) entries
    of data at the ball's nodes; NoAdmissibleBall if there is no ball."""
    if not balls:
        raise NoAdmissibleBall("no admissible ball found; grid too thin for the radii")
    best = 0.0
    for r, index in balls:
        best = max(best, float(stat(take_nodes(data, index), r)))
    return best


def _bmo_balls(hs, g, mask, mu, samples, seed):
    """The balls of the BMO estimate, which depend on the grid and mask
    alone: centers drawn from the inside nodes, radii from (0, mu) with
    B_r(x) within Omega and the box.  The stream depends on seed alone, so
    the estimate is nondecreasing in samples."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    inside = np.flatnonzero(mask)
    if len(inside) == 0:
        raise NoAdmissibleBall("no inside nodes on this grid")
    rng = np.random.default_rng(seed)
    dmin = 2.5 * max(g.dx)
    picks = rng.integers(0, len(inside), size=samples)
    fracs = rng.random(samples)
    centers = g.node_points(inside[picks])
    top = np.subtract(g.upper, g.dx)
    cap = np.minimum(np.minimum(centers - g.lower, top - centers).min(axis=1), mu)
    # d >= (x_n - h(x')) / C_s (BoundaryFunction.lipschitz, as box_wall bounds it):
    # where that reaches cap, cap is the radius bound; elsewhere d may be less
    b = hs.boundary
    exact = (centers[:, 2] - b.height(centers[:, :2])) / b.lipschitz() < cap
    cap[exact] = np.minimum(hs.signed_distance(centers[exact]), cap[exact])
    return _admissible_balls(g, mask, centers, fracs * cap, dmin, 8)


def _oscillation(vals, r):
    return np.linalg.norm(vals - vals.mean(axis=1, keepdims=True), axis=0).mean()


def _bnu_balls(hs, g, mask, nu, samples, seed):
    """The balls of the b^nu estimate, sup r^{-n} int_{Omega cap B_r(x)} |f|
    over x on the boundary and r in (0, nu), on the grid and mask alone."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    rng = np.random.default_rng(seed)
    dmin = 4.0 * max(g.dx)
    xr = (g.lower[0] + nu, g.upper[0] - nu)
    yr = (g.lower[1] + nu, g.upper[1] - nu)
    if xr[0] >= xr[1] or yr[0] >= yr[1]:
        raise NoAdmissibleBall("grid too small for boundary balls of radius nu")
    # per sample x', y' and the radius fraction, scaled as Generator.uniform scales
    u = rng.random((samples, 3))
    yp = np.column_stack([xr[0] + (xr[1] - xr[0]) * u[:, 0], yr[0] + (yr[1] - yr[0]) * u[:, 1]])
    centers = hs.boundary.surface_point(yp)
    return _admissible_balls(g, mask, centers, u[:, 2] * nu, dmin, 4)


def _boundary_mass(dV):
    def mass(vals, r):
        return np.linalg.norm(vals, axis=0).sum() * dV / r**3
    return mass


@dataclass
class NormLedger:
    """Norm bookkeeping for a field or boundary density; unused slots are 0."""

    linf: float = 0.0
    hminus_half: float = 0.0
    hhalf: float = 0.0
    bmo: float = 0.0
    bnu: float = 0.0
    l2: float = 0.0

    def to_dict(self):
        return {k: float(v) for k, v in asdict(self).items()}


@dataclass(frozen=True, eq=False)
class LedgerGeometry:
    """What vbmol2_norm reads of the grid and inside mask alone: the flat
    indices of the inside nodes, the balls of the BMO and b^nu estimates
    (empty where the seminorm finds none), and, only when there is a bnu
    ball, the inside tube nodes (d < rho0) with the inward normal
    grad d = -n at each, on which the normal part lives."""

    inside: np.ndarray
    bmo_balls: list
    bnu_balls: list
    tube: tuple


def ledger_geometry(wall, mask, mu, nu, samples=200, seed=0):
    """The LedgerGeometry of the fields on the grid of the BoxWall wall with
    inside mask mask (ValueError off that grid): the balls of _bmo_balls
    at (mu, samples, seed) and of _bnu_balls at (nu, samples, seed + 1)."""
    if mask.shape != tuple(wall.grid.resolution):
        raise ValueError("the inside mask is not on the wall's grid")
    try:
        bmo = _bmo_balls(wall.hs, wall.grid, mask, mu, samples, seed)
    except NoAdmissibleBall:
        bmo = []
    try:
        bnu = _bnu_balls(wall.hs, wall.grid, mask, nu, samples, seed + 1)
    except NoAdmissibleBall:
        bnu = []
    tube = normal_tube(wall, mask) if bnu else None
    return LedgerGeometry(compact_index(np.flatnonzero(mask), mask.size), bmo, bnu, tube)


def normal_tube(wall, mask):
    """(flat indices, inward normals grad d = -n) of the nodes of mask
    within rho0 of the BoxWall wall (ValueError for a mask off its grid)."""
    if mask.shape != tuple(wall.grid.resolution):
        raise ValueError("the inside mask is not on the wall's grid")
    sel = mask.ravel()[wall.index] & (wall.distance < wall.hs.rho0)
    return wall.index[sel], -wall.normal[sel]


def normal_component_field(v, tube):
    """Scalar field grad d . v on the inside tube nodes, zero elsewhere; tube
    is normal_tube(wall, v.inside_mask), wall a BoxWall of v.grid."""
    index, inward = tube
    out = np.zeros(v.grid.resolution)
    out.flat[index] = np.einsum("pc,cp->p", inward, take_nodes(v.data, index))
    return BoxField(v.grid, out[None], v.inside_mask.copy())


def vbmol2_norm(v, geometry):
    """Assemble the combined ledger: BMO + boundary mass of the normal part + L2.

    geometry is ledger_geometry(wall, v.inside_mask, mu, nu, samples, seed),
    wall a BoxWall of v.grid, which fixes the balls.  A seminorm that finds
    no admissible ball reports 0, and without a bnu ball the normal part
    grad d . v is not formed.  Radii are drawn below mu (BMO) and nu (bnu)
    and dropped below 2.5 max(dx) and 4 max(dx): with mu <= 2.5 max(dx) the
    bmo slot, and with nu <= 4 max(dx) the bnu slot, is 0 for every field,
    bounding nothing.
    """
    dV = float(np.prod(v.grid.dx))
    # |v| and then |v|^2 in the gathered buffer: |v|^2 is v^2 bit for bit
    vals = take_nodes(v.data, geometry.inside)
    np.abs(vals, out=vals)
    linf = float(vals.max()) if vals.size else 0.0
    vals *= vals
    l2 = float(np.sqrt(np.sum(vals) * dV))
    bmo = bnu = 0.0
    if geometry.bmo_balls:
        bmo = _largest_over_balls(v.data, geometry.bmo_balls, _oscillation)
    if geometry.bnu_balls:
        nc = normal_component_field(v, geometry.tube)
        bnu = _largest_over_balls(nc.data, geometry.bnu_balls, _boundary_mass(dV))
    return NormLedger(linf=linf, bmo=bmo, bnu=bnu, l2=l2)
