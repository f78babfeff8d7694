"""Geometry of a graph-perturbed half space.

The domain is Omega = { (x', x_n) : x_n > h(x') } for a compactly supported
C^2 bump h on R^{n-1}.  This module provides the boundary description, the
signed distance d (positive inside Omega), closest-point projection, outward
normals n = (grad' h, -1)/omega with omega = sqrt(1 + |grad' h|^2), the
normal coordinate chart, a C^2 cutoff of the distance, and the mirror
extension of vector fields across the boundary (normal component odd,
tangential component even).

Box grids and sampled fields used throughout the pipeline live here as well,
with the wall geometry of a box (``box_wall``, a ``BoxWall`` its caller
keeps): the height of the graph over its node columns and the distance,
projection and normal at its nodes near the wall, computed in one pass.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NoUniqueProjection, OutOfChart

# boundary presets: name -> the parameters of its constructor, in order; the
# bumps also take an optional curvature_bound
PRESET_PARAMS = {"zero": (), "gaussian-bump": ("a", "s"), "smooth-bump": ("a", "R")}


def plateau(t):
    """C^2 profile in |t|: 1 on |t|<=1/2, 0 on |t|>=3/4, quintic ramp between."""
    s = np.clip((0.75 - np.abs(np.asarray(t, dtype=float))) * 4.0, 0.0, 1.0)
    return s * s * s * (s * (6.0 * s - 15.0) + 10.0)


class _ZeroProfile:
    def jet(self, r):
        z = np.zeros_like(np.asarray(r, dtype=float))
        return z, z, z


class _CompactBump:
    """p(r) = a * exp(1 - 1/(1 - (r/R)^2)) on r < R, zero outside."""

    def __init__(self, a, R):
        self.a = float(a)
        self.R = float(R)

    def jet(self, r):
        """(p, p', p'') at r."""
        r = np.asarray(r, dtype=float)
        t2 = np.clip((r / self.R) ** 2, 0.0, 1.0)
        inside = t2 < 1.0 - 1e-14
        u = np.where(inside, 1.0 - t2, 1.0)
        p = np.where(inside, self.a * np.exp(1.0 - 1.0 / u), 0.0)
        Ru2 = self.R**2 * u**2
        phi1 = -2.0 * r / Ru2
        phi2 = -2.0 / Ru2 - 8.0 * r**2 / (self.R**4 * u**3)
        return p, np.where(inside, p * phi1, 0.0), np.where(inside, p * (phi1**2 + phi2), 0.0)


class _WindowedGaussian:
    """Gaussian a*exp(-r^2/(2 s^2)) tapered to exact zero beyond 4s.

    The taper is a quintic ramp on [2s, 4s]; the product stays C^2 with
    compact support, so the type-(K) bookkeeping applies verbatim.
    """

    def __init__(self, a, s):
        self.a = float(a)
        self.s = float(s)
        self.r0 = 2.0 * self.s
        self.r1 = 4.0 * self.s

    def jet(self, r):
        """(p, p', p'') at r: the Gaussian g times the window w, by the product rule."""
        r = np.asarray(r, dtype=float)
        g = self.a * np.exp(-(r**2) / (2.0 * self.s**2))
        g1 = g * (-r / self.s**2)
        g2 = g * ((r / self.s**2) ** 2 - 1.0 / self.s**2)
        den = self.r1 - self.r0
        t = np.clip((self.r1 - r) / den, 0.0, 1.0)
        w = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
        ramp = (r > self.r0) & (r < self.r1)
        dt = -1.0 / den
        w1 = np.where(ramp, (30.0 * t**4 - 60.0 * t**3 + 30.0 * t**2) * dt, 0.0)
        w2 = np.where(ramp, (120.0 * t**3 - 180.0 * t**2 + 60.0 * t) * dt**2, 0.0)
        return g * w, g1 * w + g * w1, g2 * w + 2.0 * g1 * w1 + g * w2


class BoundaryFunction:
    """Bump h : R^{n-1} -> R with analytic gradient and Hessian.

    Attributes
    ----------
    n : ambient dimension (boundary lives in R^{n-1}); n >= 3
    support_radius : radius R_h with h == 0 outside the closed ball of
        that radius (0.0 for the identically-zero boundary)
    curvature_bound : K with sup |hess h|_inf < K (type-(K) condition)
    """

    def __init__(self, n, height, gradient, hessian, support_radius, curvature_bound):
        if n < 3:
            raise ValueError("ambient dimension must be >= 3")
        self.n = int(n)
        self._height = height
        self._gradient = gradient
        self._hessian = hessian
        self.support_radius = float(support_radius)
        self.curvature_bound = float(curvature_bound)
        self._sup_cache = None

    # -- presets ----------------------------------------------------------
    @classmethod
    def _from_profile(cls, profile, support_radius, n=3, curvature_bound=None):
        """h(x') = p(|x'|) for a radial profile whose jet(r) gives (p, p', p'')."""
        eye = np.eye(n - 1)

        def height(xp):
            return profile.jet(np.linalg.norm(xp, axis=-1))[0]

        def radial(xp):
            """|x'| clamped off 0, p'' and p'/|x'|, whose limit at 0 is p''."""
            r = np.linalg.norm(xp, axis=-1)
            small = r < 1e-12
            rs = np.where(small, 1.0, r)
            _, p1, p2 = profile.jet(r)
            return rs, p2, np.where(small, p2, p1 / rs)

        def gradient(xp):
            return radial(xp)[2][..., None] * xp

        def hessian(xp):
            rs, p2, ratio = radial(xp)
            xhat = xp / rs[..., None]
            outer = xhat[..., :, None] * xhat[..., None, :]
            return (p2 - ratio)[..., None, None] * outer + ratio[..., None, None] * eye

        obj = cls(n, height, gradient, hessian, support_radius,
                  curvature_bound if curvature_bound is not None else 1.0)
        if curvature_bound is None:
            # auto bound: measured sup plus 25% headroom (or 1e-6 when flat)
            sup_h2 = obj.sup_norms()[2]
            obj.curvature_bound = 1.25 * sup_h2 if sup_h2 > 0 else 1e-6
        return obj

    @classmethod
    def zero(cls, n=3):
        return cls._from_profile(_ZeroProfile(), support_radius=0.0, n=n, curvature_bound=1e-6)

    @classmethod
    def smooth_bump(cls, a, R, n=3, curvature_bound=None):
        return cls._from_profile(_CompactBump(a, R), support_radius=R, n=n,
                                 curvature_bound=curvature_bound)

    @classmethod
    def gaussian_bump(cls, a, s, n=3, curvature_bound=None):
        return cls._from_profile(_WindowedGaussian(a, s), support_radius=4.0 * s, n=n,
                                 curvature_bound=curvature_bound)

    @classmethod
    def from_preset(cls, name, n=3, **params):
        """The preset of PRESET_PARAMS called name, e.g. "smooth-bump" -> smooth_bump."""
        if name not in PRESET_PARAMS:
            raise ValueError(f"unknown boundary preset {name!r}; "
                             f"choose from {tuple(PRESET_PARAMS)}")
        args = [params[k] for k in PRESET_PARAMS[name]]
        bound = {"curvature_bound": params.get("curvature_bound")} if args else {}
        return getattr(cls, name.replace("-", "_"))(*args, n=n, **bound)

    # -- evaluation --------------------------------------------------------
    def height(self, xp):
        return self._height(np.asarray(xp, dtype=float))

    def gradient(self, xp):
        return self._gradient(np.asarray(xp, dtype=float))

    def hessian(self, xp):
        return self._hessian(np.asarray(xp, dtype=float))

    def omega(self, xp):
        g = self.gradient(xp)
        return np.sqrt(1.0 + np.sum(g * g, axis=-1))

    def surface_point(self, xp):
        xp = np.asarray(xp, dtype=float)
        return np.concatenate([xp, self.height(xp)[..., None]], axis=-1)

    @property
    def is_flat(self):
        return self.sup_norms()[0] == 0.0 and self.sup_norms()[1] == 0.0

    def sup_norms(self):
        """(sup|h|, sup|grad h|, sup|hess h|_inf) over 2048 radii in 16 directions."""
        if self._sup_cache is not None:
            return self._sup_cache
        R = max(self.support_radius, 1e-9)
        r = np.linspace(0.0, R, 2048)
        ang = np.linspace(0.0, np.pi, 16, endpoint=False)
        pts = np.stack([np.outer(r, np.cos(ang)).ravel(),
                        np.outer(r, np.sin(ang)).ravel()], axis=-1)
        hv = np.abs(self.height(pts)).max()
        gv = np.linalg.norm(self.gradient(pts), axis=-1).max()
        H = self.hessian(pts)
        hessinf = np.abs(H).sum(axis=-1).max()
        self._sup_cache = (float(hv), float(gv), float(hessinf))
        return self._sup_cache

    def lipschitz(self):
        """C_s = 1 + (sup|h| + sup|grad h|): |x_n - h(x')| / C_s <= |d(x)| <= |x_n - h(x')|."""
        hinf, hgrad, _ = self.sup_norms()
        return 1.0 + (hinf + hgrad)

    def validate(self):
        hv, gv, hessinf = self.sup_norms()
        if self.support_radius > 0:
            ring = self.support_radius * (1.0 + 1e-9)
            pts = np.stack([np.cos(np.linspace(0, 2 * np.pi, 64)),
                            np.sin(np.linspace(0, 2 * np.pi, 64))], axis=-1) * ring
            if np.abs(self.height(pts)).max() > 1e-12 or \
               np.linalg.norm(self.gradient(pts), axis=-1).max() > 1e-12:
                raise ValueError("boundary bump not supported in the stated radius")
        if hessinf >= self.curvature_bound:
            raise ValueError(
                f"curvature bound violated: sup|hess|_inf={hessinf:.3g} "
                f">= K={self.curvature_bound:.3g}")


class PerturbedHalfSpace:
    """Domain above the graph of h, with tubular-neighborhood machinery.

    rho0 is constrained by 0 < rho0 < min(reach/2, 1/(2 n (K+1))); within the
    rho0-tube every point has a unique closest boundary point and the signed
    distance is C^2.
    """

    def __init__(self, boundary, rho0=None, reach_estimate=None):
        self.boundary = boundary
        self.n = boundary.n
        K = boundary.curvature_bound
        if reach_estimate is None:
            reach_estimate = 1.0 / ((self.n - 1) * K) if K > 0 else np.inf
        self.reach_estimate = float(reach_estimate)
        cap = min(self.reach_estimate / 2.0, 1.0 / (2.0 * self.n * (K + 1.0)))
        if rho0 is None:
            rho0 = 0.9 * cap
        if not (0.0 < rho0 < cap * (1.0 + 1e-12)):
            raise ValueError(f"rho0={rho0:.4g} outside (0, {cap:.4g})")
        self.rho0 = float(rho0)

    # -- signed distance and projection -------------------------------------
    def _newton_param(self, x, seed, iters=40):
        """Damped Newton on y' -> |x - (y', h(y'))|^2 per row; each row stops on its own step."""
        b = self.boundary
        x = np.asarray(x, dtype=float)
        y = np.array(seed, dtype=float, copy=True)
        step_cap = 0.5 * max(b.support_radius, 1.0)
        live = np.arange(len(y))
        for _ in range(iters):
            if not live.size:
                break
            yl, xp, xn = y[live], x[live, :2], x[live, 2]
            gh = b.gradient(yl)
            Hh = b.hessian(yl)
            res = xn - b.height(yl)
            g = -2.0 * (xp - yl) - 2.0 * res[..., None] * gh
            H = 2.0 * (np.eye(2) + gh[..., :, None] * gh[..., None, :]
                       - res[..., None, None] * Hh)
            # regularize to keep the 2x2 solve positive definite
            tr = H[..., 0, 0] + H[..., 1, 1]
            det = H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]
            bad = (det <= 1e-12) | (tr <= 0)
            lam = np.where(bad, np.abs(tr) + 1.0, 0.0)
            H = H + lam[..., None, None] * np.eye(2)
            det = H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]
            sx = (H[..., 1, 1] * g[..., 0] - H[..., 0, 1] * g[..., 1]) / det
            sy = (-H[..., 1, 0] * g[..., 0] + H[..., 0, 0] * g[..., 1]) / det
            step = np.stack([sx, sy], axis=-1)
            norm = np.linalg.norm(step, axis=-1, keepdims=True)
            step = np.where(norm > step_cap, step * (step_cap / np.maximum(norm, 1e-300)), step)
            y[live] = yl - step
            live = live[norm[:, 0] >= 1e-13]
        return y

    def _closest_param(self, x):
        """Best boundary parameter y' for each point x, Newton + grid fallback.

        The fallback, a 64 x 64 grid over the support square, only runs where
        the squared-distance objective can fail to be convex: (|x_n - h| +
        2 sup|h|) * K >= 1.  For gentler configurations the seeded Newton
        solve finds the unique minimizer.
        """
        from ._fast import closest_on_grid

        b = self.boundary
        x = np.asarray(x, dtype=float)
        flat_in = x.ndim == 1
        x2 = np.atleast_2d(x)
        xp, xn = x2[:, :2], x2[:, 2]

        best = self._newton_param(x2, xp)
        bestd = np.sum((xp - best) ** 2, axis=-1) + (xn - b.height(best)) ** 2
        # seed itself is always a candidate (bounds d by |x_n - h(x')|)
        seedd = (xn - b.height(xp)) ** 2
        take = seedd < bestd
        best[take] = xp[take]
        bestd[take] = seedd[take]

        if not b.is_flat:
            Rh = b.support_radius
            hinf, _, hhess = b.sup_norms()
            zgap = np.abs(xn - b.height(xp))
            maybe_nonconvex = (zgap + 2.0 * hinf) * hhess >= 1.0
            relevant = maybe_nonconvex & \
                (np.linalg.norm(xp, axis=-1) < Rh + np.abs(xn) + hinf + 1e-9)
            if np.any(relevant):
                g = np.linspace(-Rh, Rh, 64)
                gx, gy = np.meshgrid(g, g, indexing="ij")
                cand = np.ascontiguousarray(
                    np.stack([gx.ravel(), gy.ravel()], axis=-1))
                ch = b.height(cand)
                idx = np.flatnonzero(relevant)
                arg = closest_on_grid(np.ascontiguousarray(xp[idx]),
                                      np.ascontiguousarray(xn[idx]), cand, ch)
                cd = (np.sum((xp[idx] - cand[arg]) ** 2, axis=-1)
                      + (xn[idx] - ch[arg]) ** 2)
                spacing2 = (2.0 * Rh / 63) ** 2
                retry = cd < bestd[idx] + spacing2
                rows = idx[retry]
                if rows.size:
                    pol = self._newton_param(x2[rows], cand[arg[retry]], iters=20)
                    pold = (np.sum((xp[rows] - pol) ** 2, axis=-1)
                            + (xn[rows] - b.height(pol)) ** 2)
                    upd = pold < bestd[rows]
                    best[rows[upd]] = pol[upd]
                    bestd[rows[upd]] = pold[upd]
        return (best[0], bestd[0]) if flat_in else (best, bestd)

    def signed_distance(self, x):
        """Signed distance to the boundary graph, positive inside Omega."""
        x = np.asarray(x, dtype=float)
        if self.boundary.is_flat:
            return x[..., 2].copy()
        yp, d2 = self._closest_param(x)
        sign = np.where(x[..., 2] > self.boundary.height(x[..., :2]), 1.0, -1.0)
        d = self._distance(np.atleast_2d(x), np.atleast_2d(yp), np.atleast_1d(d2))
        return sign * d.reshape(np.shape(d2))

    def _distance(self, x, yp, d2):
        """|x - (yp, h(yp))| per row, from d2, its square as _closest_param
        sums it: sqrt(d2), but the rows with d2 below 1e-300, where the
        squares underflow (gaps below about 1e-154 read 0), take the scaled
        norm np.hypot from the same closest parameter."""
        d = np.sqrt(d2)
        tiny = np.flatnonzero(d2 < 1e-300)
        if tiny.size:
            gap = x[tiny] - self.boundary.surface_point(yp[tiny])
            d[tiny] = np.hypot(np.hypot(gap[:, 0], gap[:, 1]), gap[:, 2])
        return d

    def project_to_boundary(self, x, check_reach=True):
        """Closest boundary point pi(x); NoUniqueProjection beyond the reach."""
        x = np.asarray(x, dtype=float)
        yp, d2 = self._closest_param(x)
        if check_reach and np.any(np.sqrt(d2) >= self.reach_estimate):
            raise NoUniqueProjection("point beyond the reach estimate")
        return self.boundary.surface_point(yp)

    def outward_normal(self, p):
        """Unit outward normal (grad' h, -1)/omega at a boundary point."""
        p = np.asarray(p, dtype=float)
        g = self.boundary.gradient(p[..., :2])
        om = np.sqrt(1.0 + np.sum(g * g, axis=-1))
        return np.concatenate([g, -np.ones_like(om)[..., None]], axis=-1) / om[..., None]

    def grad_distance(self, x):
        """grad d(x) = -n(pi x) for x in the tube (constant along normals)."""
        pi = self.project_to_boundary(x, check_reach=False)
        return -self.outward_normal(pi)

    # -- normal coordinates --------------------------------------------------
    def normal_coords_forward(self, z0, eta):
        """Chart (eta', eta_n) |-> (z0' + eta', h) + eta_n grad d at that base point."""
        eta = np.asarray(eta, dtype=float)
        z0 = np.asarray(z0, dtype=float)
        if np.max(np.abs(eta[..., :2])) >= self.rho0 or np.max(np.abs(eta[..., 2])) >= self.rho0:
            raise OutOfChart("eta outside the chart box")
        yp = z0[:2] + eta[..., :2]
        base = self.boundary.surface_point(yp)
        gd = -self.outward_normal(base)
        return base + eta[..., 2:3] * gd

    def normal_coords_inverse(self, z0, x):
        x = np.asarray(x, dtype=float)
        z0 = np.asarray(z0, dtype=float)
        d = self.signed_distance(x)
        if np.max(np.abs(d)) >= self.rho0:
            raise OutOfChart("point outside the chart tube")
        pi = self.project_to_boundary(x, check_reach=False)
        etap = pi[..., :2] - z0[:2]
        if np.max(np.abs(etap)) >= self.rho0:
            raise OutOfChart("projection outside the chart box")
        return np.concatenate([etap, np.asarray(d)[..., None]], axis=-1)

    # -- cutoff ----------------------------------------------------------------
    def cutoff_theta(self, rho, d):
        """theta(d/rho): 1 on |d|<rho/2, 0 on |d|>3 rho/4, C^2 ramp between."""
        if not (0.0 < rho <= self.rho0 / 2.0 + 1e-15):
            raise ValueError("rho must lie in (0, rho0/2]")
        return plateau(np.asarray(d, dtype=float) / rho)


# ---------------------------------------------------------------------------
# Box grids and sampled fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxGrid:
    """Uniform half-open box [lower, upper) with vertex nodes, FFT friendly."""

    lower: tuple
    upper: tuple
    resolution: tuple

    def __post_init__(self):
        if len(self.lower) != 3 or len(self.upper) != 3 or len(self.resolution) != 3:
            raise ValueError("BoxGrid is three dimensional")
        if any(r < 2 for r in self.resolution):
            raise ValueError("resolutions must be >= 2")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("upper must exceed lower")

    @property
    def dx(self):
        return tuple((u - l) / r for l, u, r in zip(self.lower, self.upper, self.resolution))

    def axis(self, i):
        return self.lower[i] + self.dx[i] * np.arange(self.resolution[i])

    def points(self):
        return np.stack(np.meshgrid(self.axis(0), self.axis(1), self.axis(2),
                                    indexing="ij"), axis=-1)

    def node_points(self, index):
        """Coordinates of the nodes at the given flat indices, shape (k, 3)."""
        ijk = np.unravel_index(index, self.resolution)
        return np.stack([self.axis(ax)[ijk[ax]] for ax in range(3)], axis=-1)

    def columns(self):
        """x' of the node columns, shape (nx, ny, 2)."""
        return np.stack(np.meshgrid(self.axis(0), self.axis(1), indexing="ij"), axis=-1)

    def inside(self, hs):
        """Mask of the nodes with x_n > h(x'), h taken once per node column."""
        return self.axis(2) > hs.boundary.height(self.columns())[..., None]


def take_nodes(a, index):
    """The (k, len(index)) values of a, of shape (k,) + box, at the flat node
    indices index, in their order: a[:, mask] is take_nodes(a,
    np.flatnonzero(mask)), the same array without numpy's slow path for a
    boolean index after a slice (25 against 2 ms for a 96^3 field)."""
    return a.reshape(len(a), -1).take(index, axis=1)


def compact_index(index, size):
    """Flat node indices of a box of size nodes as int32 where that holds
    them, to halve what an index set kept across fields takes."""
    return index.astype(np.int32 if size <= np.iinfo(np.int32).max else np.int64, copy=False)


@dataclass
class BoxField:
    """Field sampled on a BoxGrid: data shape (ncomp, nx, ny, nz), row-major.

    inside_mask marks nodes with x_n > h(x'); values outside the domain are
    kept but carry no meaning unless produced by an extension.
    """

    grid: BoxGrid
    data: np.ndarray
    inside_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if self.data.ndim == 3:
            self.data = self.data[None]
        if self.data.shape[1:] != tuple(self.grid.resolution):
            raise ValueError("data shape does not match grid resolution")
        if self.data.shape[0] not in (1, 3):
            raise ValueError("fields carry 1 or 3 components")
        if self.inside_mask is None:
            self.inside_mask = np.ones(self.data.shape[1:], dtype=bool)

    @property
    def ncomp(self):
        return self.data.shape[0]

    def inside_values(self):
        """data[:, inside_mask], shape (ncomp, k), taken by flat index."""
        return take_nodes(self.data, np.flatnonzero(self.inside_mask))

    @classmethod
    def sample(cls, grid, hs, fn, ncomp=1):
        """Sample fn(points) on the grid, zeroing values outside Omega."""
        mask = grid.inside(hs)
        vals = np.asarray(fn(grid.points()), dtype=np.float64)
        if ncomp == 1:
            data = vals[None] if vals.ndim == 3 else vals
        else:
            data = np.moveaxis(vals, -1, 0) if vals.shape[-1] == ncomp else vals
        data = data * mask[None]
        return cls(grid, data, mask)


@dataclass(frozen=True, eq=False)
class BoxWall:
    """Field-independent wall geometry of one half space hs on one box grid.

    ``height`` is h(x') on the (nx, ny) node columns.  The other arrays run
    over the wall nodes, those with -rho0 < d < width (width >= rho0): flat
    index into the box, coordinates, signed distance, closest boundary point
    and the outward normal there.
    """

    hs: PerturbedHalfSpace
    grid: BoxGrid
    width: float
    height: np.ndarray
    index: np.ndarray
    points: np.ndarray
    distance: np.ndarray
    closest: np.ndarray
    normal: np.ndarray

    def depth(self):
        """x_n - h(x') at every box node."""
        return self.grid.axis(2) - self.height[..., None]


def box_wall(hs, grid, width=0.0):
    """The BoxWall of hs on grid out to width: the nodes with -rho0 < d <
    max(width, rho0).  The Lipschitz bound of BoundaryFunction.lipschitz
    picks the candidates; each takes one closest-point solve, and d follows
    from its projection.
    """
    width = max(width, hs.rho0)
    b = hs.boundary
    height = b.height(grid.columns())
    cs = b.lipschitz()
    zgap = grid.axis(2) - height[..., None]
    cand = np.flatnonzero((zgap > -hs.rho0 * cs) & (zgap < width * cs))
    del zgap  # box-sized; freed before the projection for a lower peak RSS
    pts = grid.node_points(cand)
    pi = hs.project_to_boundary(pts, check_reach=False)
    # d^2 summed as _closest_param sums it: signed_distance's d for the same solve
    d2 = np.sum((pts[:, :2] - pi[:, :2]) ** 2, axis=-1) + (pts[:, 2] - pi[:, 2]) ** 2
    d = hs._distance(pts, pi[:, :2], d2)
    d = np.where(pts[:, 2] > height.ravel()[cand // grid.resolution[2]], d, -d)
    keep = (d > -hs.rho0) & (d < width)
    return BoxWall(hs, grid, width, height, cand[keep], pts[keep], d[keep], pi[keep],
                   hs.outward_normal(pi[keep]))


def interp_masked(field, pts, scale=None):
    """Trilinear interpolation honoring the inside mask.

    Corner weights at masked-out nodes are dropped and the rest renormalized;
    points whose entire cell is outside evaluate to zero.  Mask and data are
    gathered by flat index, (i ny + j) nz + k plus each corner's offset.
    scale, when given, is (index, values): the field interpolated is then
    data times values at the sorted flat node indices index and 0 at every
    other node, bit for bit as if that product had been formed on the box
    (extend_field's theta v).
    Returns array of shape (ncomp, npts).
    """
    g = field.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    npts = pts.shape[0]
    _, ny, nz = g.resolution
    flat = np.zeros(npts, dtype=np.intp)
    frac = []
    for ax in range(3):
        t = (pts[:, ax] - g.lower[ax]) / g.dx[ax]
        i0 = np.clip(np.floor(t).astype(int), 0, g.resolution[ax] - 2)
        flat = flat * g.resolution[ax] + i0
        frac.append(np.clip(t - i0, 0.0, 1.0))
    mask = field.inside_mask.reshape(-1)
    data = field.data.reshape(field.ncomp, -1)
    out = np.zeros((field.ncomp, npts))
    wsum = np.zeros(npts)
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                ii = flat + ((cx * ny + cy) * nz + cz)
                w = (np.where(cx, frac[0], 1 - frac[0])
                     * np.where(cy, frac[1], 1 - frac[1])
                     * np.where(cz, frac[2], 1 - frac[2]))
                w = w * mask.take(ii)
                vals = data.take(ii, axis=1)
                if scale is not None:
                    at = np.minimum(np.searchsorted(scale[0], ii), len(scale[0]) - 1)
                    hit = scale[0][at] == ii
                    vals = np.where(hit, vals * scale[1][at], 0.0)
                out += w[None] * vals
                wsum += w
    return np.divide(out, wsum, out=np.zeros_like(out), where=wsum > 1e-12)


def extend_field(wall, v, rho):
    """Mirror extension of theta v across the BoxWall wall of v's grid into
    the rho-tube, theta = wall.hs.cutoff_theta(rho, d) of the signed
    distance: the extension of the volume potential's source.  It is
    returned at the nodes it reaches, as (index, values): the sorted flat
    indices of the outside nodes within rho of the wall and the (ncomp,
    len(index)) extension there.  Inside Omega the extension is v, and 0
    beyond the tube.  ValueError for v off wall's grid or rho off (0, rho0/2].

    At an outside point x in the tube the value is taken from the mirror
    point x* = 2 pi(x) - x with the component along grad d(pi x) flipped
    (odd) and the tangential part kept (even):
        vbar(x) = u(x*) - 2 (u(x*) . grad d) grad d,  u = theta v.
    theta vanishes off the wall nodes, so u is read at the mirror cells'
    corners (interp_masked's scale), with no box-sized theta v.
    """
    if v.grid != wall.grid:
        raise ValueError("the field is not on the wall's grid")
    theta = (wall.index, wall.hs.cutoff_theta(rho, wall.distance))
    sel = (np.abs(wall.distance) < rho) & ~v.inside_mask.ravel()[wall.index]
    index = wall.index[sel]
    if not index.size:
        return index, np.zeros((v.ncomp, 0))
    pi = wall.closest[sel]
    gd = -wall.normal[sel]
    vstar = interp_masked(v, 2.0 * pi - wall.points[sel], theta)
    normal_part = np.einsum("cp,pc->p", vstar, gd)
    return index, vstar - 2.0 * normal_part[None] * gd.T
