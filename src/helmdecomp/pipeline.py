"""End-to-end decomposition v = v0 + grad q1 + grad q2 on the truncated box.

Stages:
  1. extend v across the boundary (normal part odd, tangential even, with
     the distance cutoff taming the tube seam) and form the free-space
     volume potential q1 with Delta q1 = div vbar, so w = v - grad q1 is
     divergence free inside the domain;
  2. take the boundary trace g = w . n by Richardson extrapolation along
     inward normals;
  3. solve the Neumann problem for q2 via the boundary series, sample
     grad q2 on the box (plane FFT at the safe nodes, each near node
     extrapolated along its own box column), and set v0 = w - grad q2.

The reconstruction v = v0 + grad q1 + grad q2 is exact by construction;
accuracy shows up in how small div v0 and the boundary trace of v0 are.

Spectral solves run on 2x zero-padded grids with the |xi|^{-2} symbol,
emulating free-space convolution up to the documented image-charge error.

Field files are a JSON header {dims, lower, upper, resolution, components,
dtype:"f64le", order:"row-major", payload} plus a raw little-endian
float64 sidecar; reruns with fixed seeds are byte identical.
"""

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _fast
from .errors import (ConfigError, ExtrapolationUnstable, NonDecayingInput, NotContractive,
                     ZeroFrequencyIll)
from .geometry import (BoxField, BoxGrid, box_wall, compact_index, extend_field, interp_masked,
                       take_nodes)
from .layers import SurfaceQuadrature
from .neumann import estimate_contraction, smallness_constants, solve_density
from .sobolev import (_RING_TOL, BoundaryDensity, NormLedger, hs_norm_fourier, ledger_geometry,
                      th_pull, vbmol2_norm)

# relative tolerance of the two-shell trace extrapolation in normal_trace
_TRACE_RTOL = 0.05
# wall probes of _residual_normal: count and the seed of their positions
_NORMAL_PROBES = 100
_NORMAL_SEED = 0
# the z passes of _free_space_gradient: one thread per CPU and per this many
# bytes of its half spectrum (each ufunc on a strided block takes numpy
# buffers of up to 0.25 MB), and their block buffers, one per thread, hold
# about 1 / _Z_SHARE of the spectrum together
_Z_THREAD_BYTES = 1 << 23
_Z_SHARE = 4
# time of one series term on one node of its N x N lattice, in units of one
# direct bump-source pair (grad_q2_sites): 2.5 to 3.8 on the 64^3 and 3.0
# to 5.2 on the 32^3 curved boxes of the benchmark, on 1 or 2 CPUs
_SERIES_COST = 3.0


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the decomposition stages.  quad_extent is a lower bound on
    the quadrature lattice's extent and quad_extent / quad_res its asked
    spacing; decompose puts the lattice on the box columns."""

    rho: float
    quad_extent: float
    quad_res: int
    mu: float = 0.2
    nu: float = 0.05
    tol: float = 1e-8
    kmax: int = 64
    seed: int = 0
    samples: int = 200
    # the last plan of decompose (frozen, so it cannot go stale); not a value
    _plan: object = field(default=None, init=False, repr=False, compare=False)


@dataclass
class DecompositionResult:
    """One decompose: v = v0 + grad q1 + grad q2, each field 0 off the inside
    mask, with the trace, the ledgers, the residuals and the lattice used."""

    v: BoxField
    v0: BoxField
    grad_q1: BoxField
    grad_q2: BoxField
    trace_g: BoundaryDensity
    ledger_v: NormLedger
    ledger_v0: NormLedger
    ledger_gradq: NormLedger
    residual_div: float
    residual_normal: float
    smallness: dict = field(default_factory=dict)
    # the quadrature lattice used: extent, resolution, stride in box spacings;
    # and how grad q2 summed the bump sources (GradQ2Sites.report)
    lattice: dict = field(default_factory=dict)


@dataclass
class ReportEntry:
    name: str
    value: float
    tol: float

    @property
    def passed(self):
        return bool(np.isfinite(self.value) and abs(self.value) <= self.tol)

    def to_dict(self):
        return {"name": self.name, "value": float(self.value),
                "tol": float(self.tol), "passed": self.passed}


@dataclass
class TraceReport:
    """Named residuals with tolerances; ok only when every entry passes."""

    entries: list = field(default_factory=list)

    def add(self, name, value, tol):
        self.entries.append(ReportEntry(name, value, tol))

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def to_dict(self):
        return {"ok": self.ok, "entries": [e.to_dict() for e in self.entries]}


def _sup(a, mask):
    """max |a| over the nodes of mask (0 for none), by masked max and min
    reductions: the value of np.abs(a[:, mask]).max() without gathering the
    inside values."""
    return float(max(a.max(where=mask, initial=0.0), -a.min(where=mask, initial=0.0)))


def _check_box_decay(v):
    """NonDecayingInput when |v| on an inside node of a side face or the top
    face exceeds _RING_TOL sup |v| over the inside nodes; the bottom face
    sits outside the domain anyway.  Both maxima are masked reductions, of
    the box and of the five face slices.  ValueError when an inside value
    is NaN or infinite: no comparison with sup |v| would hold then."""
    data, inside = v.data, v.inside_mask
    vmax = _sup(data, inside)
    if not np.isfinite(vmax):
        raise ValueError("the field holds a NaN or infinite value inside the domain")
    if vmax == 0.0:
        return
    faces = ((0, slice(None)), (-1, slice(None)), (slice(None), 0), (slice(None), -1),
             (Ellipsis, -1))
    ring = max(_sup(data[(slice(None),) + f], inside[f]) for f in faces)
    if ring > _RING_TOL * vmax:
        raise NonDecayingInput("field does not decay at the box boundary")


def _extended_source(wall, v, rho):
    """(src, k0, k1): the source of the volume potential, v inside plus the
    mirror extension of theta v (theta the tube cutoff) at the outside tube
    nodes; k1 the lowest plane of the domain slab and k0 <= k1 the lowest
    plane src can be nonzero on, both from the mask and the wall alone."""
    mask = v.inside_mask
    tube, mirror = extend_field(wall, v, rho)
    # one box pass, then the mirror values at the outside tube nodes
    src = np.where(mask, v.data, 0.0)
    src.reshape(v.ncomp, -1)[:, tube] = mirror
    nz = v.grid.resolution[2]
    hit = mask.reshape(-1, nz).any(axis=0)
    k1 = int(np.argmax(hit)) if hit.any() else nz
    # the planes of the outside nodes extend_field writes
    k0 = min(k1, int((tube % nz).min())) if tube.size else k1
    return src, k0, k1


def volume_potential_grad(wall, v, rho):
    """grad q1 with Delta q1 = div vbar, vbar the cutoff mirror extension over wall.

    Restricted to the domain this solves the volume-potential equation for
    v; it is 0 off the inside mask, and linear in v.
    """
    _check_box_decay(v)
    src, k0, k1 = _extended_source(wall, v, rho)
    out = _free_space_gradient(src, v.grid.dx, k0, k1)
    out *= v.inside_mask
    return BoxField(v.grid, out, v.inside_mask.copy())


def _free_space_gradient(src, dx, k0, k1):
    """grad q on the box for Delta q = div src, src of shape (3, n0, n1, n2)
    and 0 below z-plane k0: the result on the planes from k1 >= k0, 0 below.

    A Hockney zero-padded convolution: the |xi|^{-2} symbol on the doubled
    grid, whose values are those of the real part of the full complex
    padded transforms, on a half spectrum of shape (n0 + 1, 2 n1, 2 n2).
    x is the real axis and z the full one, transformed last going forward
    and first coming back, so the x and y transforms run over the planes
    from k0 going forward and from k1 coming back.  The padded z-axis is
    circular and the solve commutes with a shift along it: plane k0 + j
    sits at z-index j.

    The real part keeps the Hermitian part of xi_c xi_d / |xi|^2, which for
    c != d vanishes where exactly one of axes c, d sits at its Nyquist
    index.  So with xh = xi off Nyquist, 0 on it, and xn = xi on Nyquist, 0
    off it, component c is (xh_c sum_d xh_d F_d + xn_c sum_d xn_d F_d) /
    |xi|^2, F_d the transform of src[d]; the second sum is needed only on
    the axis-c Nyquist plane (the edge of c).  The half axis keeps
    fftfreq's negative sign at its Nyquist index.

    xh_0 commutes with the y and z transforms, and xh_1 with the z one.  So
    the forward pass sums S = xh_1 T1(X_1) + T1(xh_0 X_0) (X_d the x
    transform of src[d]) before one z transform, beside component 2's own,
    scaled by xh_2 after it; the inverse takes one z inverse of P = sum_d
    xh_d F_d / |xi|^2 for components 0 and 1, and one y inverse of that for
    component 0.  The edges come from small slice transforms: F_2's z
    Nyquist plane is read off its own transform, F_1's y Nyquist plane is a
    z transform of that plane of T1(X_1), and F_0's x Nyquist plane a 2-D
    transform of that plane of X_0; each is inverted alone and written over
    its plane after the shared passes: 4 z passes, 16 axis-sized passes.

    One buffer holds the half spectrum z-major, as a (2 n2, 2 n1, n0 + 1)
    array, so that x is contiguous and a run of z-indices one slab: the
    rows of T1(X_2) and of S sit in its two halves.  The z passes run on one
    thread per CPU and per _Z_THREAD_BYTES of the spectrum, each with one
    CPU and its own block buffer, allocated here, in blocks of
    ceil(2 n1 / (_Z_SHARE threads)) y rows (thread t takes blocks t, t +
    threads, ...), each written over the block it was made from.  So the
    buffers beside the spectrum hold about 1 / _Z_SHARE of it, and the
    threads' ufunc buffers under 1 / 32, whatever the box and the CPU count.
    Products with real factors run on float views.

    src is overwritten with the result, which is returned.  The transforms
    run through scipy.fft on every CPU this process may use; scipy is
    imported here, so that importing the package stays cheap.
    """
    import scipy.fft

    n = src.shape[1:]
    m0, m1, d = n[2] - k0, n[2] - k1, k1 - k0
    if m1 == 0:
        src.fill(0.0)
        return src
    half = (n[0] + 1, 2 * n[1], 2 * n[2])
    workers = len(os.sched_getaffinity(0))
    # per axis a: xi, xn[a] its Nyquist entry (index n[a]), and xi with and without
    # it, broadcastable on float views in the buffer's (z, y, x) order (x in pairs)
    xi = [2.0 * np.pi * np.fft.fftfreq(2 * n[a], d=dx[a])[: half[a]] for a in range(3)]
    xn = [xi[a][n[a]] for a in range(3)]
    x = [xi[0].repeat(2)[None, None], xi[1][None, :, None], xi[2][:, None, None]]
    xh = [np.where(x[a] == xn[a], 0.0, x[a]) for a in range(3)]
    threads = max(1, min(workers, half[1], 16 * math.prod(half) // _Z_THREAD_BYTES))
    step = -(-half[1] // (_Z_SHARE * threads))
    rows = [slice(j, min(j + step, half[1])) for j in range(0, half[1], step)]

    def over(t, a, axis, cpus=workers):  # t(a) over a, in place where scipy can
        out = t(a, axis=axis, overwrite_x=True, workers=cpus)
        if not np.may_share_memory(out, a):
            a[...] = out
        return a

    def rfft(c):
        return scipy.fft.rfft(src[c][..., k0:].T, n=2 * n[0], axis=2, workers=workers)

    def scale(a, c, out=None):  # xh_c a, over a or into out
        out = a if out is None else out
        return np.multiply(a.view(float), xh[c], out=out.view(float)).view(complex)

    def rows_of(X, out):  # T1(X) over out, the y-axis padded in place
        out[:, : n[1]] = X
        out[:, n[1]:] = 0.0
        over(scipy.fft.fft, out, 1)

    # forward, on the z-indices of the planes from k0: A = T1(X_1), then
    # B = S and A = T1(X_2); f0 and f1 keep the Nyquist planes S zeroes
    W = np.empty(half[::-1], dtype=complex)
    A, B = W[:m0], W[n[2]: n[2] + m0]
    rows_of(rfft(1), A)
    f1 = scipy.fft.fft(A[:, n[1]], n=half[2], axis=0, workers=workers).T
    X = rfft(0)
    f0 = scipy.fft.fft2(X[..., n[0]], s=half[:0:-1], workers=workers).T
    rows_of(scale(X, 0), B)
    del X
    B += scale(A, 1)
    rows_of(rfft(2), A)
    # P = (xh_2 T2(A) + T2(B)) / |xi|^2 over W, T2(A) in place, T2(B) and then
    # |xi|^2 in the buffer; f2 is F_2 on its z Nyquist plane.  P vanishes at
    # xi = 0, which no Nyquist plane holds: q has no mean mode
    f2 = np.empty(half[:2], dtype=complex)
    bufs = [np.empty((half[2], step, half[0]), dtype=complex) for _ in range(threads)]

    def forward(t):
        for js in rows[t::threads]:
            F, Pb = bufs[t][:, : js.stop - js.start], W[:, js]
            F[:m0] = B[:, js]
            F[m0:] = 0.0
            over(scipy.fft.fft, F, 0, 1)
            Pb[m0:] = 0.0
            f2[:, js] = over(scipy.fft.fft, Pb, 0, 1)[n[2]].T
            scale(Pb, 2)
            Pb += F
            k2 = np.add(x[0] ** 2 + x[1][:, js] ** 2, x[2] ** 2, out=F.view(float))
            if js.start == 0:
                k2[0, 0, :2] = 1.0
            np.divide(Pb.view(float), k2, out=Pb.view(float))

    _fast.map_threads(forward, range(threads))
    # the edges xn_c sum_d xn_d F_d / |xi|^2, in (x, y, z) order: F_c's whole
    # plane, and of each other F_d the line where axis d is at Nyquist too
    edge0 = xn[0] * f0
    edge0[n[1]] += xn[1] * f1[n[0]]
    edge0[:, n[2]] += xn[2] * f2[n[0]]
    edge0 *= xn[0] / (xn[0] ** 2 + xi[1][:, None] ** 2 + xi[2] ** 2)
    edge1 = xn[1] * f1
    edge1[n[0]] += xn[0] * f0[n[1]]
    edge1[:, n[2]] += xn[2] * f2[:, n[1]]
    edge1 *= xn[1] / (xi[0][:, None] ** 2 + xn[1] ** 2 + xi[2] ** 2)
    edge2 = xn[2] * f2
    edge2[n[0]] += xn[0] * f0[:, n[2]]
    edge2[:, n[1]] += xn[1] * f1[:, n[2]]
    edge2 *= xn[2] / (xi[0][:, None] ** 2 + xi[1] ** 2 + xn[2] ** 2)

    # inverse: Q = T2^-1(P) for components 0 and 1 in place, and T2^-1 of
    # component 2's xh_2 P with its edge beside it, on the planes from k1
    def inverse(t):
        for js in rows[t::threads]:
            G = scale(W[:, js], 2, bufs[t][:, : js.stop - js.start])
            G[n[2]] = edge2[:, js].T
            over(scipy.fft.ifft, G, 0, 1)
            over(scipy.fft.ifft, W[:, js], 0, 1)
            W[m0: m0 + m1, js] = G[d: m0]

    _fast.map_threads(inverse, range(threads))
    del bufs
    Q, Z = W[d: m0], W[m0: m0 + m1]
    src[..., :k1] = 0.0

    def finish(G, c):
        src[c][..., k1:] = scipy.fft.irfft(G, n=2 * n[0], axis=2, workers=workers)[..., : n[0]].T

    finish(over(scipy.fft.ifft, Z, 1)[:, : n[1]], 2)
    # component 1 in the place of component 2, then component 0 in Q's
    G = scale(Q, 1, Z)
    G[:, n[1]] = scipy.fft.ifft(edge1, axis=1)[:, d: m0].T
    finish(over(scipy.fft.ifft, G, 1)[:, : n[1]], 1)
    G = scale(over(scipy.fft.ifft, Q, 1)[:, : n[1]], 0)
    G[..., n[0]] = scipy.fft.ifft(scipy.fft.ifft(edge0, axis=1)[:, d: m0], axis=0)[: n[1]].T
    finish(G, 0)
    return src


def _shell_normals(hs, w, yp):
    """Two-shell Richardson estimate of the boundary trace of w . n.

    Samples w . n along the inward normals from the graph over yp at 3 and
    6 box spacings and extrapolates linearly to the wall.  Returns (trace
    estimate, difference of the two shell values).
    """
    base = hs.boundary.surface_point(yp)
    nrm = hs.outward_normal(base)
    dz = max(w.grid.dx)
    f1 = np.einsum("cp,pc->p", interp_masked(w, base - 3.0 * dz * nrm), nrm)
    f2 = np.einsum("cp,pc->p", interp_masked(w, base - 6.0 * dz * nrm), nrm)
    return 2.0 * f1 - f2, f1 - f2


def normal_trace(hs, w):
    """Boundary trace of w . n by two-shell Richardson along inward normals.

    Returns (g on the box x'-lattice flagged on-graph, sup |g|, pullback
    Hdot^{-1/2} of g).  Raises ExtrapolationUnstable when the shells
    disagree by more than 10x _TRACE_RTOL relative to sup |w|.
    """
    grid = w.grid
    extent = square_section_width(grid)
    vals, diff = _shell_normals(hs, w, grid.columns().reshape(-1, 2))
    scale = _sup(w.data, w.inside_mask)
    gap = float(np.abs(diff).max())
    if scale > 0 and gap > 10.0 * _TRACE_RTOL * scale:
        raise ExtrapolationUnstable(f"trace shells disagree by {gap:.3e}")
    g = BoundaryDensity(extent, vals.reshape(grid.resolution[:2]), on_graph=True)
    linf = float(np.abs(vals).max())
    try:
        hminus = hs_norm_fourier(th_pull(g), -0.5, check_decay=False, origin_rings=4)
    except ZeroFrequencyIll:
        # nonvanishing mean on an unbounded boundary: the negative-order
        # norm is genuinely infinite at this truncation
        hminus = float("inf")
    return g, linf, hminus


def resample_density(g, q, cols):
    """g, a density on the box columns, on the lattice of quadrature q whose
    node j sits on box column cols[j] in both x'-axes: a copy of g's values
    there, 0 at the nodes off the box."""
    on = (cols >= 0) & (cols < g.res)
    values = np.zeros((len(cols),) * 2)
    values[np.ix_(on, on)] = g.values[np.ix_(cols[on], cols[on])]
    return BoundaryDensity(q.extent, values, on_graph=g.on_graph)


def square_section_width(grid):
    """Side L of the box x'-section, whose columns are then the lattice
    [-L/2, L/2)^2 of a BoundaryDensity; ValueError unless the section is a
    square centred on x' = 0 with equal x and y resolutions."""
    (x0, y0, _), (x1, y1, _) = grid.lower, grid.upper
    width = x1 - x0
    off = max(abs(y1 - y0 - width), abs(x0 + x1), abs(y0 + y1))
    if grid.resolution[0] != grid.resolution[1] or off > 1e-12 * width:
        raise ValueError("the box x'-section is not a square centred on x' = 0")
    return width


def _column_lattice(grid, extent, res):
    """(extent, m, p, shift) of the quadrature lattice on the box columns:
    spacing extent / res rounded up to p box spacings (p odd for an odd
    column count n), and the fewest m nodes spanning extent with m p - n
    even, so every p-th column of the centred box is a node: node j sits on
    box column shift + p j in both x'-axes."""
    width = square_section_width(grid)
    n = grid.resolution[0]
    # both ceilings forgive roundoff in the ratios of aligned configs
    p = math.ceil(extent * n / (res * width) * (1.0 - 1e-12))
    if n % 2 and p % 2 == 0:
        p += 1
    m = math.ceil(extent * n / (p * width) * (1.0 - 1e-12))
    if (m * p - n) % 2:
        m += 1
    shift = (n - m * p) // 2
    return m * p * width / n, m, p, shift


@dataclass(frozen=True, eq=False)
class GradQ2Sites:
    """Where _sample_grad_q2 sums and extrapolates on one box grid, inside
    mask and quadrature q, which no field changes (grad_q2_sites).  Flat
    node indices: low, the safe nodes below delta_min, which take the direct
    sum; planes, the box z-planes of the safe nodes at or above it, which
    take the plane FFT; bump, those of these safe nodes where the bump
    sources are summed directly; and per near node its index, the two safe
    nodes of its column it extrapolates from and the weight of the upper
    one.  mask is the flat inside mask.  flat is the _fast.SeriesGeometry
    of the flat sources over the planes, span the range of lattice indices,
    in both axes, that holds every bump source (None without one), and
    series the SeriesGeometry of the bump sources on that square when the
    series sums them, else None."""

    q: object
    grid: object
    mask: np.ndarray
    low: np.ndarray
    planes: np.ndarray
    bump: np.ndarray
    near: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    weight: np.ndarray
    flat: _fast.SeriesGeometry
    span: slice
    series: _fast.SeriesGeometry

    def report(self):
        """bump_sum, how the bump sources are summed ("series", "direct", or
        "none" without one), the largest series order and how many planes
        the series left to the direct sum as not converged (both 0 without
        a series)."""
        if self.series is None:
            return {"bump_sum": "none" if self.span is None else "direct", "series_order": 0,
                    "series_fallback_planes": 0}
        orders = self.series.orders
        return {"bump_sum": "series", "series_order": int(orders.max()),
                "series_fallback_planes": int(np.count_nonzero(orders == 0))}


def grad_q2_sites(q, wall, mask, cols):
    """The GradQ2Sites of _sample_grad_q2 on the grid of wall, a BoxWall of
    q.hs out to q.delta_min (ValueError if not), with the lattice node j on
    box column cols[j] in both x'-axes: mask nodes within delta_min of the
    wall are near, the others safe; a near node extrapolates linearly in x_n
    from the safe node of its column nearest x_n - h(x') = 1.5 delta_min and
    the one above it nearest 3 delta_min.  ConfigError if the column ends below.

    The bump sources take the series in source height on the planes where
    it converges when _SERIES_COST sum (K + 1) N^2 over those planes, for
    series order K and lattice size N, is below the direct pairs it spares,
    and the direct sum everywhere else."""
    if wall.hs is not q.hs or wall.width < q.delta_min:
        raise ValueError("the wall is not of q's half space out to delta_min")
    delta, grid, nz = q.delta_min, wall.grid, wall.grid.resolution[2]
    near = wall.index[mask.ravel()[wall.index] & (wall.distance < delta)]
    safe = mask.copy()
    safe.flat[near] = False
    z = grid.axis(2)
    index = np.flatnonzero(safe)
    high = z[index % nz] >= delta
    low = index[~high]
    planes = np.flatnonzero(safe.reshape(-1, nz).any(axis=0) & (z >= delta))
    bump, span, series = index[high], None, None
    dx, n = grid.dx[0], grid.resolution[0]
    flat = _fast.series_geometry(z[planes], np.zeros((q.res, q.res)), cols, dx, n)
    # the bump sources, on the least square of lattice indices that holds them
    j0, j1 = np.divmod(np.flatnonzero(q.nodes[:, 2] != 0.0), q.res)
    if not j0.size:
        bump = bump[:0]
    else:
        span = slice(int(min(j0.min(), j1.min())), int(max(j0.max(), j1.max())) + 1)
        h = q.nodes[:, 2].reshape(q.res, q.res)[span, span]
        geometry = _fast.series_geometry(z[planes], h, cols[span], dx, n)
        orders = geometry.orders
        taken = orders[np.searchsorted(planes, bump % nz)] > 0
        spared = np.count_nonzero(h) * np.count_nonzero(taken)
        if _SERIES_COST * np.sum(orders[orders > 0] + 1) * geometry.size**2 < spared:
            bump, series = bump[~taken], geometry
    bump = compact_index(bump, mask.size)
    col, k = np.divmod(near, nz)
    ok = safe.reshape(-1, nz)[col]
    del safe, index, high
    # x_n >= h(x') - dz/2 + t first holds at the node nearest x_n - h(x') = t
    lift = wall.height.ravel()[col, None] - 0.5 * grid.dx[2]
    k1 = np.argmax(ok & (z >= lift + 1.5 * delta), axis=1)
    two = ok & (z >= lift + 3.0 * delta) & (np.arange(nz) > k1[:, None])
    k2 = np.argmax(two, axis=1)
    if not two[np.arange(len(near)), k2].all():
        raise ConfigError("a box column ends below 3 delta_min over the wall")
    near, lower, upper = (compact_index(i, mask.size) for i in (near, col * nz + k1, col * nz + k2))
    return GradQ2Sites(q, grid, mask.ravel(), low, planes, bump, near, lower, upper,
                       (k - k1) / (k2 - k1), flat, span, series)


def _sample_grad_q2(sites, sol):
    """grad q2 on the box of sites (GradQ2Sites), 0 off its mask, from a
    decaying density (so no tail closure).  The safe nodes at x_n >=
    delta_min take _fast.gradslp_series with the records sites keeps, once
    over the flat sources (the bump ones' weights zeroed), a series of one
    term, and once over the bump sources on their planes of the series; at
    sites.bump these take the direct sum, so each source is summed once.
    Lower safe nodes (a dip makes them) take the direct sum over all
    sources.  Each near node is then extrapolated from its column."""
    q, grid = sites.q, sites.grid
    wg = np.ascontiguousarray(q.weights * q.match(sol.density))
    c = -q.ctx.grad_const
    n, nz = grid.resolution[0], grid.resolution[2]
    out = np.zeros((3, sites.mask.size))
    if sites.low.size:
        out[:, sites.low] = _fast.gradslp_sum(grid.node_points(sites.low), q.nodes, wg, c).T
    bump = q.nodes[:, 2] != 0.0
    flat = np.where(bump, 0.0, wg).reshape(q.res, q.res)
    # whole planes (near nodes replaced, off-mask ones zeroed below), written by runs
    planes = sites.planes
    buf = np.zeros((len(planes), n, n, 3))
    _fast.gradslp_series(sites.flat, flat, c, buf)
    if sites.series is not None:
        span = sites.span
        _fast.gradslp_series(sites.series, wg.reshape(q.res, q.res)[span, span], c, buf)
    buf = buf.reshape(len(planes), -1, 3)
    starts = np.flatnonzero(np.diff(planes, prepend=-2) != 1)
    for i, j in zip(starts, np.append(starts[1:], len(planes))):
        out.reshape(3, -1, nz)[:, :, planes[i]: planes[j - 1] + 1] = buf[i:j].T
    del buf
    if sites.bump.size:
        out[:, sites.bump] += _fast.gradslp_sum(grid.node_points(sites.bump), q.nodes[bump],
                                                wg[bump], c).T
    w = sites.weight
    out[:, sites.near] = out[:, sites.lower] * (1.0 - w) + out[:, sites.upper] * w
    out *= sites.mask
    return out.reshape((3,) + tuple(grid.resolution))


def _inner_slab(wall):
    """(slab, inner) of _residual_div: the inner nodes of wall's grid, 2 cells
    or more in from the box faces and more than 3 max(dx) above the wall, as
    a mask on slab, the smallest sub-box (a tuple of slices) that holds them."""
    inner = np.zeros(wall.grid.resolution, dtype=bool)
    inner[2:-2, 2:-2, 2:-2] = True
    inner &= wall.depth() > 3.0 * max(wall.grid.dx)
    slab = []
    for ax in range(3):
        hit = np.flatnonzero(inner.any(axis=tuple(b for b in range(3) if b != ax)))
        slab.append(slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0))
    slab = tuple(slab)
    return slab, inner[slab].copy()


def _residual_div(v0, ref, inner_slab):
    """RMS interior divergence of v0, relative to the Jacobian scale of ref,
    the input field, so that a vanishing v0 reports a vanishing residual.

    The divergence takes 4th-order central differences, the Jacobian the
    2nd-order ones of np.gradient, each only on the slab of inner_slab,
    _inner_slab of a BoxWall of v0.grid, which keeps 2 cells from the box faces.
    """
    g = v0.grid
    slab, inner = inner_slab
    if not inner.any():
        return 0.0

    def at(a, axis, k):
        # a on the slab moved k nodes along axis
        s = list(slab)
        s[axis] = slice(slab[axis].start + k, slab[axis].stop + k)
        return a[tuple(s)]

    # per component (8 (f[+1] - f[-1]) - (f[+2] - f[-2])) / (12 dx), in place
    acc, t, u = np.zeros(inner.shape), np.empty(inner.shape), np.empty(inner.shape)
    for c in range(3):
        f = v0.data[c]
        np.subtract(at(f, c, 1), at(f, c, -1), out=t)
        t *= 8.0
        t -= np.subtract(at(f, c, 2), at(f, c, -2), out=u)
        t /= 12.0 * g.dx[c]
        acc += t
    dnorm = float(np.sqrt(np.mean(acc[inner] ** 2)))
    # |Jacobian|^2, its nine squares summed in order, each by np.gradient's
    # interior rule (f[+1] - f[-1]) / (2 dx)
    acc.fill(0.0)
    for c in range(3):
        f = ref.data[c]
        for ax in range(3):
            np.subtract(at(f, ax, 1), at(f, ax, -1), out=t)
            t /= 2.0 * g.dx[ax]
            t *= t
            acc += t
    jac = float(np.sqrt(np.mean(acc[inner])))
    return dnorm / max(jac, 1e-30)


def _residual_normal(v0, hs, v_scale):
    """Largest |v0 . n| trace at a fixed set of _NORMAL_PROBES wall points,
    relative to 1 + v_scale."""
    rng = np.random.default_rng(_NORMAL_SEED)
    g = v0.grid
    margin = 4.0 * max(g.dx)
    yp = np.stack([rng.uniform(g.lower[0] + margin, g.upper[0] - margin, _NORMAL_PROBES),
                   rng.uniform(g.lower[1] + margin, g.upper[1] - margin, _NORMAL_PROBES)],
                  axis=-1)
    vals, _ = _shell_normals(hs, v0, yp)
    return float(np.abs(vals).max() / (1.0 + v_scale))


class DecompositionPlan:
    """The field-independent half of decompose for one half space, box grid
    and inside mask: the lattice on the box columns, the quadrature with its
    S blocks, and the contraction and smallness report (ConfigError for a
    lattice too narrow for the quadrature's flat-tail closure).  It holds a
    copy of cfg, not cfg, so no reference cycle forms.

    The box wall out to delta_min, which every stage reads, is built at the
    first volume potential; the grad q2 sites (with the series records of
    the flat and bump sources), the ledger geometry and the residual's inner
    slab at their first use in apply, after it.  All are kept: arrays kept
    across fields but taken before the box-sized transforms of that stage
    raised the peak resident memory."""

    def __init__(self, hs, grid, mask, cfg):
        self.hs, self.grid, self.mask, self.cfg = hs, grid, mask.copy(), replace(cfg)
        extent, res, p, shift = _column_lattice(grid, cfg.quad_extent, cfg.quad_res)
        self.cols = shift + p * np.arange(res)
        try:
            self.q = SurfaceQuadrature(hs, extent, res)
        except ValueError as exc:  # too narrow for the flat-tail closure
            raise ConfigError(f"lattice {extent:g} / {res} on the box columns: {exc}") from exc
        # the quadrature lattice: extent, resolution and stride in box spacings
        self.lattice = {"extent": self.q.extent, "resolution": res, "stride": p}
        self.contraction = estimate_contraction(self.q, seed=cfg.seed)
        self.report = smallness_constants(hs.boundary)
        self.report.empirical_2S_norm = self.contraction

    @functools.cached_property
    def wall(self):
        return box_wall(self.hs, self.grid, self.q.delta_min)

    @functools.cached_property
    def grad_q2_sites(self):
        return grad_q2_sites(self.q, self.wall, self.mask, self.cols)

    @functools.cached_property
    def ledger_geometry(self):
        cfg = self.cfg
        return ledger_geometry(self.wall, self.mask, cfg.mu, cfg.nu, cfg.samples, cfg.seed)

    @functools.cached_property
    def inner_slab(self):
        return _inner_slab(self.wall)

    def fits(self, v):
        return v.grid == self.grid and np.array_equal(v.inside_mask, self.mask)

    def apply(self, v):
        """Decompose v, a field on the plan's grid and mask; the map is linear in v.
        NotContractive, with the plan's report, unless the contraction is below 1."""
        if not self.fits(v):
            raise ValueError("the field is not on the plan's grid and inside mask")
        if not self.contraction < 1.0:
            raise NotContractive(f"empirical |2S| = {self.contraction:.3f} >= 1",
                                 report=self.report)
        hs, cfg, q, grid, mask = self.hs, self.cfg, self.q, v.grid, v.inside_mask
        gq1 = volume_potential_grad(self.wall, v, cfg.rho)
        w = v.data - gq1.data
        w *= mask
        w = BoxField(grid, w, mask)
        g, g_linf, g_hminus = normal_trace(hs, w)
        g_quad = resample_density(g, q, self.cols)
        sol = solve_density(q, g_quad, self.contraction, tol=cfg.tol, kmax=cfg.kmax)
        gq2 = BoxField(grid, _sample_grad_q2(self.grad_q2_sites, sol), mask)
        # v0 in the buffer of w, which nothing reads after this; w and
        # grad q2 are 0 off the mask, so v0 is too
        v0 = w.data
        v0 -= gq2.data
        v0 = BoxField(grid, v0, mask)
        del w

        geometry = self.ledger_geometry
        ledger_v = vbmol2_norm(v, geometry)
        # sup |v| inside, before the trace's sup joins it
        v_scale = ledger_v.linf
        result = DecompositionResult(
            v=v, v0=v0, grad_q1=gq1, grad_q2=gq2, trace_g=g,
            ledger_v=ledger_v,
            ledger_v0=vbmol2_norm(v0, geometry),
            ledger_gradq=vbmol2_norm(BoxField(grid, gq1.data + gq2.data, mask), geometry),
            residual_div=_residual_div(v0, v, self.inner_slab),
            residual_normal=_residual_normal(v0, hs, v_scale),
            smallness=self.report.to_dict(),
            lattice={**self.lattice, **self.grad_q2_sites.report()},
        )
        ledger_v.hminus_half = g_hminus
        ledger_v.linf = max(ledger_v.linf, g_linf)
        return result


def decompose(hs, v, cfg):
    """Run the full three-stage decomposition; see the module docstring.  The
    DecompositionPlan is kept with cfg and reused while hs, grid and mask stay."""
    plan = cfg._plan
    if plan is None or plan.hs is not hs or not plan.fits(v):
        plan = DecompositionPlan(hs, v.grid, v.inside_mask, cfg)
        object.__setattr__(cfg, "_plan", plan)
    return plan.apply(v)


def verify(result, hs):
    """Gate the decomposition invariants in a TraceReport: the reconstruction
    error, recomputed, and the two residuals decompose took (hs unused)."""
    rep = TraceReport()
    index = np.flatnonzero(result.v.inside_mask)
    # one box-sized temporary, taken inside once: v - (v0 + grad q1 + grad q2)
    recon = result.v0.data + result.grad_q1.data
    recon += result.grad_q2.data
    np.subtract(result.v.data, recon, out=recon)
    rec_err = float(np.abs(take_nodes(recon, index)).max()) if index.size else 0.0
    rep.add("reconstruction_max_err", rec_err, 1e-10)
    # each gate is the least power of ten 100x above the largest residual
    # seen: div 7.8e-3 on drawn fields of width 2.8 spacings on the flat 32^3
    # box, normal 8.8e-4 on the 64^3 curved boxes of the benchmark
    rep.add("residual_div", result.residual_div, 1.0)
    rep.add("residual_normal", result.residual_normal, 1e-1)
    return rep


# ---------------------------------------------------------------------------
# Field file I/O
# ---------------------------------------------------------------------------

def write_field(field, header_path):
    """Write header JSON + little-endian float64 payload sidecar."""
    header_path = Path(header_path)
    payload_name = header_path.stem + ".bin"
    header = {
        "dims": 3,
        "lower": [float(x) for x in field.grid.lower],
        "upper": [float(x) for x in field.grid.upper],
        "resolution": [int(r) for r in field.grid.resolution],
        "components": int(field.ncomp),
        "dtype": "f64le",
        "order": "row-major",
        "payload": payload_name,
    }
    header_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    data = np.ascontiguousarray(field.data, dtype="<f8")
    (header_path.parent / payload_name).write_bytes(data.tobytes())


def read_field(header_path, hs=None):
    header_path = Path(header_path)
    header = json.loads(header_path.read_text())
    if header.get("dtype") != "f64le" or header.get("order") != "row-major":
        raise ValueError("unsupported field encoding")
    grid = BoxGrid(tuple(header["lower"]), tuple(header["upper"]),
                   tuple(header["resolution"]))
    raw = (header_path.parent / header["payload"]).read_bytes()
    ncomp = int(header["components"])
    data = np.frombuffer(raw, dtype="<f8").reshape((ncomp,) + tuple(grid.resolution))
    return BoxField(grid, data.copy(), None if hs is None else grid.inside(hs))
