"""End-to-end decomposition v = v0 + grad q1 + grad q2 on the truncated box.

Stages:
  1. extend v across the boundary (normal part odd, tangential even, with
     the distance cutoff taming the tube seam) and form the free-space
     volume potential q1 with Delta q1 = div vbar, so w = v - grad q1 is
     divergence free inside the domain;
  2. take the boundary trace g = w . n by Richardson extrapolation along
     inward normals;
  3. solve the Neumann problem for q2 via the boundary series, sample
     grad q2 on the box, and set v0 = w - grad q2.

The reconstruction v = v0 + grad q1 + grad q2 is exact by construction;
accuracy shows up in how small div v0 and the boundary trace of v0 are.

Spectral solves run on 2x zero-padded grids with the |xi|^{-2} symbol,
emulating free-space convolution up to the documented image-charge error.

Field files are a JSON header {dims, lower, upper, resolution, components,
dtype:"f64le", order:"row-major", payload} plus a raw little-endian
float64 sidecar; reruns with fixed seeds are byte identical.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ExtrapolationUnstable, NonDecayingInput, NotContractive,
                     ZeroFrequencyIll)
from .geometry import BoxField, BoxGrid, extend_field, interp_masked
from .layers import SurfaceQuadrature
from .neumann import estimate_contraction, smallness_constants, solve_density
from .sobolev import BoundaryDensity, NormLedger, hs_norm_fourier, th_pull, vbmol2_norm

_RING_TOL = 1e-6


@dataclass
class PipelineConfig:
    """Knobs for the decomposition stages."""

    rho: float
    quad_extent: float
    quad_res: int
    mu: float = 0.2
    nu: float = 0.05
    tol: float = 1e-8
    kmax: int = 64
    seed: int = 0
    samples: int = 200


@dataclass
class DecompositionResult:
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


def _check_box_decay(v):
    inside = v.inside_mask
    vmax = np.abs(v.data[:, inside]).max() if inside.any() else 0.0
    if vmax == 0.0:
        return
    ring = np.zeros_like(inside)
    ring[0, :, :] = ring[-1, :, :] = True
    ring[:, 0, :] = ring[:, -1, :] = True
    ring[:, :, -1] = True  # bottom face sits outside the domain anyway
    sel = ring & inside
    if sel.any() and np.abs(v.data[:, sel]).max() > _RING_TOL * vmax:
        raise NonDecayingInput("field does not decay at the box boundary")


def volume_potential_grad(hs, v, rho):
    """grad q1 with Delta q1 = div vbar, vbar the cutoff mirror extension.

    Restricted to the domain this solves the volume-potential equation for
    v; the construction is linear in v.
    """
    _check_box_decay(v)
    grid = v.grid
    pts = grid.points()
    b = hs.boundary
    # theta(d/rho) differs from 0 only within the tube; prefilter via the
    # Lipschitz bound dist >= |x_n - h| / C_s
    cs = 1.0 + b.sup_norms()[0] + b.sup_norms()[1]
    theta = np.zeros(grid.resolution)
    cand = np.abs(pts[..., 2] - b.height(pts[..., :2])) < rho * cs
    if cand.any():
        theta[cand] = hs.cutoff_theta(rho, pts[cand])
    near = BoxField(grid, v.data * theta[None], v.inside_mask)
    vbar = extend_field(hs, near, rho)
    total = vbar.data + v.data * ((1.0 - theta) * v.inside_mask)[None]
    res = [2 * r for r in grid.resolution]
    xi = [2.0 * np.pi * np.fft.fftfreq(res[i], d=grid.dx[i]) for i in range(3)]
    n = grid.resolution
    X = np.meshgrid(*xi, indexing="ij", sparse=True)
    div = np.zeros(res, dtype=complex)
    for c in range(3):
        pad = np.zeros(res)
        pad[: n[0], : n[1], : n[2]] = total[c]
        div += 1j * X[c] * np.fft.fftn(pad)
    k2 = X[0] ** 2 + X[1] ** 2 + X[2] ** 2
    k2[0, 0, 0] = 1.0
    qhat = -div / k2
    qhat[0, 0, 0] = 0.0
    out = np.empty((3,) + tuple(n))
    for c in range(3):
        g = np.fft.ifftn(1j * X[c] * qhat).real
        out[c] = g[: n[0], : n[1], : n[2]]
    return BoxField(grid, out, v.inside_mask.copy())


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


def normal_trace(hs, w, rtol=0.05):
    """Boundary trace of w . n by two-shell Richardson along inward normals.

    Returns (g on the box x'-lattice flagged on-graph, sup |g|, pullback
    Hdot^{-1/2} of g).  Raises ExtrapolationUnstable when the shells
    disagree by more than 10x the stated relative tolerance.
    """
    grid = w.grid
    if grid.resolution[0] != grid.resolution[1] or \
       abs((grid.upper[0] - grid.lower[0]) - (grid.upper[1] - grid.lower[1])) > 1e-12:
        raise ValueError("normal_trace expects square x'-cross-sections")
    a0 = grid.axis(0)
    a1 = grid.axis(1)
    gx, gy = np.meshgrid(a0, a1, indexing="ij")
    yp = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    vals, diff = _shell_normals(hs, w, yp)
    scale = float(np.abs(w.data[:, w.inside_mask]).max()) if w.inside_mask.any() else 0.0
    gap = float(np.abs(diff).max())
    if scale > 0 and gap > 10.0 * rtol * scale:
        raise ExtrapolationUnstable(f"trace shells disagree by {gap:.3e}")
    extent = grid.upper[0] - grid.lower[0]
    g = BoundaryDensity(extent, vals.reshape(len(a0), len(a1)), on_graph=True)
    linf = float(np.abs(vals).max())
    try:
        hminus = hs_norm_fourier(th_pull(g), -0.5, check_decay=False, origin_rings=4)
    except ZeroFrequencyIll:
        # nonvanishing mean on an unbounded boundary: the negative-order
        # norm is genuinely infinite at this truncation
        hminus = float("inf")
    return g, linf, hminus


def resample_density(g, extent, res):
    """Bilinear resample onto another lattice; outside the source -> 0."""
    a = -extent / 2.0 + (extent / res) * np.arange(res)
    gx, gy = np.meshgrid(a, a, indexing="ij")
    src_ax = g.axis()
    lo, hi = src_ax[0], src_ax[-1]
    v = g.bilinear(gx, gy)
    outside = (gx < lo) | (gx > hi) | (gy < lo) | (gy > hi)
    v[outside] = 0.0
    return BoundaryDensity(extent, v, on_graph=g.on_graph)


def _sample_grad_q2(q, hs, sol, grid, mask):
    """grad q2 at inside nodes; near-surface nodes use shell extrapolation.

    The density comes from a decaying boundary trace, so the plain
    truncated-lattice product suffices (no constant-tail closure).
    """
    from ._fast import gradslp_sum

    pts = grid.points()[mask]
    out = np.zeros((3, int(mask.sum())))
    gvals = q.match(sol.density)
    wg = np.ascontiguousarray(q.weights * gvals)
    nodes = np.ascontiguousarray(q.nodes)

    # classify by the cheap bounds zgap/C_s <= d <= zgap; exact distances
    # only for the thin ambiguous shell
    b = hs.boundary
    zgap = pts[:, 2] - b.height(pts[:, :2])
    cs = 1.0 + b.sup_norms()[0] + b.sup_norms()[1]
    safe = zgap / cs >= q.delta_min
    shell = ~safe
    d = np.empty(len(pts))
    d[safe] = zgap[safe]
    if shell.any():
        d[shell] = hs.signed_distance(pts[shell])
        safe = d >= q.delta_min

    def batch_eval(xs):
        return gradslp_sum(np.ascontiguousarray(xs), nodes, wg, -q.ctx.grad_const).T

    if safe.any():
        out[:, safe] = batch_eval(pts[safe])
    near = ~safe
    if near.any():
        # extrapolate linearly from two safe depths along the inward normal
        xs = pts[near]
        pi = hs.project_to_boundary(xs, check_reach=False)
        nrm = hs.outward_normal(pi)
        d1 = 1.5 * q.delta_min
        d2 = 3.0 * q.delta_min
        f1 = batch_eval(pi - d1 * nrm)
        f2 = batch_eval(pi - d2 * nrm)
        dd = d[near]
        w2 = (dd - d1) / (d2 - d1)
        out[:, near] = f1 * (1.0 - w2)[None] + f2 * w2[None]
    return out


def divergence_stencil(field, order=4):
    """Interior divergence by 2nd/4th-order central differences.

    Returns (div array, margin) where entries within ``margin`` cells of the
    box faces are zero-filled.
    """
    g = field.grid
    m = 2 if order == 4 else 1
    div = np.zeros(g.resolution)
    for c in range(3):
        arr = field.data[c]
        d = g.dx[c]
        sl = [slice(m, -m)] * 3

        def shift(k):
            s = list(sl)
            s[c] = slice(m + k, arr.shape[c] - m + k)
            return arr[tuple(s)]

        if order == 4:
            der = (8.0 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))) / (12.0 * d)
        else:
            der = (shift(1) - shift(-1)) / (2.0 * d)
        div[tuple(sl)] += der
    return div, m


def _residual_div(v0, hs, ref=None):
    """RMS interior divergence of v0, relative to the Jacobian scale of ref.

    ref defaults to v0 itself (stand-alone verification); the pipeline
    passes the input field so a vanishing v0 reports a vanishing residual.
    """
    div, m = divergence_stencil(v0)
    g = v0.grid
    pts = g.points()
    depth = pts[..., 2] - hs.boundary.height(pts[..., :2])
    inner = np.zeros(g.resolution, dtype=bool)
    inner[m:-m, m:-m, m:-m] = True
    inner &= depth > 3.0 * max(g.dx)
    if not inner.any():
        return 0.0
    dnorm = float(np.sqrt(np.mean(div[inner] ** 2)))
    scale_field = v0 if ref is None else ref
    grads = []
    for c in range(3):
        gr = np.gradient(scale_field.data[c], *g.dx)
        grads.extend(x[inner] for x in gr)
    jac = float(np.sqrt(np.mean(np.sum([gg**2 for gg in grads], axis=0))))
    return dnorm / max(jac, 1e-30)


def _residual_normal(v0, hs, v_scale, probes=100, seed=0):
    rng = np.random.default_rng(seed)
    g = v0.grid
    margin = 4.0 * max(g.dx)
    yp = np.stack([rng.uniform(g.lower[0] + margin, g.upper[0] - margin, probes),
                   rng.uniform(g.lower[1] + margin, g.upper[1] - margin, probes)], axis=-1)
    vals, _ = _shell_normals(hs, v0, yp)
    return float(np.abs(vals).max() / (1.0 + v_scale))


def decompose(hs, v, cfg):
    """Run the full three-stage decomposition; see the module docstring."""
    q = SurfaceQuadrature(hs, cfg.quad_extent, cfg.quad_res)
    contraction = estimate_contraction(q, hs, seed=cfg.seed)
    report = smallness_constants(hs.boundary)
    report.empirical_2S_norm = contraction
    if not contraction < 1.0:
        raise NotContractive(f"empirical |2S| = {contraction:.3f} >= 1", report=report)

    gq1 = volume_potential_grad(hs, v, cfg.rho)
    w = BoxField(v.grid, (v.data - gq1.data) * v.inside_mask[None], v.inside_mask)
    g, g_linf, g_hminus = normal_trace(hs, w)
    g_quad = resample_density(g, cfg.quad_extent, cfg.quad_res)
    sol = solve_density(q, hs, g_quad, tol=cfg.tol, kmax=cfg.kmax,
                        contraction=contraction, seed=cfg.seed)
    gq2_inside = _sample_grad_q2(q, hs, sol, v.grid, v.inside_mask)
    gq2 = np.zeros_like(v.data)
    gq2[:, v.inside_mask] = gq2_inside
    gq2 = BoxField(v.grid, gq2, v.inside_mask)
    v0 = BoxField(v.grid, (w.data - gq2.data) * v.inside_mask[None], v.inside_mask)

    v_scale = float(np.abs(v.data[:, v.inside_mask]).max()) if v.inside_mask.any() else 0.0
    led_kw = dict(mu=cfg.mu, nu=cfg.nu, samples=cfg.samples, seed=cfg.seed)
    result = DecompositionResult(
        v=v, v0=v0, grad_q1=gq1, grad_q2=gq2, trace_g=g,
        ledger_v=vbmol2_norm(v, hs, **led_kw),
        ledger_v0=vbmol2_norm(v0, hs, **led_kw),
        ledger_gradq=vbmol2_norm(
            BoxField(v.grid, gq1.data + gq2.data, v.inside_mask), hs, **led_kw),
        residual_div=_residual_div(v0, hs, ref=v),
        residual_normal=_residual_normal(v0, hs, v_scale, seed=cfg.seed),
        smallness=report.to_dict(),
    )
    result.ledger_v.hminus_half = g_hminus
    result.ledger_v.linf = max(result.ledger_v.linf, g_linf)
    return result


def verify(result, hs):
    """Recompute the decomposition invariants into a TraceReport."""
    rep = TraceReport()
    inside = result.v.inside_mask
    recon = result.v.data - (result.v0.data + result.grad_q1.data + result.grad_q2.data)
    rec_err = float(np.abs(recon[:, inside]).max()) if inside.any() else 0.0
    rep.add("reconstruction_max_err", rec_err, 1e-10)
    rep.add("residual_div", _residual_div(result.v0, hs, ref=result.v), 1.0)
    v_scale = float(np.abs(result.v.data[:, inside]).max()) if inside.any() else 0.0
    rep.add("residual_normal", _residual_normal(result.v0, hs, v_scale), 1.0)
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
    mask = None
    if hs is not None:
        pts = grid.points()
        mask = pts[..., 2] > hs.boundary.height(pts[..., :2])
    return BoxField(grid, data.copy(), mask)
