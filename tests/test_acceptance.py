"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import numpy as np
import pytest
from scipy.integrate import quad as squad

from helmdecomp import (BoundaryFunction, BoxField, BoxGrid, KernelContext,
                        PerturbedHalfSpace)
from helmdecomp.layers import (SurfaceQuadrature, gauss_flux,
                               grad_single_layer, poisson_smoothing_deficit,
                               trace_S, trace_limit_Q)
from helmdecomp.neumann import estimate_contraction, smallness_constants, solve_density
from helmdecomp.pipeline import PipelineConfig, decompose
from helmdecomp.sobolev import (BoundaryDensity, gagliardo_half,
                                hs_norm_fourier, lift_harmonic, pairing,
                                th_push)


def verdict(num, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{flag}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def bump_setup():
    b = BoundaryFunction.smooth_bump(0.01, 0.3)
    hs = PerturbedHalfSpace(b, reach_estimate=0.3)
    q = SurfaceQuadrature(hs, 2.0, 64)
    return hs, q


def l2(f):
    dV = np.prod(f.grid.dx)
    return float(np.sqrt(np.sum(f.data[:, f.inside_mask] ** 2) * dV))


def test_criterion_1_gauss_flux(flat_hs, flat_quad, bump_setup):
    rng = np.random.default_rng(11)
    worst_flat = 0.0
    for _ in range(5):
        x = np.array([*rng.uniform(-1.5, 1.5, 2), rng.uniform(0.3, 2.0)])
        worst_flat = max(worst_flat, abs(gauss_flux(flat_quad, flat_hs, x) + 0.5))
    hs, q = bump_setup
    worst_bump = 0.0
    heights = np.linspace(0.1, 2.0, 10)
    offsets = np.linspace(0.0, 5 * 0.3, 10)
    for ht, off in zip(heights, offsets):
        x = np.array([off, 0.0, float(hs.boundary.height(np.array([off, 0.0]))) + ht])
        worst_bump = max(worst_bump, abs(gauss_flux(q, hs, x) + 0.5))
    ok = worst_flat < 1e-6 and worst_bump < 2e-3
    verdict(1, "gauss flux = -1/2",
            ok, f"flat dev {worst_flat:.2e} (tol 1e-6), bump dev {worst_bump:.2e} (tol 2e-3)")


def test_criterion_2_poisson_half_limit(flat_hs):
    q = SurfaceQuadrature(flat_hs, 12.0, 128)
    ones = BoundaryDensity(12.0, np.ones((128, 128)))
    exact_dev = 0.0
    for x in ([0.0, 0.0, 0.4], [0.7, -0.3, 1.1]):
        val = grad_single_layer(q, ones, np.array(x))
        exact_dev = max(exact_dev, abs(-val[2] - 0.5))
    g = BoundaryDensity.sample(12.0, 128, lambda p: np.exp(-np.sum(p * p, -1)))
    sol_scale = 0.5  # target is g/2
    rng = np.random.default_rng(4)
    worst = 0.0
    d0 = 2 * q.delta_min
    for _ in range(50):
        x0p = rng.uniform(-1.5, 1.5, 2)
        vals = []
        for s in (1.0, 2.0):
            x = np.array([x0p[0], x0p[1], s * d0])
            f = -grad_single_layer(q, g, x)[2]
            vals.append(f - poisson_smoothing_deficit(q, g, x0p, s * d0))
        lim = 2 * vals[0] - vals[1]
        worst = max(worst, abs(lim - 0.5 * np.exp(-np.sum(x0p**2))))
    ok = exact_dev < 1e-15 and worst < 0.01 * sol_scale
    verdict(2, "half Poisson limit",
            ok, f"constant-density dev {exact_dev:.1e} (roundoff), "
                f"gaussian trace dev {worst:.2e} (tol {0.01 * sol_scale:.0e})")


def test_criterion_3_jump_relation(flat_hs, small_bump_hs):
    qf = SurfaceQuadrature(flat_hs, 6.0, 128)
    gf = BoundaryDensity.sample(6.0, 128, lambda p: np.exp(-np.sum(p * p, -1)))
    s_dev = max(abs(trace_S(qf, flat_hs, gf, np.array([x, y, 0.0])))
                for x, y in ((0.0, 0.0), (0.75, -0.5), (1.5, 1.0)))
    est, _, _ = trace_limit_Q(qf, flat_hs, gf, np.array([0.046875, 0.0, 0.0]))
    flat_gap = abs(est - 0.5 * np.exp(-0.046875**2))

    qb = SurfaceQuadrature(small_bump_hs, 2.0, 128)
    gb = BoundaryDensity.sample(2.0, 128, lambda p: np.exp(-np.sum(p * p, -1) / 0.11))
    worst_gap = 0.0
    worst_order = np.inf
    for xp in ([0.078125, 0.0], [0.171875, 0.03125], [0.0, 0.0]):
        x0 = small_bump_hs.boundary.surface_point(np.array(xp))
        est, _, order = trace_limit_Q(qb, small_bump_hs, gb, x0)
        target = 0.5 * np.exp(-np.sum(x0[:2] ** 2) / 0.11) \
            - trace_S(qb, small_bump_hs, gb, x0)
        worst_gap = max(worst_gap, abs(est - target))
        worst_order = min(worst_order, order)
    ok = s_dev == 0.0 and flat_gap < 1e-3 and worst_order >= 0.8 \
        and worst_gap < 5e-3 * np.abs(gb.values).max()
    verdict(3, "jump relation",
            ok, f"flat S {s_dev:.1e}, flat gap {flat_gap:.2e} (tol 1e-3), "
                f"bump order {worst_order:.2f} (>=0.8), bump gap {worst_gap:.2e} "
                f"(tol {5e-3 * np.abs(gb.values).max():.0e})")


def test_criterion_4_single_layer_l2_identity(flat_hs):
    # physical-space energy of grad SLP over a truncated half box against
    # the closed-form frequency-side value (1/4) (2pi)^{-2} int |ghat|^2/|xi|
    w = 1.0
    pad_extent, pad_res = 32.0, 256
    g = BoundaryDensity.sample(pad_extent, pad_res,
                               lambda p: np.exp(-np.sum(p * p, -1) / w))
    xi = 2 * np.pi * np.fft.fftfreq(pad_res, d=g.dx)
    X1, X2 = np.meshgrid(xi, xi, indexing="ij")
    mod = np.hypot(X1, X2)
    mod_safe = np.where(mod > 0, mod, 1.0)
    gh = np.fft.fft2(g.values)
    half = 12.0
    ax = g.axis()
    win = np.abs(ax) < half
    nz = 64
    dz = half / nz
    zs = (np.arange(nz) + 0.5) * dz
    energy = 0.0
    for zn in zs:
        damp = np.exp(-zn * mod)
        base = damp * gh / (2.0 * mod_safe)
        base[0, 0] = 0.0  # zero mode carries no gradient energy laterally
        gx = np.fft.ifft2(1j * X1 * base).real
        gy = np.fft.ifft2(1j * X2 * base).real
        gz = np.fft.ifft2(-0.5 * damp * gh).real
        density = (gx**2 + gy**2 + gz**2)[np.ix_(win, win)]
        energy += float(density.sum()) * g.dx**2 * dz
    # monopole closure outside the half box
    qmass = np.pi * w
    th = (np.arange(64) + 0.5) / 64 * (np.pi / 2)
    ph = (np.arange(128) + 0.5) / 128 * (2 * np.pi)
    T, P = np.meshgrid(th, ph, indexing="ij")
    dirs = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], -1)
    scale = np.max(np.abs(dirs) / np.array([half, half, half]), axis=-1)
    r_exit = 1.0 / scale
    dOmega = np.sin(T) * (np.pi / 2 / 64) * (2 * np.pi / 128)
    tail = qmass**2 / (16 * np.pi**2) * float(np.sum(dOmega / r_exit))
    total_physical = energy + tail

    fourier_side = 0.25 * (2 * np.pi) ** (-2) * hs_norm_fourier(g, -0.5) ** 2
    gap = abs(total_physical - fourier_side) / fourier_side
    verdict(4, "single-layer L2 identity", gap < 0.02,
            f"physical {total_physical:.5f} vs fourier {fourier_side:.5f}, "
            f"rel gap {gap:.3%} (tol 2%)")


def test_criterion_5_lifting_identity():
    # Dirichlet energy of the lifting vs the half-order norm; the classical
    # constant 8 pi^2 is recovered through the documented conversion factor
    # (2 pi)^{n+1}
    f = BoundaryDensity.sample(12.0, 128, lambda p: np.exp(-np.sum(p * p, -1)))
    u = lift_harmonic(f)
    d = u.grid.dx
    U = u.data[0]
    gx, gy = np.gradient(U, d[0], d[1], axis=(0, 1))
    tang = np.sum(gx**2 + gy**2) * np.prod(d)
    dz = np.diff(U, axis=2) / d[2]
    energy = tang + np.sum(dz**2) * np.prod(d)
    ratio = energy / hs_norm_fourier(f, 0.5) ** 2
    converted = ratio * (2 * np.pi) ** 4
    gap = abs(converted - 8 * np.pi**2) / (8 * np.pi**2)
    verdict(5, "lifting energy identity", gap < 0.01,
            f"converted constant {converted:.3f} vs 8 pi^2 = {8 * np.pi**2:.3f}, "
            f"rel gap {gap:.3%} (tol 1%)")


def test_criterion_6_neumann_series(bump_setup):
    hs, q = bump_setup
    contraction = estimate_contraction(q, hs)
    g = BoundaryDensity.sample(2.0, 64, lambda p: np.exp(-np.sum(p * p, -1) / 0.11))
    sol = solve_density(q, hs, g, contraction=contraction)
    decay = [b / a for a, b in zip(sol.increments[1:-1], sol.increments[2:])]
    geometric = bool(decay) and max(decay) < 1.0
    rng = np.random.default_rng(9)
    d0 = 2 * q.delta_min
    worst = 0.0
    for _ in range(50):
        x0p = rng.uniform(-0.45, 0.45, 2)
        x0 = hs.boundary.surface_point(x0p)
        nrm = hs.outward_normal(x0)
        vals = []
        for s in (1.0, 2.0):
            f = float(np.dot(nrm, grad_single_layer(q, sol.density, x0 - s * d0 * nrm)))
            # u = SLP(g*): the half-Poisson deficit of g* enters once
            vals.append(f - poisson_smoothing_deficit(q, sol.density, x0p, s * d0))
        lim = 2 * vals[0] - vals[1]
        worst = max(worst, abs(lim - np.exp(-np.sum(x0p**2) / 0.11)))
    ok = contraction < 1.0 and geometric and worst < 0.05
    verdict(6, "neumann series",
            ok, f"|2S| {contraction:.4f} (<1), geometric decay "
                f"{max(decay) if decay else 0:.3f}, boundary dev {worst:.2e} (tol 5e-2)")


def test_criterion_7_decomposition(flat_hs, gentle_hs):
    # (a) pure gradient on the curved geometry
    cfg_c = PipelineConfig(rho=0.055, quad_extent=8.0, quad_res=48,
                           mu=0.3, nu=0.08, samples=100, seed=5)
    grid_c = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (64, 64, 64))
    c = np.array([0.0, 0.0, 1.4])
    s2 = 0.12

    def gp(p):
        return -2.0 * (p - c) / s2 * np.exp(-np.sum((p - c) ** 2, -1) / s2)[..., None]

    v = BoxField.sample(grid_c, gentle_hs, gp, ncomp=3)
    res = decompose(gentle_hs, v, cfg_c)
    ratio_a = l2(res.v0) / l2(v)

    # (c) exact reconstruction on the same run
    recon = res.v0.data + res.grad_q1.data + res.grad_q2.data
    rec_gap = float(np.abs(v.data - recon)[:, v.inside_mask].max())

    # (b) flat tangential solenoidal
    cfg_f = PipelineConfig(rho=0.07, quad_extent=6.0, quad_res=48,
                           mu=0.3, nu=0.1, samples=100, seed=5)
    s2b = 0.18

    def vsol(p):
        ps = np.exp(-np.sum(p * p, -1) / s2b)
        return np.stack([-2 * p[..., 1] / s2b * ps, 2 * p[..., 0] / s2b * ps,
                         np.zeros_like(ps)], -1)

    grid_f = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (64, 64, 64))
    vf = BoxField.sample(grid_f, flat_hs, vsol, ncomp=3)
    res_f = decompose(flat_hs, vf, cfg_f)
    gq = BoxField(grid_f, res_f.grad_q1.data + res_f.grad_q2.data, vf.inside_mask)
    ratio_b = l2(gq) / l2(vf)

    # (d) approximate idempotence within twice the stage residuals
    second = decompose(flat_hs, res_f.v0, cfg_f)
    stage = max(l2(gq), 1e-12 * l2(vf))
    idem_gap = l2(BoxField(grid_f, second.v0.data - res_f.v0.data, vf.inside_mask))
    ok = ratio_a < 5e-2 and ratio_b < 5e-2 and rec_gap < 1e-10 \
        and idem_gap <= 2.0 * stage + 1e-10 * l2(vf)
    verdict(7, "helmholtz decomposition",
            ok, f"|v0|/|v| {ratio_a:.2e} (tol 5e-2), |grad q|/|v| {ratio_b:.2e} "
                f"(tol 5e-2), reconstruction {rec_gap:.1e} (tol 1e-10), "
                f"idempotence {idem_gap:.2e} <= {2 * stage:.2e}")


def test_criterion_8_norm_machinery(bump_hs, rng):
    def bumpfn(p):
        r2 = np.clip(np.sum(p * p, -1) / 2.5**2, 0.0, 1.0)
        inside = r2 < 1.0 - 1e-14
        u = np.where(inside, 1.0 - r2, 1.0)
        return np.where(inside, np.exp(1.0 - 1.0 / u), 0.0)

    fns = [lambda p: np.exp(-np.sum(p * p, -1)), bumpfn,
           lambda p: np.exp(-np.sum((p - np.array([1.0, 0.5])) ** 2, -1))]
    ratios = []
    for fn in fns:
        f = BoundaryDensity.sample(14.0, 96, fn)
        ratios.append(hs_norm_fourier(f, 0.5) / gagliardo_half(f))
    spread = (max(ratios) - min(ratios)) / min(ratios)

    cs = bump_hs.boundary.lipschitz()
    push_ok = True
    for _ in range(10):
        cc = rng.uniform(-1, 1, 2)
        ww = rng.uniform(0.3, 1.0)
        f = BoundaryDensity.sample(10.0, 48,
                                   lambda p: np.exp(-np.sum((p - cc) ** 2, -1) / ww))
        plane = gagliardo_half(f)
        graph = gagliardo_half(th_push(f), hs=bump_hs)
        push_ok &= graph <= cs * plane * (1 + 1e-9)

    dual_ok = True
    for _ in range(20):
        c1, c2 = rng.uniform(-1.5, 1.5, (2, 2))
        w1, w2 = rng.uniform(0.4, 1.2, 2)
        f = BoundaryDensity.sample(14.0, 64,
                                   lambda p: np.exp(-np.sum((p - c1) ** 2, -1) / w1))
        g = BoundaryDensity.sample(14.0, 64,
                                   lambda p: np.exp(-np.sum((p - c2) ** 2, -1) / w2))
        dual_ok &= abs(pairing(f, g)) <= hs_norm_fourier(g, -0.5) \
            * hs_norm_fourier(f, 0.5) * (1 + 1e-6)
    ok = spread < 0.02 and push_ok and dual_ok
    verdict(8, "norm machinery",
            ok, f"gagliardo/fourier spread {spread:.3%} (tol 2%), "
                f"push-forward bound {'ok' if push_ok else 'violated'}, "
                f"duality {'ok' if dual_ok else 'violated'}")


def test_criterion_9_smallness_arithmetic():
    passing = smallness_constants(BoundaryFunction.smooth_bump(1e-4, 0.4))
    failing = smallness_constants(BoundaryFunction.smooth_bump(1e-4, 0.6))
    v_pass = 0.4 ** (5.0 / 6.0)
    v_fail = 0.6 ** (5.0 / 6.0)
    ok = passing.first_condition and not failing.first_condition \
        and v_pass < 0.5 < v_fail
    verdict(9, "smallness arithmetic", ok,
            f"0.4^(5/6) = {v_pass:.6f} < 1/2 passes; "
            f"0.6^(5/6) = {v_fail:.6f} > 1/2 fails")
