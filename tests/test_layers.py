import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdecomp import BoundaryFunction, PerturbedHalfSpace
from helmdecomp.errors import NonDecayingInput, TooCloseToSurface
from helmdecomp.kernels import KernelContext, poisson_kernel
from helmdecomp.layers import (SurfaceQuadrature, abs_flux, apply_S,
                               double_layer_Q, gauss_flux, grad_single_layer,
                               single_layer, trace_S, trace_S_norms,
                               trace_limit_Q)
from helmdecomp.sobolev import BoundaryDensity


def gauss_dens(extent, res, w=0.25):
    return BoundaryDensity.sample(extent, res, lambda p: np.exp(-np.sum(p * p, -1) / w))


class TestQuadratureBookkeeping:
    def test_surface_area_matches_analytic(self, small_bump_hs):
        from scipy.integrate import quad as squad

        q = SurfaceQuadrature(small_bump_hs, 2.0, 128)
        b = small_bump_hs.boundary
        delta = 0.8

        def integrand(r):
            g = b.gradient(np.array([r, 0.0]))
            return np.sqrt(1 + np.sum(g * g)) * 2 * np.pi * r

        ref, _ = squad(integrand, 0, delta, limit=100)
        ours = q.surface_area(delta)
        assert abs(ours - ref) < 1e-3 * ref

    def test_weights_positive(self, small_bump_quad):
        assert np.all(small_bump_quad.weights > 0)

    def test_density_lattice_mismatch(self, flat_quad):
        with pytest.raises(ValueError):
            flat_quad.match(BoundaryDensity(5.0, np.zeros((64, 64))))


class TestSingleLayer:
    def test_zero_density(self, flat_quad):
        g = BoundaryDensity(6.0, np.zeros((64, 64)))
        assert single_layer(flat_quad, g, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_flat_fourier_oracle(self, flat_hs):
        # Fourier side: SLP-hat(xi, x_n) = exp(-x_n |xi|) ghat(xi) / (2 |xi|);
        # on the axis this is a 1-d radial integral evaluated by scipy
        from scipy.integrate import quad as squad

        q = SurfaceQuadrature(flat_hs, 12.0, 128)
        w = 1.0
        g = gauss_dens(12.0, 128, w=w)
        for zn in (0.8, 1.5):
            ref, _ = squad(lambda r: np.exp(-zn * r) * np.pi * w
                           * np.exp(-w * r * r / 4), 0, np.inf)
            ref /= 4 * np.pi  # (2 pi)^{-2} * 2 pi r / (2 r) folded in
            ours = single_layer(q, g, np.array([0.0, 0.0, zn]))
            assert abs(ours - ref) < 1e-4 * ref

    def test_far_field_decay(self, flat_quad):
        g = gauss_dens(6.0, 64)
        mass = np.sum(g.values) * g.dx**2
        for r in (10.0, 20.0):
            x = np.array([0.0, 0.0, r])
            val = single_layer(flat_quad, g, x)
            assert abs(val - mass / (4 * np.pi * r)) < 0.02 * abs(val)

    def test_requires_decay(self, flat_quad):
        g = BoundaryDensity(6.0, np.ones((64, 64)))
        with pytest.raises(NonDecayingInput):
            single_layer(flat_quad, g, np.array([0.0, 0.0, 1.0]))

    def test_harmonic_off_surface(self, small_bump_quad, small_bump_hs, rng):
        g = gauss_dens(2.0, 64, w=0.1)
        h = 0.02
        for _ in range(6):
            x = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                          rng.uniform(0.4, 0.9)])
            lap = -6.0 * single_layer(small_bump_quad, g, x)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                lap += single_layer(small_bump_quad, g, x + e) \
                    + single_layer(small_bump_quad, g, x - e)
            scale = abs(single_layer(small_bump_quad, g, x)) / np.sum(x * x)
            assert abs(lap / h**2) < 1e-4 + 1e-2 * scale


class TestGradSingleLayer:
    def test_zero(self, flat_quad):
        g = BoundaryDensity(6.0, np.zeros((64, 64)))
        assert np.all(grad_single_layer(flat_quad, g, np.array([0, 0, 1.0])) == 0)

    def test_flat_constant_half(self, flat_quad):
        g = BoundaryDensity(6.0, np.ones((64, 64)))
        for zn in (0.2, 0.8, 2.0):
            val = grad_single_layer(flat_quad, g, np.array([0.4, -0.3, zn]))
            assert np.allclose(val, [0, 0, -0.5])

    def test_finite_difference_consistency(self, flat_quad, flat_hs):
        g = gauss_dens(6.0, 64)
        x = np.array([0.2, 0.1, flat_hs.rho0])
        h = 1e-4
        fd = np.array([
            (single_layer(flat_quad, g, x + np.eye(3)[k] * h)
             - single_layer(flat_quad, g, x - np.eye(3)[k] * h)) / (2 * h)
            for k in range(3)])
        ours = grad_single_layer(flat_quad, g, x)
        assert np.abs(ours - fd).max() < 1e-6

    def test_reflection_symmetry_flat_tail(self, flat_quad):
        # density supported in the flat region: |grad SLP| symmetric in x_n
        g = gauss_dens(6.0, 64)
        for t in (0.5, 1.0):
            up = grad_single_layer(flat_quad, g, np.array([0.3, 0.0, t]))
            dn = grad_single_layer(flat_quad, g, np.array([0.3, 0.0, -t]))
            assert abs(np.linalg.norm(up) - np.linalg.norm(dn)) < 1e-12

    def test_too_close_raises(self, flat_quad):
        g = gauss_dens(6.0, 64)
        with pytest.raises(TooCloseToSurface):
            grad_single_layer(flat_quad, g, np.array([0.0, 0.0, 0.05]))


class TestDoubleLayer:
    def test_zero(self, flat_quad, flat_hs):
        g = BoundaryDensity(6.0, np.zeros((64, 64)))
        assert double_layer_Q(flat_quad, flat_hs, g, np.array([0, 0, 0.5])) == 0.0

    def test_flat_poisson_convolution(self, flat_quad, flat_hs):
        # kernels agree pointwise, so plain midpoint sums match to roundoff
        ctx = KernelContext(3)
        g = gauss_dens(6.0, 64, w=0.8)
        pts = g.points().reshape(-1, 2)
        for t in (0.3, 0.7):
            x = np.array([0.15, -0.1, t])
            conv = 0.5 * np.sum(poisson_kernel(ctx, t, x[:2] - pts)
                                * g.values.ravel()) * g.dx**2
            ours = double_layer_Q(flat_quad, flat_hs, g, x, refine=False)
            assert abs(ours - conv) < 1e-6

    def test_flat_constant_is_half(self, flat_quad, flat_hs):
        g = BoundaryDensity(6.0, np.ones((64, 64)))
        val = double_layer_Q(flat_quad, flat_hs, g, np.array([0.2, 0.4, 0.9]))
        assert abs(val - 0.5) < 1e-12


class TestFluxes:
    def test_flat_exact(self, flat_quad, flat_hs):
        for x in ([0, 0, 1.0], [0.5, -0.2, 0.3], [2.0, 2.0, 2.0]):
            assert abs(gauss_flux(flat_quad, flat_hs, np.array(x)) + 0.5) < 1e-6

    def test_bump_probes(self, small_bump_quad, small_bump_hs, rng):
        Rh = 0.3
        heights = np.linspace(0.1, 2.0, 10)
        offs = np.linspace(0.0, 5 * Rh, 10)
        for ht, off in zip(heights, offs):
            x = np.array([off / np.sqrt(2), off / np.sqrt(2), ht])
            if x[2] < small_bump_hs.boundary.height(x[:2]) + 0.1:
                x[2] += 0.1
            assert abs(gauss_flux(small_bump_quad, small_bump_hs, x) + 0.5) < 2e-3

    def test_far_probe(self, small_bump_quad, small_bump_hs):
        x = np.array([30.0, 30.0, 20.0])  # |x| ~ 50
        assert abs(gauss_flux(small_bump_quad, small_bump_hs, x) + 0.5) < 1e-3

    def test_constancy_across_interior(self, small_bump_quad, small_bump_hs, rng):
        vals = []
        for _ in range(20):
            x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1.5)])
            vals.append(gauss_flux(small_bump_quad, small_bump_hs, x))
        assert np.ptp(vals) < 2e-3

    def test_abs_flux_flat_exact(self, flat_quad, flat_hs):
        assert abs(abs_flux(flat_quad, flat_hs, np.array([0, 0, 0.3])) - 0.5) < 1e-12

    def test_abs_flux_tube_bounded(self, small_bump_hs, rng):
        q = SurfaceQuadrature(small_bump_hs, 2.0, 192)
        b = small_bump_hs.boundary
        hinf, hgrad, hess = b.sup_norms()
        rho = small_bump_hs.rho0
        c_ep = ((0.3 ** 2 + rho * b.curvature_bound + rho + 1) * (hinf + hgrad)
                + hess + rho + 1)
        vals = []
        for _ in range(20):
            yp = rng.uniform(-0.4, 0.4, 2)
            base = small_bump_hs.boundary.surface_point(yp)
            t = rng.uniform(q.delta_min, rho)
            x = base - t * small_bump_hs.outward_normal(base)
            vals.append(abs_flux(q, small_bump_hs, x))
        assert np.isfinite(vals).all()
        assert max(vals) < 1.0 * c_ep  # fitted prefactor stays modest

    def test_abs_flux_rho_trend(self, small_bump_quad, small_bump_hs):
        base = small_bump_hs.boundary.surface_point(np.array([0.1, 0.0]))
        nrm = small_bump_hs.outward_normal(base)
        ts = [0.3, 0.15, 0.08, 0.05]
        vals = [abs_flux(small_bump_quad, small_bump_hs, base - t * nrm) for t in ts]
        assert np.isfinite(vals).all()
        assert max(vals) < 2.0  # bounded as the probe approaches the wall


class TestTraceS:
    def test_flat_zero_everywhere(self, flat_quad, flat_hs, rng):
        g = gauss_dens(6.0, 64)
        for _ in range(5):
            x0 = np.array([*rng.uniform(-1.5, 1.5, 2), 0.0])
            assert trace_S(flat_quad, flat_hs, g, x0) == 0.0

    def test_amplitude_scaling(self):
        # halving the bump amplitude halves S g (leading order in the
        # Hessian), checked at a far target
        from helmdecomp import BoundaryFunction, PerturbedHalfSpace

        vals = {}
        for a in (0.02, 0.01):
            b = BoundaryFunction.smooth_bump(a, 0.3)
            hs = PerturbedHalfSpace(b, reach_estimate=0.3)
            q = SurfaceQuadrature(hs, 8.0, 64)
            g = BoundaryDensity(8.0, np.ones((64, 64)))
            x0 = np.array([3.0, 0.0, 0.0])  # |x0'| = 10 R_h
            vals[a] = trace_S(q, hs, g, x0)
        ratio = vals[0.02] / vals[0.01]
        assert abs(ratio - 2.0) < 0.2

    def test_jump_relation_bump(self, small_bump_hs):
        q = SurfaceQuadrature(small_bump_hs, 2.0, 128)
        g = gauss_dens(2.0, 128, w=0.11)
        x0 = small_bump_hs.boundary.surface_point(np.array([0.078125, 0.0]))
        est, raw, order = trace_limit_Q(q, small_bump_hs, g, x0)
        gv = np.exp(-np.sum(x0[:2] ** 2) / 0.11)
        target = 0.5 * gv - trace_S(q, small_bump_hs, g, x0)
        assert order >= 0.8
        assert abs(est - target) < 5e-3 * np.abs(g.values).max()

    def test_linearity(self, small_bump_quad, small_bump_hs, rng):
        g1 = gauss_dens(2.0, 64, w=0.1)
        g2 = BoundaryDensity.sample(2.0, 64,
                                    lambda p: p[..., 0] * np.exp(-np.sum(p * p, -1) / 0.08))
        both = BoundaryDensity(2.0, 2.0 * g1.values - 1.5 * g2.values)
        x0 = small_bump_hs.boundary.surface_point(np.array([0.1, -0.05]))
        lhs = trace_S(small_bump_quad, small_bump_hs, both, x0)
        rhs = (2.0 * trace_S(small_bump_quad, small_bump_hs, g1, x0)
               - 1.5 * trace_S(small_bump_quad, small_bump_hs, g2, x0))
        assert abs(lhs - rhs) < 1e-12

    def test_norms_zero_cases(self, flat_quad, flat_hs, small_bump_quad, small_bump_hs):
        gz = BoundaryDensity(6.0, np.zeros((64, 64)))
        assert trace_S_norms(flat_quad, flat_hs, gz) == (0.0, 0.0, 0.0)
        gflat = gauss_dens(6.0, 64)
        assert trace_S_norms(flat_quad, flat_hs, gflat)[0] == 0.0

    def test_branch_restriction_immaterial(self, small_bump_quad, small_bump_hs):
        # restricting the integration to the bump neighborhood changes
        # nothing for flat-region targets: the flat-flat kernel vanishes
        # pointwise, so the full-boundary definition is used everywhere
        g = gauss_dens(2.0, 64, w=0.3)
        mask = np.linalg.norm(small_bump_quad.yp, axis=1) < 2 * 0.3
        g_restricted = BoundaryDensity(
            2.0, (g.values.ravel() * mask).reshape(64, 64))
        x0 = np.array([0.65, 0.0, 0.0])  # |x0'| > 2 R_h, on the flat part
        full = trace_S(small_bump_quad, small_bump_hs, g, x0)
        restricted = trace_S(small_bump_quad, small_bump_hs, g_restricted, x0)
        assert abs(full - restricted) < 1e-15

    def test_norms_regression_pinned(self, small_bump_quad, small_bump_hs):
        import json
        from pathlib import Path

        g = BoundaryDensity(2.0, np.ones((64, 64)))
        linf, lp, hminus = trace_S_norms(small_bump_quad, small_bump_hs, g)
        baseline_path = Path(__file__).parent / "data" / "trace_s_baseline.json"
        current = {"linf": linf, "lp": lp, "hminus": hminus}
        if not baseline_path.exists():
            pytest.fail(f"pinned baseline missing: {baseline_path}")
        baseline = json.loads(baseline_path.read_text())
        for key, val in current.items():
            assert abs(val - baseline[key]) < 1e-10 * max(1.0, abs(baseline[key]))


class TestOperatorBatch:
    def test_flat_flat_block_vanishes(self):
        # apply_S stores no S[F, F] block: both ends of such a pair lie on
        # the plane, so the lattice kernel must be exactly 0 there
        from helmdecomp._fast import dir_gradslp_rows
        from helmdecomp.layers import _assemble_s_blocks

        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(0.045, 0.475))
        q = SurfaceQuadrature(hs, 8.0, 48)
        bump, far = _assemble_s_blocks(q)[:2]
        assert 0 < len(bump) and 0 < len(far)
        gd = -hs.outward_normal(q.nodes[far])
        ff = dir_gradslp_rows(q.nodes[far], gd, q.nodes[far], q.weights[far],
                              -q.ctx.grad_const)
        assert np.all(ff == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_flat_s_is_zero(self, flat_hs, flat_quad, seed, scale):
        # apply_S returns 0 on a flat wall without assembling, and the
        # blocks it skips are exactly 0 as well
        from helmdecomp.layers import _assemble_s_blocks

        g = scale * np.random.default_rng(seed).standard_normal(flat_quad.res ** 2)
        assert not apply_S(flat_quad, flat_hs, g).any()
        B, _, rows, cols = _assemble_s_blocks(flat_quad)
        assert not (rows @ g).any() and not (cols @ g[B]).any()

    def test_apply_refuses_another_half_space(self, small_bump_quad, flat_hs):
        # S is that of the quadrature's own half space: a flat one, or another
        # bump of the same support, must not read q's blocks (or skip them)
        g = gauss_dens(2.0, 64, w=0.1).values
        other = PerturbedHalfSpace(BoundaryFunction.smooth_bump(0.02, 0.3), reach_estimate=0.3)
        for hs in (flat_hs, other):
            with pytest.raises(ValueError, match="half space"):
                apply_S(small_bump_quad, hs, g)

    def test_apply_matches_pointwise(self, small_bump_quad, small_bump_hs):
        g = gauss_dens(2.0, 64, w=0.1)
        vals = apply_S(small_bump_quad, small_bump_hs, g.values)
        for idx in (2080, 2512, 3000):
            x0 = small_bump_quad.nodes[idx]
            ref = trace_S(small_bump_quad, small_bump_hs, g, x0, refine=False)
            # matrix rows refine near-diagonal cells; compare against the
            # unrefined point value with a tolerance covering that gap
            assert abs(vals[idx] - ref) < 5e-4 * np.abs(g.values).max() + 1e-12
