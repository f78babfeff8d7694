import numpy as np
import pytest

from helmdecomp import BoundaryFunction
from helmdecomp.errors import NotContractive
from helmdecomp.layers import SurfaceQuadrature, grad_single_layer
from helmdecomp.neumann import (NeumannSolution, estimate_contraction, smallness_constants,
                                solve_density)
from helmdecomp.sobolev import BoundaryDensity


def gauss_dens(extent, res, w=0.1):
    return BoundaryDensity.sample(extent, res, lambda p: np.exp(-np.sum(p * p, -1) / w))


class TestSmallnessArithmetic:
    def test_flat_all_zero(self):
        rep = smallness_constants(BoundaryFunction.zero())
        assert rep.C_s == 1.0 and rep.C_1 == 1.0
        assert rep.C_star_1 == 0.0 and rep.C_star_2 == 0.0 and rep.C_star == 0.0
        assert rep.first_condition
        assert rep.verdict(1.0)["second"]
        assert rep.verdict(1e6)["second"]

    def test_first_condition_threshold(self):
        # support-radius powers computed with exact arithmetic
        assert abs(0.4 ** (5.0 / 6.0) - 0.46599722) < 1e-7
        assert 0.4 ** (5.0 / 6.0) < 0.5
        assert 0.6 ** (5.0 / 6.0) > 0.5

        class FakeBump(BoundaryFunction):
            pass

        for rh, expect in ((0.4, True), (0.6, False)):
            b = BoundaryFunction.smooth_bump(1e-4, rh)
            rep = smallness_constants(b)
            assert rep.R_h == rh
            assert rep.first_condition is expect

    def test_amplitude_scaling_of_linear_terms(self):
        # halving the amplitude halves the Hessian-linear constants
        r1 = smallness_constants(BoundaryFunction.smooth_bump(0.01, 0.3))
        r2 = smallness_constants(BoundaryFunction.smooth_bump(0.005, 0.3))
        hess1 = BoundaryFunction.smooth_bump(0.01, 0.3).sup_norms()[2]
        lin1 = (0.3 + 0.3 ** (1 / 6)) * hess1
        assert abs(r1.C_star_2 - r2.C_star_2 * 2) < 0.02 * r1.C_star_2 + \
            2 * (0.3 ** 2 + 1) * 0.0  # C1-norm part scales linearly too
        ratio = (r1.C_star_2) / (r2.C_star_2)
        assert abs(ratio - 2.0) < 0.02

    def test_verdict_combines_gates(self):
        rep = smallness_constants(BoundaryFunction.smooth_bump(0.01, 0.3))
        rep.empirical_2S_norm = 0.03
        v = rep.verdict(1.0)
        assert v["first"] and v["empirical"]
        assert not v["second"]  # C_star for this bump is far above 1/2
        assert not v["ok"]
        v2 = rep.verdict(1.0 / (4 * rep.C_star))
        assert v2["second"] and v2["ok"]


class TestContraction:
    def test_flat_zero_norm(self, flat_quad):
        assert estimate_contraction(flat_quad, steps=5) == 0.0

    def test_small_bump_contracts(self, small_bump_quad):
        c = estimate_contraction(small_bump_quad)
        assert 0.0 < c < 1.0

    def test_matches_series_decay(self, small_bump_quad):
        c = estimate_contraction(small_bump_quad)
        g = gauss_dens(2.0, 64)
        sol = solve_density(small_bump_quad, g, contraction=c)
        decay = [b / a for a, b in zip(sol.increments[1:-1], sol.increments[2:])]
        assert decay  # geometric regime reached
        rel = abs(np.median(decay) - c) / c
        assert rel < 0.2


class TestSeries:
    def test_flat_single_term(self, flat_quad):
        g = gauss_dens(6.0, 64, w=0.5)
        sol = solve_density(flat_quad, g, contraction=0.0)
        assert sol.series_terms_used == 1
        assert np.abs(sol.density.values - 2 * g.values).max() == 0.0
        assert sol.residual < 1e-14

    def test_linearity(self, small_bump_quad):
        g = gauss_dens(2.0, 64)
        sol1 = solve_density(small_bump_quad, g, contraction=0.05)
        g3 = BoundaryDensity(2.0, 3.0 * g.values)
        sol3 = solve_density(small_bump_quad, g3, contraction=0.05)
        assert np.abs(sol3.density.values - 3 * sol1.density.values).max() < 1e-10

    def test_fixed_point_residual(self, small_bump_quad):
        g = gauss_dens(2.0, 64)
        sol = solve_density(small_bump_quad, g, tol=1e-8,
                            contraction=0.05)
        assert sol.residual <= 1e-8 * np.abs(g.values).max() * 10

    def test_not_contractive_refuses(self, small_bump_quad):
        g = gauss_dens(2.0, 64)
        with pytest.raises(NotContractive):
            solve_density(small_bump_quad, g, contraction=1.2)

    def test_max_iterations_carries_partial(self, small_bump_quad):
        from helmdecomp.errors import MaxIterations

        g = gauss_dens(2.0, 64)
        with pytest.raises(MaxIterations) as exc:
            solve_density(small_bump_quad, g, tol=1e-300, kmax=3,
                          contraction=0.05)
        assert isinstance(exc.value.solution, NeumannSolution)
        assert exc.value.solution.series_terms_used == 3

    @pytest.mark.parametrize("quad", ["flat_quad", "small_bump_quad"])
    def test_nan_density_stops_at_kmax(self, request, quad):
        # a NaN increment neither counts as a term nor falls below the tol:
        # the series still stops after kmax - 1 applications of S (on the
        # flat wall, where S g = 0, as on the bump)
        from helmdecomp.errors import MaxIterations

        q = request.getfixturevalue(quad)
        values = gauss_dens(q.extent, q.res).values.copy()
        values[q.res // 2, q.res // 2] = np.nan
        with pytest.raises(MaxIterations, match="kmax=64") as exc:
            solve_density(q, BoundaryDensity(q.extent, values), contraction=0.05)
        assert np.isnan(exc.value.solution.residual)

    @pytest.mark.parametrize("quad", ["flat_quad", "small_bump_quad"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_density_stops_at_kmax(self, request, quad, bad):
        # sup |g| is inf, so tol sup |g| is no stopping rule: on the flat
        # wall S g = 0 would meet it at once.  The series runs to kmax, as
        # a NaN one does
        from helmdecomp.errors import MaxIterations

        q = request.getfixturevalue(quad)
        values = gauss_dens(q.extent, q.res).values.copy()
        values[q.res // 2, q.res // 2] = bad
        with pytest.raises(MaxIterations, match="kmax=64") as exc:
            solve_density(q, BoundaryDensity(q.extent, values), contraction=0.05)
        assert not np.isfinite(exc.value.solution.residual)


class TestNeumannGradient:
    def test_zero_data(self, flat_quad):
        g = BoundaryDensity(6.0, np.zeros((64, 64)))
        sol = solve_density(flat_quad, g, contraction=0.0)
        val = grad_single_layer(flat_quad, sol.density, np.array([0.1, 0.0, 0.5]))
        assert np.all(val == 0.0)

    def test_flat_matches_green_solution(self, flat_hs):
        # flat solve collapses to u = 2 SLP(g); cross-check the gradient
        # against the Fourier-side field of the half-space solution:
        # dz u-hat = -e^{-z|xi|} ghat, which on rays through shifted centers
        # reduces to a 1-d radial quadrature
        from scipy.integrate import quad as squad

        q = SurfaceQuadrature(flat_hs, 16.0, 128)
        w = 1.0
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            c = rng.uniform(-1.5, 1.5, 2)
            g = BoundaryDensity.sample(
                16.0, 128, lambda p: np.exp(-np.sum((p - c) ** 2, -1) / w))
            sol = solve_density(q, g, contraction=0.0)
            zn = rng.uniform(0.6, 1.5)
            ref, _ = squad(lambda r: r * np.exp(-zn * r) * np.pi * w
                           * np.exp(-w * r * r / 4), 0, np.inf)
            ref *= -1.0 / (2 * np.pi)
            ours = grad_single_layer(q, sol.density, np.array([c[0], c[1], zn]))
            worst = max(worst, abs(ours[2] - ref))
        assert worst < 1e-3

    def test_boundary_condition_recovered(self, flat_hs):
        # n . grad u -> g along the inward normal; the known flat smoothing
        # deficit is removed before the Richardson step
        from helmdecomp.layers import poisson_smoothing_deficit

        q = SurfaceQuadrature(flat_hs, 12.0, 128)
        g = gauss_dens(12.0, 128, w=1.0)
        sol = solve_density(q, g, contraction=0.0)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            x0 = np.array([*rng.uniform(-1.5, 1.5, 2), 0.0])
            nrm = flat_hs.outward_normal(x0)
            d0 = 2 * q.delta_min
            vals = []
            for s in (1.0, 2.0):
                f = np.dot(nrm, grad_single_layer(q, sol.density, x0 - s * d0 * nrm))
                vals.append(f - 2.0 * poisson_smoothing_deficit(q, g, x0[:2], s * d0))
            val = 2 * vals[0] - vals[1]
            ref = np.exp(-np.sum(x0[:2] ** 2) / 1.0)
            worst = max(worst, abs(val - ref))
        assert worst < 0.02 * 1.0  # sup over probes within 2 percent

    def test_harmonicity_stencil(self, small_bump_quad, rng):
        g = gauss_dens(2.0, 64)
        sol = solve_density(small_bump_quad, g, contraction=0.05)
        h = 0.02
        for _ in range(8):
            x = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                          rng.uniform(0.4, 0.8)])
            div = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                div += (grad_single_layer(small_bump_quad, sol.density, x + e)
                        - grad_single_layer(small_bump_quad, sol.density, x - e)) \
                    * np.eye(3)[k] / (2 * h)
            scale = np.linalg.norm(
                grad_single_layer(small_bump_quad, sol.density, x)) / np.linalg.norm(x)
            assert abs(div.sum()) < 1e-4 + 1e-2 * scale
