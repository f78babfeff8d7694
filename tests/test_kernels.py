import numpy as np
import pytest
from scipy.integrate import quad

from helmdecomp import BoundaryFunction, KernelContext, PerturbedHalfSpace
from helmdecomp.errors import SingularPoint
from helmdecomp.kernels import grad_E, poisson_kernel, unit_ball_volume
from helmdecomp.layers import SurfaceQuadrature

from reference import E_eval, kernel_K0_and_R, neumann_green


@pytest.fixture(scope="module")
def ctx():
    return KernelContext(3)


@pytest.fixture(scope="module")
def bump_quad(bump_hs):
    return SurfaceQuadrature(bump_hs, 2.0, 16)


def dE_dny(q, x, yp):
    """dE/dn_y(x - y) at the graph points y over yp, as the quadrature sums it:
    SurfaceQuadrature._kern_dEdny on its _surface samples, over omega."""
    y, om, gh = q._surface(np.atleast_2d(np.asarray(yp, dtype=float)))
    return q._kern_dEdny(np.asarray(x, dtype=float), y, om, gh) / om


class TestFundamentalSolution:
    def test_n3_normalization(self, ctx):
        val = E_eval(ctx, np.array([0.0, 0.0, 1.0]))
        assert abs(val - 1.0 / (4 * np.pi)) < 1e-14

    def test_homogeneity_degree(self, ctx):
        x = np.array([0.3, -0.4, 0.2])
        for lam in (0.5, 2.0, 10.0):
            assert np.isclose(E_eval(ctx, lam * x), lam ** (-1) * E_eval(ctx, x))

    def test_n4_against_ball_volume(self):
        # b1(4) = pi^2/2, cross-checked by Monte Carlo
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(200_000, 4))
        frac = np.mean(np.sum(pts**2, axis=1) <= 1.0)
        mc = frac * 2.0**4
        assert abs(mc - np.pi**2 / 2) < 0.05
        ctx4 = KernelContext(4)
        val = E_eval(ctx4, np.array([0, 0, 0, 1.0]))
        assert abs(val - 1.0 / (4 * np.pi**2)) < 1e-14

    def test_singular_origin(self, ctx):
        with pytest.raises(SingularPoint):
            E_eval(ctx, np.zeros(3))

    def test_discrete_harmonicity(self, ctx, rng):
        h = 1e-3
        for _ in range(20):
            x = rng.uniform(-2, 2, 3)
            if np.linalg.norm(x) < 0.5:
                continue
            lap = -6.0 * E_eval(ctx, x)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                lap += E_eval(ctx, x + e) + E_eval(ctx, x - e)
            scale = E_eval(ctx, x) / np.sum(x * x)
            assert abs(lap / h**2) < 1e-4 * abs(scale) * 100


class TestGradE:
    def test_unit_axis(self, ctx):
        g = grad_E(ctx, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(g, [0, 0, -1 / (4 * np.pi)])

    def test_antisymmetry(self, ctx, rng):
        x = rng.standard_normal(3)
        assert np.allclose(grad_E(ctx, -x), -grad_E(ctx, x))

    def test_finite_difference_oracle(self, ctx):
        x = np.array([1.0, 1.0, 1.0])
        h = 1e-5
        fd = np.array([
            (E_eval(ctx, x + np.eye(3)[k] * h) - E_eval(ctx, x - np.eye(3)[k] * h)) / (2 * h)
            for k in range(3)])
        assert np.abs(grad_E(ctx, x) - fd).max() < 1e-8

    def test_homogeneity(self, ctx):
        x = np.array([0.2, 0.5, -0.1])
        for lam in (0.5, 2.0, 10.0):
            assert np.allclose(grad_E(ctx, lam * x), lam ** (-2) * grad_E(ctx, x))


class TestNormalDerivative:
    def test_flat_reduces_to_half_poisson(self, ctx, flat_quad, rng):
        for _ in range(20):
            xp = rng.uniform(-1, 1, 2)
            yp = rng.uniform(-1, 1, 2)
            t = rng.uniform(0.1, 2.0)
            x = np.array([*xp, t])
            val = dE_dny(flat_quad, x, yp)
            assert np.isclose(val, -0.5 * poisson_kernel(ctx, t, xp - yp))

    def test_directly_below(self, flat_quad):
        val = dE_dny(flat_quad, np.array([0.0, 0.0, 1.0]), np.zeros(2))
        assert abs(val + 1.0 / (4 * np.pi)) < 1e-14

    def test_both_on_flat_boundary(self, flat_quad):
        val = dE_dny(flat_quad, np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.1]))
        assert val == 0.0

    def test_consistency_with_grad(self, ctx, bump_hs, bump_quad, rng):
        # dE/dn_y(x-y) == -n(y) . grad_E(x-y); fixed sign convention
        for _ in range(1000 // 50):
            yp = rng.uniform(-0.5, 0.5, (50, 2))
            y = bump_hs.boundary.surface_point(yp)
            x = y + rng.uniform(0.1, 1.0, (50, 1)) * np.array([0.1, -0.2, 1.0])
            n = bump_hs.outward_normal(y)
            lhs = dE_dny(bump_quad, x, yp)
            rhs = -np.einsum("pc,pc->p", n, grad_E(ctx, x - y))
            assert np.abs(lhs - rhs).max() < 1e-12


class TestKernelSplit:
    def test_flat_remainder_vanishes(self, ctx, flat_hs):
        k0, rem = kernel_K0_and_R(ctx, flat_hs, np.array([0.1, 0.0, 0.4]),
                                  np.array([0.3, 0.2, 0.0]))
        assert rem == 0.0

    def test_reconstructs_normal_kernel(self, ctx, bump_hs, bump_quad):
        x0 = bump_hs.boundary.surface_point(np.array([0.1, 0.05]))
        x = x0 - 0.3 * bump_hs.outward_normal(x0)
        y = bump_hs.project_to_boundary(x0 + np.array([0.1, 0.0, 0.0]),
                                        check_reach=False)
        k0, rem = kernel_K0_and_R(ctx, bump_hs, x, y)
        om = np.sqrt(1 + np.sum(bump_hs.boundary.gradient(y[:2]) ** 2))
        recon = -dE_dny(bump_quad, x, y[:2])[0] * om / ctx.grad_const
        assert abs((k0 + rem) - recon) < 1e-10 * max(1.0, abs(recon))

    def test_quadratic_remainder_exact(self, ctx):
        # locally quadratic h: Taylor remainder is c |x'-y'|^2 exactly
        c = 0.3

        class Quadratic:
            def jet(self, r):
                return c * r * r, 2.0 * c * r, np.full_like(r, 2.0 * c)

        b = BoundaryFunction(Quadratic(), support_radius=10.0, curvature_bound=1.0)
        hs = PerturbedHalfSpace(b, rho0=0.05, reach_estimate=1.0)
        x = np.array([0.1, 0.05, 0.5])
        y = b.surface_point(np.array([0.3, -0.2]))
        _, rem = kernel_K0_and_R(ctx, hs, x, y)
        dist2 = np.sum((x[:2] - y[:2]) ** 2)
        den = (dist2 + (x[2] - y[2]) ** 2) ** 1.5
        assert abs(rem - c * dist2 / den) < 1e-14

    def test_remainder_bound(self, ctx, bump_hs):
        # own generator, seeded as the session fixture, so the draws do not
        # depend on which tests ran first
        rng = np.random.default_rng(20240817)
        hess_sup = bump_hs.boundary.sup_norms()[2]
        for _ in range(50):
            xp = rng.uniform(-0.45, 0.45, 2)
            yp = rng.uniform(-0.45, 0.45, 2)
            if np.linalg.norm(xp - yp) < 1e-3:
                continue
            x = bump_hs.boundary.surface_point(xp) + np.array([0, 0, 0.2])
            y = bump_hs.boundary.surface_point(yp)
            _, rem = kernel_K0_and_R(ctx, bump_hs, x, y)
            bound = hess_sup * np.linalg.norm(xp - yp) ** (2 - 3)
            assert abs(rem) <= bound * (1 + 1e-9)

    def test_remainder_bound_far_pairs(self, ctx, bump_hs):
        # fixed pairs at |x'-y'| > 1 with R != 0; random draws in the box
        # above reach that range only by chance, and mostly off the bump
        half_hess = 0.5 * bump_hs.boundary.sup_norms()[2]
        pairs = [((0.1, 0.0), (-1.2, 0.3)),   # x' in the bump support, y' outside
                 ((1.3, -0.4), (0.2, 0.1))]   # y' in the support, where grad h != 0
        for xp, yp in pairs:
            xp, yp = np.array(xp), np.array(yp)
            dist = np.linalg.norm(xp - yp)
            assert dist > 1.0
            x = bump_hs.boundary.surface_point(xp) + np.array([0, 0, 0.2])
            y = bump_hs.boundary.surface_point(yp)
            _, rem = kernel_K0_and_R(ctx, bump_hs, x, y)
            assert 0.0 < abs(rem) <= half_hess * dist ** (2 - 3)


class TestPoissonKernel:
    def test_unit_mass_quadrature(self, ctx):
        t = 0.5
        val, _ = quad(lambda r: poisson_kernel(ctx, t, np.array([r, 0.0]))
                      * 2 * np.pi * r, 0, np.inf, limit=200)
        assert abs(val - 1.0) < 1e-6

    def test_peak_value(self, ctx):
        t = 0.7
        peak = poisson_kernel(ctx, t, np.zeros(2))
        assert np.isclose(peak, 2.0 * t ** (1 - 3) / (3 * unit_ball_volume(3)))

    def test_scaling(self, ctx, rng):
        z = rng.standard_normal(2)
        t, lam = 0.4, 2.5
        assert np.isclose(poisson_kernel(ctx, lam * t, lam * z),
                          lam ** (1 - 3) * poisson_kernel(ctx, t, z))


class TestNeumannGreen:
    def test_boundary_source_doubles(self, ctx, rng):
        x = np.array([0.2, -0.1, 0.8])
        y = np.array([0.5, 0.3, 0.0])
        assert np.isclose(neumann_green(ctx, x, y), 2.0 * E_eval(ctx, x - y))

    def test_positive(self, ctx, rng):
        for _ in range(20):
            x = rng.uniform(-1, 1, 3)
            x[2] = abs(x[2]) + 0.1
            y = np.array([*rng.uniform(-1, 1, 2), 0.0])
            assert neumann_green(ctx, x, y) > 0

    def test_normal_derivative_is_poisson(self, ctx):
        # -d/dx_n N(x, y)|_{x_n -> 0+} tends to the full Poisson kernel
        y = np.array([0.0, 0.0, 0.0])
        zp = np.array([0.4, -0.2])
        t = 1e-4
        h = 1e-6
        xa = np.array([*zp, t + h])
        xb = np.array([*zp, t - h])
        fd = -(neumann_green(ctx, xa, y) - neumann_green(ctx, xb, y)) / (2 * h)
        assert abs(fd - poisson_kernel(ctx, t, zp)) < 1e-6
