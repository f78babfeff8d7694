from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from helmdecomp import BoxField, BoxGrid, _fast, sobolev
from helmdecomp.errors import NoAdmissibleBall, NonDecayingInput, ZeroFrequencyIll
from helmdecomp.geometry import box_wall, plateau, take_nodes
from helmdecomp.sobolev import (BoundaryDensity, bmo_seminorm, bnu_seminorm,
                                gagliardo_half, hs_norm_fourier, ledger_geometry,
                                lift_harmonic, lp_norm, pairing, th_pull, th_push,
                                vbmol2_norm)


def ledger(v, hs, mu, nu, samples):
    """vbmol2_norm of v on the ledger geometry of its grid and mask."""
    return vbmol2_norm(v, ledger_geometry(box_wall(hs, v.grid), v.inside_mask, mu, nu, samples))


def gaussian_density(extent=16.0, res=128):
    return BoundaryDensity.sample(extent, res, lambda p: np.exp(-np.sum(p * p, -1)))


def _hs_norm_ref(f, s, rings, sub=4):
    """hs_norm_fourier with every weight computed in the call."""
    dxi = 2.0 * np.pi / f.extent
    xi1, xi2 = sobolev._freq_axes(f)
    contrib = sobolev._singular_weights(xi1, xi2, s, dxi) * sobolev._abs_fhat2(f) * dxi**2
    total = float(contrib.sum())
    if s == -0.5:
        near = np.hypot(xi1, xi2) <= rings * dxi + 1e-12
        total -= float(contrib[near].sum())
        dsub = dxi / sub
        off = (np.arange(sub) + 0.5) * dsub - dxi / 2.0
        ox, oy = np.meshgrid(off, off, indexing="ij")
        flat = (np.stack([xi1[near], xi2[near]], axis=-1)[:, None, :]
                + np.stack([ox.ravel(), oy.ravel()], axis=-1)[None]).reshape(-1, 2)
        wsub = sobolev._inv_dist_rect(flat[:, 0] - dsub / 2, flat[:, 0] + dsub / 2,
                                      flat[:, 1] - dsub / 2, flat[:, 1] + dsub / 2)
        p2s = sobolev._semidiscrete_fhat2(f, sobolev._separable_dft(f.axis(), flat))
        total += float(np.sum(wsub.reshape(near.sum(), -1) * p2s.reshape(near.sum(), -1)))
    return np.sqrt(total)


class TestFourierNorms:
    def test_plancherel_audit(self, rng):
        # pins the transform convention for the whole package
        for _ in range(5):
            c = rng.uniform(-2, 2, 2)
            w = rng.uniform(0.5, 1.5)
            f = BoundaryDensity.sample(
                16.0, 64, lambda p: np.exp(-np.sum((p - c) ** 2, -1) / w))
            fh = np.fft.fft2(f.values) * f.dx**2
            lhs = lp_norm(f, 2) ** 2
            rhs = np.sum(np.abs(fh) ** 2) * (2 * np.pi / f.extent) ** 2 / (2 * np.pi) ** 2
            assert abs(lhs - rhs) < 1e-6 * lhs

    def test_zero(self):
        f = BoundaryDensity(8.0, np.zeros((32, 32)))
        assert hs_norm_fourier(f, -0.5) == 0.0
        assert hs_norm_fourier(f, 0.5) == 0.0

    def test_gaussian_hminus_oracle(self):
        # fhat = pi exp(-|xi|^2/4) under the package convention
        f = gaussian_density()
        ref, _ = quad(lambda r: (np.pi * np.exp(-r * r / 4)) ** 2 * 2 * np.pi, 0, 50)
        ours = hs_norm_fourier(f, -0.5) ** 2
        assert abs(ours - ref) < 1e-3 * ref

    def test_gaussian_hhalf_oracle(self):
        f = gaussian_density()
        ref, _ = quad(lambda r: r**2 * (np.pi * np.exp(-r * r / 4)) ** 2 * 2 * np.pi,
                      0, 50)
        ours = hs_norm_fourier(f, 0.5) ** 2
        assert abs(ours - ref) < 2e-3 * ref

    def test_dilation_scaling(self):
        f = gaussian_density()
        f2 = BoundaryDensity.sample(16.0, 128, lambda p: np.exp(-4 * np.sum(p * p, -1)))
        ratio = hs_norm_fourier(f2, 0.5) / hs_norm_fourier(f, 0.5)
        assert abs(ratio - 2 ** (-0.5)) < 0.01 * 2 ** (-0.5)

    def test_nondecaying_raises(self):
        f = BoundaryDensity(8.0, np.ones((32, 32)))
        with pytest.raises(NonDecayingInput):
            hs_norm_fourier(f, 0.5)

    @pytest.mark.parametrize("res, extent, rings", [(44, 8.0, 4), (48, 6.0, 4), (33, 9.0, 8)])
    def test_cached_weights_equal_fresh_ones(self, res, extent, rings):
        # the lattice weights are kept per lattice: the cached ones, the
        # freshly computed ones and the norms of the uncached computation
        # agree exactly, on the first call and on the cached one
        f = BoundaryDensity.sample(extent, res,
                                   lambda p: np.exp(-3.0 * np.sum((p - 0.3) ** 2, -1)))
        for s in (-0.5, 0.5):
            first = hs_norm_fourier(f, s, origin_rings=rings)
            assert hs_norm_fourier(f, s, origin_rings=rings) == first == _hs_norm_ref(f, s, rings)
            cached = sobolev._fourier_weights(res, extent, s, rings, 4)
            fresh = sobolev._fourier_weights.__wrapped__(res, extent, s, rings, 4)
            # the last slot holds the separable DFT factors, None at s = 1/2
            assert (cached[-1] is None) == (fresh[-1] is None) == (s == 0.5)
            for a, b in zip(cached[:-1] + (cached[-1] or ()), fresh[:-1] + (fresh[-1] or ())):
                assert (a is None and b is None) or np.array_equal(a, b)
                assert a is None or not a.flags.writeable

    def test_unresolved_mean_raises(self):
        # a wide blob: almost all Hdot^{-1/2} mass sits in the origin cell
        f = BoundaryDensity.sample(8.0, 32, lambda p: np.exp(-np.sum(p * p, -1) / 6.0))
        with pytest.raises(ZeroFrequencyIll):
            hs_norm_fourier(f, -0.5, check_decay=False)


class TestGagliardo:
    def test_zero(self):
        f = BoundaryDensity(8.0, np.zeros((32, 32)))
        assert gagliardo_half(f) == 0.0

    def test_ratio_constant_across_functions(self):
        # Fourier and double-sum realizations differ by a fixed factor

        def bump(p):
            r2 = np.clip(np.sum(p * p, -1) / 2.5**2, 0.0, 1.0)
            inside = r2 < 1.0 - 1e-14
            u = np.where(inside, 1.0 - r2, 1.0)
            return np.where(inside, np.exp(1.0 - 1.0 / u), 0.0)

        fns = [
            lambda p: np.exp(-np.sum(p * p, -1)),
            bump,
            lambda p: np.exp(-np.sum((p - np.array([1.0, 0.5])) ** 2, -1)),
        ]
        ratios = []
        for fn in fns:
            f = BoundaryDensity.sample(14.0, 96, fn)
            ratios.append(hs_norm_fourier(f, 0.5) / gagliardo_half(f))
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.02

    def test_flat_graph_equals_plane(self, flat_hs):
        f = BoundaryDensity.sample(10.0, 48, lambda p: np.exp(-np.sum(p * p, -1)))
        plane = gagliardo_half(f)
        graph = gagliardo_half(th_push(f), hs=flat_hs)
        assert np.isclose(plane, graph, rtol=1e-12)


class TestGagliardoCache:
    @staticmethod
    def _norms_calls(hs, fn):
        """The three Gagliardo calls of one op of the norms benchmark."""
        f96 = BoundaryDensity.sample(14.0, 96, fn)
        f64 = BoundaryDensity.sample(10.0, 64, fn)
        return [gagliardo_half(f96), gagliardo_half(th_push(f64), hs=hs), gagliardo_half(f64)]

    @staticmethod
    def _flat(held):
        """The arrays and numbers of one _gagliardo_lattice entry, in order."""
        coords, geometry, self_w, ext_w = held
        return [coords, self_w, ext_w, *geometry]

    def test_held_arrays_are_read_only(self, bump_hs):
        for boundary in (None, bump_hs.boundary):
            held = self._flat(sobolev._gagliardo_lattice(24, 10.0, boundary))
            arrays = [a for a in held if isinstance(a, np.ndarray)]
            assert len(arrays) == 10
            assert not any(a.flags.writeable for a in arrays)

    def test_held_geometry_equals_a_fresh_build(self, bump_hs):
        for boundary in (None, bump_hs.boundary):
            held = self._flat(sobolev._gagliardo_lattice(32, 10.0, boundary))
            fresh = self._flat(sobolev._gagliardo_lattice.__wrapped__(32, 10.0, boundary))
            assert all(np.array_equal(a, b) for a, b in zip(held, fresh, strict=True))

    def test_two_boundaries_on_one_lattice(self, bump_hs, gentle_hs):
        # each boundary gets its own graph geometry, and a value as if alone
        f = th_push(gaussian_density(10.0, 32))
        got = [gagliardo_half(f, hs=h) for h in (bump_hs, gentle_hs, bump_hs)]
        assert got[0] == got[2] != got[1]
        coords = [sobolev._gagliardo_lattice(32, 10.0, h.boundary)[0]
                  for h in (bump_hs, gentle_hs)]
        assert not np.array_equal(*coords)
        sobolev._gagliardo_lattice.cache_clear()
        assert gagliardo_half(f, hs=gentle_hs) == got[1]

    def test_built_once_per_lattice_and_boundary(self, bump_hs):
        # three rounds of the norms benchmark's calls, whose three lattices
        # alternate: one build each, and one pair sum per call
        sobolev._gagliardo_lattice.cache_clear()
        fn = lambda p: np.exp(-np.sum((p - 0.3) ** 2, -1) / 0.5)  # noqa: E731
        with mock.patch.object(_fast, "gagliardo_geometry",
                               wraps=_fast.gagliardo_geometry) as build, \
                mock.patch.object(_fast, "gagliardo_pairs",
                                  wraps=_fast.gagliardo_pairs) as pairs:
            rounds = [self._norms_calls(bump_hs, fn) for _ in range(3)]
        assert build.call_count == 3
        assert pairs.call_count == 9
        assert rounds[0] == rounds[1] == rounds[2]


class TestPushPull:
    def test_roundtrip_bitwise(self):
        f = gaussian_density(8.0, 32)
        back = th_pull(th_push(f))
        assert np.array_equal(back.values, f.values)
        assert not back.on_graph

    def test_graph_norm_inequality(self, bump_hs, rng):
        # push-forward Gagliardo norm bounded by C_s(h) times the plane norm
        cs = bump_hs.boundary.lipschitz()
        for _ in range(10):
            c = rng.uniform(-1, 1, 2)
            w = rng.uniform(0.3, 1.0)
            f = BoundaryDensity.sample(
                10.0, 48, lambda p: np.exp(-np.sum((p - c) ** 2, -1) / w))
            plane = gagliardo_half(f)
            graph = gagliardo_half(th_push(f), hs=bump_hs)
            assert graph <= cs * plane * (1 + 1e-9)

    def test_duality_inequality(self, rng):
        for _ in range(20):
            c1, c2 = rng.uniform(-1.5, 1.5, (2, 2))
            w1, w2 = rng.uniform(0.4, 1.2, 2)
            f = BoundaryDensity.sample(14.0, 64,
                                       lambda p: np.exp(-np.sum((p - c1) ** 2, -1) / w1))
            g = BoundaryDensity.sample(14.0, 64,
                                       lambda p: np.exp(-np.sum((p - c2) ** 2, -1) / w2))
            lhs = abs(pairing(f, g))
            rhs = hs_norm_fourier(g, -0.5) * hs_norm_fourier(f, 0.5)
            assert lhs <= rhs * (1 + 1e-6)

    def test_embedding_l4(self, rng):
        # ||f||_{L^4} <= C ||f||_{Hdot^{1/2}} with one fitted constant
        ratios = []
        for _ in range(10):
            c = rng.uniform(-1, 1, 2)
            w = rng.uniform(0.3, 1.5)
            f = BoundaryDensity.sample(14.0, 64,
                                       lambda p: np.exp(-np.sum((p - c) ** 2, -1) / w))
            l4 = (np.sum(np.abs(f.values) ** 4) * f.dx**2) ** 0.25
            ratios.append(l4 / hs_norm_fourier(f, 0.5))
        fitted = max(ratios)
        assert np.all(np.asarray(ratios) <= fitted * (1 + 1e-12))
        assert fitted < 10.0

    def test_multiplication_rule(self, rng):
        # cutoff multipliers act boundedly with the plateau-scaled constant
        base = BoundaryDensity.sample(14.0, 64, lambda p: np.exp(-np.sum(p * p, -1) / 1.5))
        nb = hs_norm_fourier(base, 0.5)
        ratios = []
        for rho in (1.0, 2.0, 3.0):
            zeta = BoundaryDensity.sample(
                14.0, 64, lambda p: 1.0 - plateau(np.linalg.norm(p, axis=-1) / rho))
            prod = BoundaryDensity(14.0, zeta.values * base.values)
            bound = 1.0 + rho * np.abs(np.gradient(zeta.values, zeta.dx, axis=0)).max()
            ratios.append(hs_norm_fourier(prod, 0.5) / (bound * nb))
        fitted = max(ratios)
        assert fitted < 2.0


class TestLifting:
    def test_zero(self):
        f = BoundaryDensity(8.0, np.zeros((32, 32)))
        u = lift_harmonic(f)
        assert np.abs(u.data).max() == 0.0

    def test_trace_recovery(self):
        f = BoundaryDensity.sample(12.0, 64, lambda p: np.exp(-np.sum(p * p, -1)))
        u = lift_harmonic(f)
        k0 = int(np.argmin(np.abs(u.grid.axis(2))))
        assert abs(u.grid.axis(2)[k0]) < 1e-12
        err = np.abs(u.data[0][:, :, k0] - f.values).max()
        assert err < 1e-6 * np.abs(f.values).max()

    def test_harmonic_off_plane(self):
        f = BoundaryDensity.sample(12.0, 64, lambda p: np.exp(-np.sum(p * p, -1)))
        u = lift_harmonic(f)
        d = u.grid.dx[0]
        U = u.data[0]
        lap = (-6 * U[1:-1, 1:-1, 1:-1]
               + U[2:, 1:-1, 1:-1] + U[:-2, 1:-1, 1:-1]
               + U[1:-1, 2:, 1:-1] + U[1:-1, :-2, 1:-1]
               + U[1:-1, 1:-1, 2:] + U[1:-1, 1:-1, :-2]) / d**2
        z = u.grid.axis(2)[1:-1]
        away = np.abs(z) > 3 * d
        assert np.abs(lap[:, :, away]).max() < 2e-2 * np.abs(U).max() / d

    def test_energy_ratio(self):
        # physical-space Dirichlet energy against the half-order norm:
        # exact ratio 2 (2 pi)^{-(n-1)} = 1/(2 pi^2) at n = 3; the classical
        # unitary-free statement of the same identity (constant 8 pi^2)
        # corresponds to multiplying by (2 pi)^{n+1}
        f = BoundaryDensity.sample(12.0, 128, lambda p: np.exp(-np.sum(p * p, -1)))
        u = lift_harmonic(f)
        d = u.grid.dx
        U = u.data[0]
        gx, gy = np.gradient(U, d[0], d[1], axis=(0, 1))
        tang = np.sum(gx**2 + gy**2) * np.prod(d)
        dz = np.diff(U, axis=2) / d[2]  # staggered: the |x_n| kink sits on a node
        energy = tang + np.sum(dz**2) * np.prod(d)
        ratio = energy / hs_norm_fourier(f, 0.5) ** 2
        assert abs(ratio - 1.0 / (2 * np.pi**2)) < 0.01 / (2 * np.pi**2)
        converted = ratio * (2 * np.pi) ** 4
        assert abs(converted - 8 * np.pi**2) < 0.01 * 8 * np.pi**2


def box_with_mask(hs, fn, ncomp=1, lo=(-1.0, -1.0, -0.25), hi=(1.0, 1.0, 1.75), res=48):
    grid = BoxGrid(lo, hi, (res, res, res))
    return BoxField.sample(grid, hs, fn, ncomp=ncomp)


class TestBMO:
    def test_constant_zero(self, flat_hs):
        v = box_with_mask(flat_hs, lambda p: np.ones(p.shape[:-1]))
        assert bmo_seminorm(v, flat_hs, mu=0.3, samples=100) < 1e-13

    def test_linear_field_oracle(self, flat_hs):
        # ball mean oscillation of x_n is (3/8) r; sup over r < mu -> (3/8) mu
        v = box_with_mask(flat_hs, lambda p: p[..., 2],
                          lo=(-1, -1, 0.01), hi=(1, 1, 2.01), res=64)
        mu = 0.4
        est = bmo_seminorm(v, flat_hs, mu=mu, samples=400)
        # direct-summation oracle on one maximal admissible ball
        from helmdecomp.sobolev import _ball_nodes
        center = np.array([0.0, 0.0, 1.0])
        vals = take_nodes(v.data, _ball_nodes(v.grid, v.inside_mask, center, mu * 0.999))
        oracle = np.abs(vals - vals.mean()).mean()
        assert est <= 0.375 * mu * 1.05
        assert est > 0.8 * oracle

    def test_monotone_in_samples(self, flat_hs):
        v = box_with_mask(flat_hs, lambda p: np.sin(3 * p[..., 0]) * p[..., 2])
        a = bmo_seminorm(v, flat_hs, mu=0.3, samples=100, seed=7)
        b = bmo_seminorm(v, flat_hs, mu=0.3, samples=200, seed=7)
        assert b >= a

    @pytest.mark.parametrize("mu", [0.2, 0.4, 0.8])
    def test_distance_bound_matches_exact_distances(self, bump_hs, mu):
        # reference radii: every ball centre takes its exact distance
        from helmdecomp import sobolev
        v = box_with_mask(bump_hs, lambda p: np.sin(3 * p[..., 0]) * p[..., 2], res=32)
        g = v.grid
        rng = np.random.default_rng(4)
        idx = np.argwhere(v.inside_mask)
        picks = rng.integers(0, len(idx), size=150)
        fracs = rng.random(150)
        centers = np.stack([g.axis(ax)[idx[picks, ax]] for ax in range(3)], axis=-1)
        ref = []
        for center, u, d in zip(centers, fracs, bump_hs.signed_distance(centers)):
            edge = min(min(center[ax] - g.lower[ax], g.upper[ax] - g.dx[ax] - center[ax])
                       for ax in range(3))
            r = u * min(float(d), edge, mu)
            if r >= 2.5 * max(g.dx):
                ref.append((tuple(center), r))
        balls = []

        def record(grid, mask, center, r):
            balls.append((tuple(center), r))
            return ball_nodes(grid, mask, center, r)

        ball_nodes = sobolev._ball_nodes
        with mock.patch.object(sobolev, "_ball_nodes", record):
            bmo_seminorm(v, bump_hs, mu=mu, samples=150, seed=4)
        assert balls == ref

    def test_no_admissible_ball_raises(self, flat_hs):
        # radii below mu = 2 spacings all fall under the 2.5-spacing floor,
        # and an empty mask has no centre: standalone raises, the ledger reads 0
        v = box_with_mask(flat_hs, lambda p: np.sin(3 * p[..., 0]) * p[..., 2], ncomp=1)
        mu = 2.0 * max(v.grid.dx)
        empty = BoxField(v.grid, v.data, np.zeros_like(v.inside_mask))
        for field, m in ((v, mu), (empty, 0.3)):
            with pytest.raises(NoAdmissibleBall):
                bmo_seminorm(field, flat_hs, mu=m, samples=100)
            assert ledger(field, flat_hs, mu=m, nu=0.1, samples=100).bmo == 0.0
        assert ledger(v, flat_hs, mu=0.3, nu=0.1, samples=100).bmo > 0.0


class TestBnu:
    def test_zero(self, flat_hs):
        v = box_with_mask(flat_hs, lambda p: np.zeros(p.shape[:-1]))
        assert bnu_seminorm(v, flat_hs, nu=0.2, samples=100) == 0.0

    def test_half_ball_constant(self, flat_hs):
        # r^{-3} * |half ball| = (2/3) pi independent of r
        v = box_with_mask(flat_hs, lambda p: np.ones(p.shape[:-1]),
                          lo=(-1.5, -1.5, -0.5), hi=(1.5, 1.5, 2.5), res=64)
        est = bnu_seminorm(v, flat_hs, nu=0.45, samples=300)
        assert abs(est - 2 * np.pi / 3) < 0.08 * 2 * np.pi / 3

    def test_distance_field(self, flat_hs):
        # integrand d(x) = x_n: oracle on one boundary ball of radius r:
        # r^{-3} int_{half B_r} x_n = r^{-3} * pi r^4 / 4 = pi r / 4, sup at nu
        v = box_with_mask(flat_hs, lambda p: np.clip(p[..., 2], 0, None),
                          lo=(-1.5, -1.5, -0.5), hi=(1.5, 1.5, 2.5), res=64)
        nu = 0.45
        est = bnu_seminorm(v, flat_hs, nu=nu, samples=300)
        assert abs(est - np.pi * nu / 4) < 0.15 * np.pi * nu / 4


class TestLedger:
    def test_zero_field(self, flat_hs):
        v = box_with_mask(flat_hs, lambda p: np.zeros(p.shape[:-1] + (3,)), ncomp=3)
        led = ledger(v, flat_hs, mu=0.2, nu=0.1, samples=50)
        assert led.l2 == 0.0 and led.bmo == 0.0 and led.bnu == 0.0 and led.linf == 0.0

    def test_l2_scaling(self, flat_hs):
        def fn(p):
            return np.stack([np.exp(-np.sum(p * p, -1))] * 3, -1)

        v = box_with_mask(flat_hs, fn, ncomp=3)
        v2 = BoxField(v.grid, 2.0 * v.data, v.inside_mask)
        a = ledger(v, flat_hs, mu=0.2, nu=0.1, samples=50)
        b = ledger(v2, flat_hs, mu=0.2, nu=0.1, samples=50)
        assert np.isclose(b.l2, 2 * a.l2)

    def test_unit_normal_field_bnu(self, flat_hs):
        # normal component 1 near the flat boundary: bnu piece is the
        # half-ball constant; nu must sit inside the rho0-tube
        def fn(p):
            out = np.zeros(p.shape[:-1] + (3,))
            out[..., 2] = 1.0
            return out

        v = box_with_mask(flat_hs, fn, ncomp=3,
                          lo=(-1.25, -1.25, -0.25), hi=(1.25, 1.25, 1.75), res=96)
        led = ledger(v, flat_hs, mu=0.1, nu=0.999 * flat_hs.rho0, samples=400)
        assert abs(led.bnu - 2 * np.pi / 3) < 0.2 * 2 * np.pi / 3
