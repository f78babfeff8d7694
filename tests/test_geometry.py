import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdecomp import BoundaryFunction, BoxField, BoxGrid, PerturbedHalfSpace
from helmdecomp.errors import NoUniqueProjection
from helmdecomp.geometry import box_wall, extend_field, interp_masked
from helmdecomp.sobolev import normal_component_field, normal_tube

from reference import OutOfChart, normal_coords_forward, normal_coords_inverse


def grid_search_closest(b, x, half=0.6, res=801):
    """Independent oracle: dense minimization of |x - (y', h(y'))|."""
    g = np.linspace(-half, half, res)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    yp = np.stack([gx.ravel(), gy.ravel()], -1)
    d2 = np.sum((x[:2] - yp) ** 2, -1) + (x[2] - b.height(yp)) ** 2
    i = np.argmin(d2)
    return yp[i], np.sqrt(d2[i])


class TestSignedDistance:
    def test_flat_is_height(self, flat_hs):
        assert flat_hs.signed_distance(np.array([0.0, 0.0, 1.0])) == 1.0

    def test_zero_on_graph(self, bump_hs):
        p = bump_hs.boundary.surface_point(np.array([0.1, -0.05]))
        assert abs(bump_hs.signed_distance(p)) < 1e-12

    def test_against_grid_oracle(self, bump_hs):
        x = np.array([0.0, 0.0, 0.5])
        _, dref = grid_search_closest(bump_hs.boundary, x)
        assert abs(bump_hs.signed_distance(x) - dref) < 1e-6

    def test_bounded_by_vertical_gap(self, bump_hs, rng):
        pts = rng.uniform(-1, 1, size=(200, 3))
        pts[:, 2] = rng.uniform(-0.5, 1.5, size=200)
        d = bump_hs.signed_distance(pts)
        gap = pts[:, 2] - bump_hs.boundary.height(pts[:, :2])
        assert np.all(np.abs(d) <= np.abs(gap) + 1e-12)
        assert np.all(np.sign(d) == np.sign(gap))

    @settings(max_examples=30, deadline=None)
    @given(u=st.tuples(st.floats(-1.25, 1.25), st.floats(-1.25, 1.25)),
           t=st.floats(-1.5, 1.5))
    def test_lipschitz_bound(self, bump_hs, gentle_hs, u, t):
        # |x_n - h(x')| / C_s <= |d| <= |x_n - h(x')|, the bound box_wall and
        # bmo_seminorm prefilter with; the steep bump takes the grid fallback.
        # Gaps whose square underflows (below about 1e-154) are drawn too
        for hs in (bump_hs, gentle_hs):
            b = hs.boundary
            xp = b.support_radius * np.array(u)
            x = np.array([xp[0], xp[1], float(b.height(xp)) + t])
            gap = abs(x[2] - float(b.height(xp)))
            d = abs(float(hs.signed_distance(x)))
            assert gap / b.lipschitz() <= d <= gap

    @pytest.mark.parametrize("gap", [1e-201, 1e-160, -1e-201])
    def test_underflowing_gap(self, bump_hs, gap):
        # over the steep bump's flat part, where the root of the sum of
        # squares read 0 for 1e-201 and 9.99994e-161 for 1e-160; box_wall
        # takes its d from the same helper
        x = np.array([[1.0, 1.0, gap]])
        assert bump_hs.signed_distance(x[0]) == gap
        assert bump_hs.signed_distance(x)[0] == gap
        assert bump_hs._distance(x, x[:, :2], np.array([gap * gap]))[0] == abs(gap)

    def test_outside_negative(self, bump_hs):
        assert bump_hs.signed_distance(np.array([0.0, 0.0, -0.2])) < 0


class TestProjection:
    def test_flat(self, flat_hs):
        pi = flat_hs.project_to_boundary(np.array([0.3, -0.2, 0.7]))
        assert np.allclose(pi, [0.3, -0.2, 0.0])

    def test_fixed_point_on_surface(self, bump_hs):
        p = bump_hs.boundary.surface_point(np.array([0.15, 0.1]))
        assert np.allclose(bump_hs.project_to_boundary(p), p, atol=1e-9)

    def test_against_grid_oracle(self, bump_hs):
        x = np.array([0.1, 0.0, 0.6])
        yp, _ = grid_search_closest(bump_hs.boundary, x)
        pi = bump_hs.project_to_boundary(x)
        assert np.linalg.norm(pi[:2] - yp) < 2e-3  # oracle grid spacing

    def test_beyond_reach_raises(self, small_bump_hs):
        with pytest.raises(NoUniqueProjection):
            small_bump_hs.project_to_boundary(np.array([0.0, 0.0, 50.0]))

    def test_roundtrip_identity(self, bump_hs, rng):
        # x == pi(x) - d(x) n(pi x) for 1000 tube points
        yp = rng.uniform(-0.7, 0.7, size=(1000, 2))
        t = rng.uniform(-0.02, 0.02, size=1000)
        base = bump_hs.boundary.surface_point(yp)
        pts = base - t[:, None] * bump_hs.outward_normal(base)
        d = bump_hs.signed_distance(pts)
        pi = bump_hs.project_to_boundary(pts, check_reach=False)
        recon = pi - d[:, None] * bump_hs.outward_normal(pi)
        err = np.linalg.norm(pts - recon, axis=1)
        assert err.max() < 1e-8 * (1.0 + np.linalg.norm(pts, axis=1)).max()

    @pytest.mark.parametrize("name", ["gentle_hs", "bump_hs"])
    def test_alone_equals_batched(self, request, name):
        # each point stops Newton on its own step, so neither its closest
        # point nor its distance depends on the points sharing its batch
        hs = request.getfixturevalue(name)
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(-1.2, 1.2, (2000, 2)), rng.uniform(-0.1, 0.6, 2000)])
        pi = hs.project_to_boundary(pts, check_reach=False)
        d = hs.signed_distance(pts)
        for i in range(400):
            x = pts[i:i + 1]
            assert hs.project_to_boundary(x, check_reach=False).tobytes() == pi[i:i + 1].tobytes()
            assert hs.signed_distance(x).tobytes() == d[i:i + 1].tobytes()


class TestNormals:
    def test_flat(self, flat_hs):
        n = flat_hs.outward_normal(np.array([1.0, 2.0, 0.0]))
        assert np.allclose(n, [0, 0, -1])

    def test_apex_critical_point(self, bump_hs):
        apex = bump_hs.boundary.surface_point(np.zeros(2))
        assert np.allclose(bump_hs.outward_normal(apex), [0, 0, -1])

    def test_finite_difference_oracle(self, bump_hs):
        b = bump_hs.boundary
        yp = np.array([0.2, 0.0])
        eps = 1e-6
        gh = np.array([
            (b.height(yp + [eps, 0]) - b.height(yp - [eps, 0])) / (2 * eps),
            (b.height(yp + [0, eps]) - b.height(yp - [0, eps])) / (2 * eps),
        ])
        ref = np.append(gh, -1.0)
        ref /= np.linalg.norm(ref)
        n = bump_hs.outward_normal(b.surface_point(yp))
        assert np.linalg.norm(n - ref) < 1e-6

    def test_unit_and_grad_d(self, bump_hs, rng):
        yp = rng.uniform(-0.5, 0.5, size=(50, 2))
        p = bump_hs.boundary.surface_point(yp)
        n = bump_hs.outward_normal(p)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
        gd = bump_hs.grad_distance(p)
        assert np.allclose(np.sum(n * gd, axis=1), -1.0)


class TestPresetDerivatives:
    """gradient and hessian of each preset against central differences of
    height and of gradient, at r = 0 (the p'' limit), inside the bump, in
    the Gaussian's taper [2s, 4s], near the smooth bump's edge R and beyond
    the support."""

    PRESETS = {
        "zero": BoundaryFunction.zero(),
        "smooth-bump": BoundaryFunction.smooth_bump(0.3, 0.4),
        "gaussian-bump": BoundaryFunction.gaussian_bump(0.05, 0.5),
    }
    RADII = {"origin": 0.0, "inside": 0.15, "taper": 1.5, "edge": 0.38, "beyond": 2.5}
    EPS = 1e-6

    @staticmethod
    def _central(f, yp, eps):
        """(d/dy1 f, d/dy2 f) at yp by central differences, stacked last."""
        steps = eps * np.eye(2)
        return np.stack([(f(yp + e) - f(yp - e)) / (2.0 * eps) for e in steps], axis=-1)

    @pytest.mark.parametrize("where", list(RADII))
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_against_central_differences(self, name, where):
        b = self.PRESETS[name]
        yp = self.RADII[where] * np.array([np.cos(0.7), np.sin(0.7)])
        grad = b.gradient(yp)
        hess = b.hessian(yp)
        assert hess.shape == (2, 2) and np.array_equal(hess, hess.T)
        fd_grad = self._central(b.height, yp, self.EPS)
        fd_hess = self._central(b.gradient, yp, self.EPS)
        assert np.abs(grad - fd_grad).max() <= 1e-9 * max(1.0, np.abs(grad).max())
        assert np.abs(hess - fd_hess).max() <= 1e-7 * max(1.0, np.abs(hess).max())
        if where == "beyond" or name == "zero":
            assert not grad.any() and not hess.any()


class TestNormalCoordinates:
    def test_flat_translation(self, flat_hs):
        z0 = np.array([0.5, -0.3, 0.0])
        eta = np.array([0.05, -0.02, 0.08])
        x = normal_coords_forward(flat_hs, z0, eta)
        assert np.allclose(x - z0, eta)

    def test_chart_axis(self, bump_hs):
        z0 = bump_hs.boundary.surface_point(np.array([0.1, 0.05]))
        t = 0.8 * bump_hs.rho0
        x = normal_coords_forward(bump_hs, z0, np.array([0.0, 0.0, t]))
        assert np.allclose(x, z0 - t * bump_hs.outward_normal(z0), atol=1e-12)

    def test_round_trip(self, bump_hs):
        z0 = bump_hs.boundary.surface_point(np.zeros(2))
        eta = bump_hs.rho0 * np.array([0.7, -0.35, 0.5])
        x = normal_coords_forward(bump_hs, z0, eta)
        back = normal_coords_inverse(bump_hs, z0, x)
        assert np.linalg.norm(back - eta) < 1e-8

    def test_out_of_chart(self, bump_hs):
        z0 = bump_hs.boundary.surface_point(np.zeros(2))
        with pytest.raises(OutOfChart):
            normal_coords_forward(bump_hs, z0, np.array([1.0, 0.0, 0.0]))

    def test_jacobian_near_identity(self, gentle_hs):
        # |grad F - I| stays below 0.5 across the chart at the working rho
        hs = gentle_hs
        z0 = hs.boundary.surface_point(np.array([0.3, 0.1]))
        rng = np.random.default_rng(5)
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            eta = rng.uniform(-0.5, 0.5, 3) * hs.rho0 * 0.9
            J = np.empty((3, 3))
            for k in range(3):
                e = np.zeros(3)
                e[k] = eps
                J[:, k] = (normal_coords_forward(hs, z0, eta + e)
                           - normal_coords_forward(hs, z0, eta - e)) / (2 * eps)
            worst = max(worst, np.abs(J - np.eye(3)).max())
        assert worst < 0.5


class TestCutoff:
    def test_plateau_and_support(self, bump_hs):
        rho = bump_hs.rho0 / 2.0
        on_gamma = bump_hs.boundary.surface_point(np.array([0.2, 0.0]))
        assert bump_hs.cutoff_theta(rho, bump_hs.signed_distance(on_gamma)) == 1.0
        far = on_gamma - rho * bump_hs.outward_normal(on_gamma)
        assert bump_hs.cutoff_theta(rho, bump_hs.signed_distance(far)) == 0.0

    def test_midpoint_value_and_monotone(self, flat_hs):
        rho = 0.07
        # quintic smoothstep midpoint of the ramp
        x = np.array([0.0, 0.0, 0.625 * rho])
        assert abs(flat_hs.cutoff_theta(rho, flat_hs.signed_distance(x)) - 0.5) < 1e-12
        ts = np.linspace(0.5 * rho, 0.75 * rho, 100)
        pts = np.stack([np.zeros(100), np.zeros(100), ts], -1)
        vals = flat_hs.cutoff_theta(rho, flat_hs.signed_distance(pts))
        assert np.all(np.diff(vals) <= 1e-15)

    def test_range_and_c1_along_line(self, bump_hs, rng):
        rho = bump_hs.rho0 / 2.0
        pts = rng.uniform(-0.6, 0.6, size=(200, 3))
        vals = bump_hs.cutoff_theta(rho, bump_hs.signed_distance(pts))
        assert np.all((vals >= 0) & (vals <= 1))
        # difference quotients along a line stay bounded (C^1 composite)
        ts = np.linspace(-2 * rho, 2 * rho, 400)
        line = np.stack([0.05 + 0 * ts, 0 * ts, bump_hs.boundary.height(
            np.array([0.05, 0.0])) + ts], -1)
        v = bump_hs.cutoff_theta(rho, bump_hs.signed_distance(line))
        dq = np.diff(v) / np.diff(ts)
        assert np.abs(np.diff(dq)).max() < 50.0 / rho  # no jumps in slope


class TestLipschitzGradD:
    def test_flat_zero(self, flat_hs, rng):
        pts = rng.uniform(-1, 1, (50, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.01
        gd = flat_hs.grad_distance(pts)
        assert np.allclose(gd, [0, 0, 1])

    def test_bounded_ratio(self, bump_hs, rng):
        yp = rng.uniform(-0.5, 0.5, (100, 2))
        base = bump_hs.boundary.surface_point(yp)
        x = base - rng.uniform(0.2, 1.0, 100)[:, None] * bump_hs.rho0 \
            * bump_hs.outward_normal(base)
        y = bump_hs.boundary.surface_point(rng.uniform(-0.5, 0.5, (100, 2)))
        num = np.linalg.norm(bump_hs.grad_distance(x) + bump_hs.outward_normal(y), axis=1)
        den = np.linalg.norm(x - y, axis=1)
        ratio = num / np.maximum(den, 1e-12)
        assert np.isfinite(ratio).all()
        assert ratio.max() < 100.0  # fitted once: measured ~6 for this bump


def interp_masked_ref(field, pts):
    """interp_masked by three index arrays per corner and a boolean write."""
    g = field.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    idx, frac = [], []
    for ax in range(3):
        t = (pts[:, ax] - g.lower[ax]) / g.dx[ax]
        i0 = np.clip(np.floor(t).astype(int), 0, g.resolution[ax] - 2)
        idx.append(i0)
        frac.append(np.clip(t - i0, 0.0, 1.0))
    out = np.zeros((field.ncomp, len(pts)))
    wsum = np.zeros(len(pts))
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                ii = (idx[0] + cx, idx[1] + cy, idx[2] + cz)
                w = (np.where(cx, frac[0], 1 - frac[0])
                     * np.where(cy, frac[1], 1 - frac[1])
                     * np.where(cz, frac[2], 1 - frac[2]))
                w = w * field.inside_mask[ii]
                out += w[None] * field.data[(slice(None),) + ii]
                wsum += w
    ok = wsum > 1e-12
    out[:, ok] /= wsum[ok]
    out[:, ~ok] = 0.0
    return out


class TestInterpMasked:
    @settings(max_examples=40, deadline=None)
    @given(res=st.tuples(*[st.integers(2, 9)] * 3), ncomp=st.sampled_from([1, 3]),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_index_array_form_bitwise(self, res, ncomp, density, seed):
        # random masks; points anywhere in the box, in its last cell, on its
        # upper faces and beyond it (clipped to the boundary cells)
        rng = np.random.default_rng(seed)
        grid = BoxGrid((-1.0, -0.5, 0.0), (1.0, 1.5, 3.0), res)
        field = BoxField(grid, rng.normal(size=(ncomp,) + res),
                         rng.uniform(size=res) < density)
        lo, hi = np.asarray(grid.lower), np.asarray(grid.upper)
        last = hi - np.asarray(grid.dx)
        pts = np.concatenate([
            rng.uniform(lo, hi, (40, 3)),
            rng.uniform(last - np.asarray(grid.dx), last, (10, 3)),
            np.broadcast_to(last, (1, 3)),
            rng.uniform(lo - 1.0, hi + 1.0, (20, 3)),
        ])
        got = interp_masked(field, pts)
        ref = interp_masked_ref(field, pts)
        assert got.shape == (ncomp, len(pts))
        assert got.tobytes() == ref.tobytes()


def _extended(hs, v, rho):
    """The extension of extend_field on the box: v inside, the mirror values
    of theta v at the outside tube nodes, 0 elsewhere."""
    index, values = extend_field(box_wall(hs, v.grid), v, rho)
    data = v.data * v.inside_mask
    data.reshape(v.ncomp, -1)[:, index] = values
    return BoxField(v.grid, data, v.inside_mask)


def _theta_v(wall, v, rho):
    """theta v on the box, theta the tube cutoff of the signed distance,
    which vanishes off the wall nodes."""
    theta = np.zeros(v.grid.resolution)
    theta.flat[wall.index] = wall.hs.cutoff_theta(rho, wall.distance)
    return BoxField(v.grid, v.data * theta, v.inside_mask)


class TestExtendField:
    @staticmethod
    def _make_field(hs, fn, res=48, lo=(-1.0, -1.0, -0.6), hi=(1.0, 1.0, 1.0)):
        grid = BoxGrid(lo, hi, (res, res, res))
        return BoxField.sample(grid, hs, fn, ncomp=3)

    @staticmethod
    def _planes(hs, v, rho):
        """The planes k_in, k_out one spacing above and below the flat wall,
        and theta at k_in: 1 for rho = 0.07, a ramp value for 0.06."""
        g = v.grid
        k0 = int(np.argmin(np.abs(g.axis(2))))
        k_in, k_out = k0 + 1, k0 - 1
        zin, zout = g.axis(2)[k_in], g.axis(2)[k_out]
        assert zin > 0 > zout and abs(zin + zout) < 1e-12
        theta = float(hs.cutoff_theta(rho, hs.signed_distance(np.array([0.0, 0.0, zin]))))
        assert theta == 1.0 if rho == 0.07 else 0.0 < theta < 1.0
        return k_in, k_out, theta

    # the mirror of a node below the flat wall is the node above it, where
    # theta v is read: the normal component of theta v flips sign across the
    # boundary, the tangential ones are kept
    def test_flat_constant_normal_is_odd(self, flat_hs):
        v = self._make_field(flat_hs, lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), p.shape).copy())
        for rho in (0.07, 0.06):
            vbar = _extended(flat_hs, v, rho)
            k_in, k_out, theta = self._planes(flat_hs, v, rho)
            assert np.allclose(vbar.data[2][:, :, k_out], -theta * vbar.data[2][:, :, k_in])
            assert np.allclose(vbar.data[:2][:, :, :, k_out], 0.0)

    def test_flat_tangential_is_even(self, flat_hs):
        v = self._make_field(flat_hs, lambda p: np.broadcast_to(
            np.array([1.0, 0.0, 0.0]), p.shape).copy())
        for rho in (0.07, 0.06):
            vbar = _extended(flat_hs, v, rho)
            k_in, k_out, theta = self._planes(flat_hs, v, rho)
            assert np.allclose(vbar.data[0][:, :, k_out], theta * vbar.data[0][:, :, k_in])
            assert np.allclose(vbar.data[1:][:, :, :, k_out], 0.0)

    def test_zero_beyond_tube(self, flat_hs):
        v = self._make_field(flat_hs, lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), p.shape).copy())
        rho = 0.07
        vbar = _extended(flat_hs, v, rho)
        pts = v.grid.points()
        deep = pts[..., 2] < -rho - max(v.grid.dx)
        assert np.abs(vbar.data[:, deep]).max() == 0.0

    def test_mirror_normal_component_flips(self, gentle_hs, rng):
        # at outside tube nodes over the gentle bump, each projected on its
        # own: the normal part of the extension is minus that of theta v at
        # the mirror point x* = 2 pi(x) - x, formed on the box, and the
        # tangential part is kept
        hs = gentle_hs

        def vfun(p):
            return np.stack([np.sin(p[..., 1]), 0.3 * p[..., 0], 1.0 + 0 * p[..., 2]], -1)

        grid = BoxGrid((-1.5, -1.5, -0.4), (1.5, 1.5, 1.1), (64, 64, 64))
        v = BoxField.sample(grid, hs, vfun, ncomp=3)
        rho = hs.rho0 / 2
        wall = box_wall(hs, grid)
        index, values = extend_field(wall, v, rho)
        pick = rng.choice(len(index), 100, replace=False)
        x = grid.node_points(index[pick])
        base = hs.project_to_boundary(x)
        gd = -hs.outward_normal(base)
        ustar = interp_masked(_theta_v(wall, v, rho), 2.0 * base - x)
        normal = np.einsum("cp,pc->p", ustar, gd)
        got = values[:, pick]
        assert np.abs(normal).max() > 0.5
        assert np.abs(np.einsum("cp,pc->p", got, gd) + normal).max() < 1e-9
        tangential = ustar - normal[None] * gd.T
        assert np.abs(got - np.einsum("cp,pc->p", got, gd)[None] * gd.T - tangential).max() < 1e-9

    def test_linearity(self, flat_hs, rng):
        def f1(p):
            return np.stack([np.sin(p[..., 0]), p[..., 2] ** 2, np.cos(p[..., 1])], -1)

        def f2(p):
            return np.stack([p[..., 1], np.exp(-p[..., 2] ** 2), p[..., 0]], -1)

        v1 = self._make_field(flat_hs, f1)
        v2 = self._make_field(flat_hs, f2)
        both = BoxField(v1.grid, 2.0 * v1.data + 3.0 * v2.data, v1.inside_mask)
        lhs = _extended(flat_hs, both, 0.07).data
        rhs = (2.0 * _extended(flat_hs, v1, 0.07).data
               + 3.0 * _extended(flat_hs, v2, 0.07).data)
        assert np.abs(lhs - rhs).max() < 1e-12


# the 32^3 criterion-7a box over the gentle bump, and a box around the steep
# reference bump whose z-lattice holds the plane z = 0 and cuts its thin tube
WALL_BOXES = {
    "gentle": BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (32, 32, 32)),
    "bump": BoxGrid((-0.6, -0.6, -0.1), (0.6, 0.6, 0.5), (24, 24, 96)),
}


@pytest.fixture(scope="module", params=sorted(WALL_BOXES))
def wall_case(request, gentle_hs, bump_hs):
    """(half space, grid, signed distance at every node, node points)."""
    hs = {"gentle": gentle_hs, "bump": bump_hs}[request.param]
    grid = WALL_BOXES[request.param]
    pts = grid.points().reshape(-1, 3)
    return hs, grid, hs.signed_distance(pts), pts


class TestBoxWall:
    def test_tube_is_every_node_within_rho0(self, wall_case):
        # the Lipschitz prefilter drops no node of the brute-force tube
        hs, grid, d, _ = wall_case
        wall = box_wall(hs, grid)
        expected = np.flatnonzero(np.abs(d) < hs.rho0)
        assert len(expected) > 0
        assert np.array_equal(wall.index, expected)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_reaches_the_asked_width(self, wall_case, scale):
        # every node with -rho0 < d < max(width, rho0), by brute force
        hs, grid, d, pts = wall_case
        width = scale * hs.rho0
        wall = box_wall(hs, grid, width)
        expected = np.flatnonzero((d > -hs.rho0) & (d < max(width, hs.rho0)))
        assert np.array_equal(wall.index, expected)
        assert wall.width == max(width, hs.rho0)
        assert np.abs(wall.distance - d[wall.index]).max() <= 1e-14
        if scale > 1.0:
            assert (wall.distance >= hs.rho0).any()
        # the normal part of the ledgers keeps to the rho0-tube
        v = BoxField.sample(grid, hs, lambda p: np.sin(p), ncomp=3)
        ref = normal_component_field(v, normal_tube(box_wall(hs, grid), v.inside_mask)).data
        got = normal_component_field(v, normal_tube(wall, v.inside_mask)).data
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_matches_pointwise_geometry(self, wall_case):
        hs, grid, d, pts = wall_case
        wall = box_wall(hs, grid)
        assert wall.hs is hs and wall.grid == grid
        assert np.array_equal(wall.points, pts[wall.index])
        assert np.abs(wall.distance - d[wall.index]).max() <= 1e-14
        pi = hs.project_to_boundary(wall.points, check_reach=False)
        assert np.abs(wall.closest - pi).max() <= 1e-14
        assert np.abs(wall.normal - hs.outward_normal(pi)).max() <= 1e-14
        h = hs.boundary.height(grid.points()[..., :2])
        assert np.array_equal(wall.height, h[:, :, 0])
        assert np.array_equal(wall.depth(), grid.points()[..., 2] - h)

    def test_box_clear_of_the_wall(self, gentle_hs):
        # no node within rho0: an empty tube, and the readers pass v through
        hs = gentle_hs
        grid = BoxGrid((-1.0, -1.0, 1.0), (1.0, 1.0, 3.0), (16, 16, 16))
        wall = box_wall(hs, grid)
        assert wall.index.size == 0 and wall.normal.shape == (0, 3)
        v = BoxField.sample(grid, hs, lambda p: np.sin(p), ncomp=3)
        index, values = extend_field(wall, v, hs.rho0 / 2)
        assert index.size == 0 and values.shape == (3, 0)
        assert not normal_component_field(v, normal_tube(wall, v.inside_mask)).data.any()
        # the cutoff still refuses a rho above rho0/2 on an empty tube
        with pytest.raises(ValueError, match="rho0/2"):
            extend_field(wall, v, hs.rho0)

    def test_normal_component_against_projection(self, wall_case):
        # grad d . v at each inside tube node, by a per-node projection
        hs, grid, d, pts = wall_case
        c = np.array([0.1, -0.05, 0.3])

        def vfun(p):
            return np.stack([p[..., 1] - c[1], np.sin(p[..., 0]), 1.0 + p[..., 2] ** 2], -1)

        v = BoxField.sample(grid, hs, vfun, ncomp=3)
        nc = normal_component_field(v, normal_tube(box_wall(hs, grid), v.inside_mask)).data[0]
        nc = nc.ravel()
        tube = np.flatnonzero((np.abs(d) < hs.rho0) & v.inside_mask.ravel())
        assert len(tube) > 0
        ref = np.zeros(len(pts))
        for k in tube:
            gd = -hs.outward_normal(hs.project_to_boundary(pts[k], check_reach=False))
            ref[k] = gd @ vfun(pts[k])
        assert np.abs(nc - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_near_split_against_pointwise(self, wall_case):
        # the near nodes of grad q2, mask nodes with d < delta, read off the wall
        hs, grid, d, pts = wall_case
        mask = grid.inside(hs)
        delta = 2.0 * max(grid.dx)
        wall = box_wall(hs, grid, delta)
        sel = mask.ravel()[wall.index] & (wall.distance < delta)
        safe = ~np.isin(np.flatnonzero(mask), wall.index[sel])
        depth, closest, normal = wall.distance[sel], wall.closest[sel], wall.normal[sel]
        dm = d[mask.ravel()]
        assert np.array_equal(safe, dm >= delta) and (~safe).any()
        assert np.abs(depth - dm[~safe]).max() <= 1e-14
        pi = hs.project_to_boundary(pts[mask.ravel()][~safe], check_reach=False)
        assert np.abs(closest - pi).max() <= 1e-14
        assert np.array_equal(normal, hs.outward_normal(closest))


class TestTypes:
    def test_type_k_invariant(self):
        b = BoundaryFunction.smooth_bump(0.3, 0.4)
        b.validate()
        with pytest.raises(ValueError):
            BoundaryFunction.smooth_bump(0.3, 0.4, curvature_bound=1.0).validate()

    def test_rho0_window(self):
        b = BoundaryFunction.zero()
        with pytest.raises(ValueError):
            PerturbedHalfSpace(b, rho0=1.0)  # above the 1/(2n(K+1)) cap

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BoxGrid((0, 0, 0), (1, 1, 1), (1, 4, 4))
        with pytest.raises(ValueError):
            BoxGrid((0, 0, 0), (0, 1, 1), (4, 4, 4))

    def test_field_shape_checks(self, flat_hs):
        grid = BoxGrid((0, 0, 0), (1, 1, 1), (4, 4, 4))
        with pytest.raises(ValueError):
            BoxField(grid, np.zeros((2, 4, 4, 4)))
        f = BoxField(grid, np.zeros((4, 4, 4)))
        assert f.ncomp == 1
