import contextlib
import gc
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helmdecomp import BoundaryFunction, BoxField, BoxGrid, PerturbedHalfSpace, _fast, pipeline
from helmdecomp.errors import ConfigError, NonDecayingInput
from helmdecomp.geometry import box_wall, extend_field, interp_masked, take_nodes
from helmdecomp.layers import SurfaceQuadrature
from helmdecomp.neumann import estimate_contraction
from helmdecomp.pipeline import (DecompositionPlan, PipelineConfig, _column_lattice,
                                 _inner_slab, _residual_div, _residual_normal, _sample_grad_q2,
                                 decompose, normal_trace, read_field, resample_density, verify,
                                 volume_potential_grad, write_field)
from helmdecomp.sobolev import BoundaryDensity, ledger_geometry, normal_tube, vbmol2_norm

S2 = 0.12
CENTER = np.array([0.0, 0.0, 1.5])


def phi(p):
    return np.exp(-np.sum((p - CENTER) ** 2, -1) / S2)


def grad_phi(p):
    return -2.0 * (p - CENTER) / S2 * phi(p)[..., None]


@pytest.fixture(scope="module")
def flat_grid():
    return BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (64, 64, 64))


@pytest.fixture(scope="module")
def flat_cfg():
    return PipelineConfig(rho=0.07, quad_extent=6.0, quad_res=48,
                          mu=0.3, nu=0.1, samples=100, seed=5)


@pytest.fixture(scope="module")
def grad_field(flat_hs, flat_grid):
    return BoxField.sample(flat_grid, flat_hs, grad_phi, ncomp=3)


@pytest.fixture(scope="module")
def flat_wall(flat_hs, flat_grid):
    return box_wall(flat_hs, flat_grid)


# one to three Gaussian-gradient or tangential-swirl terms: (swirl?, centre,
# width s2, amplitude) on the flat 32^3 box.  The centres and widths keep the
# box faces below 1e-8 of the field maximum, and s2 >= 0.125 keeps each term
# at least two box spacings wide: normal_trace refuses some narrower ones
FIELD_TERMS = st.lists(st.tuples(st.booleans(),
                                 st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1),
                                           st.floats(1.0, 1.6)),
                                 st.floats(0.125, 0.14),
                                 st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)),
                       min_size=1, max_size=3)


def _drawn_field(hs, terms, grid=None):
    def fn(p):
        out = np.zeros(p.shape)
        for swirl, centre, s2, amp in terms:
            d = p - centre
            e = (2.0 * amp / s2) * np.exp(-np.sum(d * d, -1) / s2)[..., None]
            out += e * (np.stack([-d[..., 1], d[..., 0], np.zeros_like(e[..., 0])], -1)
                        if swirl else -d)
        return out

    grid = grid or BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
    v = BoxField.sample(grid, hs, fn, ncomp=3)
    faces = np.zeros_like(v.inside_mask)
    faces[[0, -1]] = faces[:, [0, -1]] = faces[:, :, -1] = True
    vals = np.abs(v.data[:, v.inside_mask])
    assume(vals.max() > 0 and np.abs(v.data[:, faces & v.inside_mask]).max() <= 1e-8 * vals.max())
    return v


def l2(f):
    dV = np.prod(f.grid.dx)
    return float(np.sqrt(np.sum(f.data[:, f.inside_mask] ** 2) * dV))


def padded_solve_ref(src, dx):
    """grad q for Delta q = div src by full complex transforms of the 2x
    zero-padded grid, the real part read back on the box: the solve that
    pipeline._free_space_gradient prunes."""
    n = src.shape[1:]
    res = [2 * r for r in n]
    X = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(res[a], d=dx[a]) for a in range(3)],
                    indexing="ij", sparse=True)
    div = sum(1j * X[c] * np.fft.fftn(src[c], s=res, axes=(0, 1, 2)) for c in range(3))
    k2 = X[0] ** 2 + X[1] ** 2 + X[2] ** 2
    k2[0, 0, 0] = 1.0
    qhat = -div / k2
    qhat[0, 0, 0] = 0.0
    return np.stack([np.fft.ifftn(1j * X[c] * qhat)[: n[0], : n[1], : n[2]].real
                     for c in range(3)])


# a non-cubic grid with unequal spacings, a cubic one, and one whose
# z-nodes sit dz / 2 = 1/32 from the flat wall, where theta v and its
# mirror are nonzero, so the source starts a plane below the domain slab
REF_GRIDS = [BoxGrid((-2.0, -2.2, -0.5), (2.0, 2.2, 3.5), (12, 10, 14)),
             BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (16, 16, 16)),
             BoxGrid((-2.0, -2.0, -0.53125), (2.0, 2.0, 3.46875), (16, 16, 64))]


def _usable_cpus(k):
    """Patch the CPUs the volume potential and the series in source height
    may use to k."""
    return mock.patch.object(pipeline.os, "sched_getaffinity", return_value=set(range(k)))


class TestVolumePotential:
    # against the full complex solve, relative to max |source|: for a
    # solenoidal source grad q1 is itself roundoff, so its own max is no
    # scale.  The source is 0 below plane k0 and the solve returns the
    # planes from k1 >= k0, exact zeros below.  Odd and one-node axes are
    # drawn too; the padded axes stay even
    @settings(max_examples=30, deadline=None)
    @given(res=st.tuples(*[st.integers(1, 9)] * 3),
           dx=st.tuples(*[st.floats(0.05, 2.0)] * 3), seed=st.integers(0, 2**32 - 1),
           planes=st.tuples(st.integers(0, 9), st.integers(0, 9)))
    @example(res=REF_GRIDS[0].resolution, dx=REF_GRIDS[0].dx, seed=7, planes=(0, 0))
    @example(res=REF_GRIDS[1].resolution, dx=REF_GRIDS[1].dx, seed=7, planes=(0, 0))
    @example(res=REF_GRIDS[0].resolution, dx=REF_GRIDS[0].dx, seed=7, planes=(5, 8))
    @example(res=REF_GRIDS[1].resolution, dx=REF_GRIDS[1].dx, seed=7, planes=(15, 15))
    # a one-node box, and odd and one-node axes, where the Nyquist edges
    # meet: each edge term is needed on these
    @example(res=(1, 1, 1), dx=(0.3, 0.7, 1.1), seed=3, planes=(0, 0))
    @example(res=(3, 5, 7), dx=(0.3, 0.7, 1.1), seed=3, planes=(0, 0))
    @example(res=(3, 5, 7), dx=(0.3, 0.7, 1.1), seed=3, planes=(2, 4))
    @example(res=(3, 5, 7), dx=(0.3, 0.7, 1.1), seed=3, planes=(6, 6))
    @example(res=(2, 9, 4), dx=(1.3, 0.2, 0.6), seed=3, planes=(1, 3))
    @example(res=(8, 8, 1), dx=(0.3, 0.7, 1.1), seed=3, planes=(0, 0))
    @example(res=(5, 1, 3), dx=(0.3, 0.7, 1.1), seed=3, planes=(0, 2))
    @example(res=(5, 1, 3), dx=(0.3, 0.7, 1.1), seed=3, planes=(1, 1))
    def test_matches_complex_padded_solve_on_white_noise(self, res, dx, seed, planes):
        k0 = min(planes[0], res[2] - 1)
        k1 = min(max(planes[1], k0), res[2] - 1)
        src = np.random.default_rng(seed).standard_normal((3,) + tuple(res))
        src[..., :k0] = 0.0
        ref = padded_solve_ref(src, dx)
        got = pipeline._free_space_gradient(src.copy(), dx, k0, k1)
        assert np.abs(got[..., k1:] - ref[..., k1:]).max() <= 1e-14 * np.abs(src).max()
        assert not got[..., :k1].any()

    def test_empty_slab_gives_zero(self):
        src = np.random.default_rng(0).standard_normal((3, 4, 5, 6))
        src[..., :4] = 0.0
        assert not pipeline._free_space_gradient(src, (0.5, 0.5, 0.5), 4, 6).any()

    @settings(max_examples=12, deadline=None)
    @given(terms=FIELD_TERMS, which=st.sampled_from([0, 1, 2, None]))
    def test_matches_complex_padded_solve_on_drawn_fields(self, flat_hs, gentle_hs, terms,
                                                          which):
        # on the planes the solve keeps; volume_potential_grad is that solve
        # on the inside nodes and 0 off them
        hs = gentle_hs if which is None else flat_hs
        v = _drawn_field(hs, terms, None if which is None else REF_GRIDS[which])
        wall = box_wall(hs, v.grid)
        src, k0, k1 = pipeline._extended_source(wall, v, 0.055)
        assert not src[..., :k0].any() and v.inside_mask[..., k1].any()
        assert not v.inside_mask[..., :k1].any()
        if which == 2:
            assert k0 == k1 - 1 and src[..., k0].any()
        ref = padded_solve_ref(src, v.grid.dx)
        got = pipeline._free_space_gradient(src.copy(), v.grid.dx, k0, k1)
        assert np.abs(got[..., k1:] - ref[..., k1:]).max() <= 1e-14 * np.abs(src).max()
        gq1 = volume_potential_grad(wall, v, rho=0.055).data
        assert np.array_equal(gq1, got * v.inside_mask)

    def test_source_is_v_inside(self, gentle_hs, curved_case):
        # v itself on the inside nodes, the mirror of theta v off them, which
        # only the outside tube nodes can hold; the planes below k0 hold no
        # source node
        v = curved_case[1]
        wall = box_wall(gentle_hs, v.grid)
        src, k0, k1 = pipeline._extended_source(wall, v, 0.055)
        mask = v.inside_mask
        assert np.array_equal(src[:, mask], v.data[:, mask])
        tube = np.zeros(mask.shape, bool)
        tube.flat[wall.index[np.abs(wall.distance) < 0.055]] = True
        assert not src[:, ~mask & ~tube].any()
        assert not src[..., :k0].any() and k0 <= k1
        assert mask[..., k1].any() and not mask[..., :k1].any()

    @pytest.mark.parametrize("which", ["flat", "gentle", "dip"])
    def test_source_matches_the_box_construction(self, flat_hs, gentle_hs, which):
        # src against theta v formed on a zeroed box and interpolated at the
        # mirror points, its mirror values placed on v times the mask, and v
        # copied inside: equal bit for bit, up to the sign of the zeros the
        # masking left off the tube
        hs = {"flat": flat_hs, "gentle": gentle_hs,
              "dip": PerturbedHalfSpace(BoundaryFunction.gaussian_bump(-0.2, 0.3))}[which]
        grid = BoxGrid((-1.5, -1.5, -0.4), (1.5, 1.5, 2.6), (32, 32, 40))
        rho = min(0.055, hs.rho0 / 2)
        mask = grid.inside(hs)
        v = BoxField(grid, np.random.default_rng(2).standard_normal((3,) + grid.resolution), mask)
        wall = box_wall(hs, grid)
        part = np.zeros(v.data.shape)
        part.reshape(3, -1)[:, wall.index] = (take_nodes(v.data, wall.index)
                                              * hs.cutoff_theta(rho, wall.distance))
        sel = (np.abs(wall.distance) < rho) & ~mask.ravel()[wall.index]
        mirror_pts = 2.0 * wall.closest[sel] - wall.points[sel]
        ustar = interp_masked(BoxField(grid, part, mask), mirror_pts)
        gd = -wall.normal[sel]
        ref = part * mask
        ref.reshape(3, -1)[:, wall.index[sel]] = (
            ustar - 2.0 * np.einsum("cp,pc->p", ustar, gd)[None] * gd.T)
        np.copyto(ref, v.data, where=mask)
        src, _, _ = pipeline._extended_source(wall, v, rho)
        assert sel.any() and (src + 0.0).tobytes() == (ref + 0.0).tobytes()

    def test_zero_off_the_mask(self, flat_hs, gentle_hs, grad_field, curved_case):
        # grad q1, like v0 and grad q2, is exactly 0 off the inside mask
        for hs, v in ((flat_hs, grad_field), (gentle_hs, curved_case[1]),
                      (gentle_hs, curved_case[2])):
            gq1 = volume_potential_grad(box_wall(hs, v.grid), v, rho=0.055)
            assert not gq1.data[:, ~v.inside_mask].any()
            assert np.abs(gq1.data[:, v.inside_mask]).max() > 0.0

    def test_whole_box_reconstruction(self, flat_hs, grad_field, flat_cfg, curved_plan_case):
        # for a field that is 0 off the mask, v = v0 + grad q1 + grad q2 on
        # the whole box: to roundoff inside, exactly off the mask
        for res in (decompose(flat_hs, grad_field, flat_cfg), curved_plan_case[2]):
            off = ~res.v.inside_mask
            assert not res.v.data[:, off].any()
            assert not res.v0.data[:, off].any()
            total = res.v0.data + res.grad_q1.data + res.grad_q2.data
            assert not total[:, off].any()
            assert np.abs(res.v.data - total).max() <= 1e-12 * np.abs(res.v.data).max()

    def test_gradient_recovery(self, flat_wall, grad_field):
        gq1 = volume_potential_grad(flat_wall, grad_field, rho=0.07)
        g = grad_field.grid
        ref = np.moveaxis(grad_phi(g.points()), -1, 0)
        inner = np.zeros(g.resolution, bool)
        inner[16:-16, 16:-16, 16:-16] = True
        inner &= grad_field.inside_mask
        err = np.abs(gq1.data - ref)[:, inner].max()
        assert err < 1e-3 * np.abs(ref).max()

    def test_solenoidal_gives_zero(self, flat_hs):
        s2 = 0.18

        def vsol(p):
            ps = np.exp(-np.sum(p * p, -1) / s2)
            return np.stack([-2 * p[..., 1] / s2 * ps,
                             2 * p[..., 0] / s2 * ps,
                             np.zeros_like(ps)], -1)

        grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (64, 64, 64))
        v = BoxField.sample(grid, flat_hs, vsol, ncomp=3)
        gq1 = volume_potential_grad(box_wall(flat_hs, grid), v, rho=0.07)
        assert np.abs(gq1.data).max() < 1e-3 * np.abs(v.data).max()

    def test_linearity(self, flat_hs, flat_grid, flat_wall, grad_field):
        def other(p):
            ps = np.exp(-np.sum((p - [0.4, 0.0, 1.2]) ** 2, -1) / 0.1)
            return np.stack([ps, -ps, 0.5 * ps], -1)

        w = BoxField.sample(flat_grid, flat_hs, other, ncomp=3)
        combo = BoxField(flat_grid, 2.0 * grad_field.data - 0.7 * w.data,
                         grad_field.inside_mask)
        lhs = volume_potential_grad(flat_wall, combo, rho=0.07).data
        rhs = (2.0 * volume_potential_grad(flat_wall, grad_field, rho=0.07).data
               - 0.7 * volume_potential_grad(flat_wall, w, rho=0.07).data)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_pde_residual_spectral(self, flat_wall, grad_field):
        # Delta q1 == div vbar checked by finite differences in the interior
        gq1 = volume_potential_grad(flat_wall, grad_field, rho=0.07)
        g = grad_field.grid
        div = np.zeros(g.resolution)
        for c in range(3):
            div += np.gradient(gq1.data[c], g.dx[c], axis=c)
        ref = np.zeros(g.resolution)
        for c in range(3):
            ref += np.gradient(grad_field.data[c], g.dx[c], axis=c)
        inner = np.zeros(g.resolution, bool)
        inner[16:-16, 16:-16, 16:-16] = True
        inner &= grad_field.inside_mask
        num = np.abs(div - ref)[inner].max()
        assert num < 0.05 * np.abs(ref[inner]).max()

    def test_requires_decay(self, flat_wall, flat_grid):
        v = BoxField(flat_grid, np.ones((3,) + tuple(flat_grid.resolution)))
        with pytest.raises(NonDecayingInput):
            volume_potential_grad(flat_wall, v, rho=0.07)

    @pytest.mark.parametrize("curved", [False, True])
    def test_decay_gate_at_the_threshold(self, flat_hs, bump_hs, curved):
        # a face value of exactly _RING_TOL sup|v| passes and the next float
        # up raises, on an inside node of each checked face, of either sign;
        # values off the mask are never read
        hs = bump_hs if curved else flat_hs
        grid = BoxGrid((-1.0, -1.0, -0.25), (1.0, 1.0, 1.75), (16, 12, 20))
        mask = grid.inside(hs)
        assert curved == (not mask[..., 3].all())
        peak = 2.5
        limit = pipeline._RING_TOL * peak
        faces = [(0, 5, 9), (-1, 5, 9), (5, 0, 9), (5, -1, 9), (5, 5, -1)]
        for face, sign, c in zip(faces, (1.0, -1.0, 1.0, -1.0, 1.0), (0, 1, 2, 0, 1)):
            assert mask[face]
            for value, raises in ((limit, False), (np.nextafter(limit, np.inf), True)):
                data = np.zeros((3,) + grid.resolution)
                data[2, 8, 6, 10] = -peak
                data[(c,) + face] = sign * value
                data[:, ~mask] = 10.0
                v = BoxField(grid, data, mask)
                with pytest.raises(NonDecayingInput) if raises else contextlib.nullcontext():
                    pipeline._check_box_decay(v)

    def test_peak_memory_cap(self, gentle_hs):
        # the pruned half-spectrum solve, whose input rows and inverse
        # halves share the one half-spectrum buffer, with its source:
        # measured 0.96 complex arrays of the 2x grid on 1, 2, 4 and 8
        # usable CPUs, with the box wall built before the call; bound 1.1.
        # The z passes take one thread per 8 MB of spectrum, so one here,
        # and their block buffers a fixed share of it, so the peak does not
        # grow with the CPU count.  The one-off import
        # of scipy.fft, about 5 such arrays, is not the solve's and is paid
        # before tracing, whichever test runs first
        import scipy.fft  # noqa: F401

        grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (32, 32, 32))
        v = BoxField.sample(grid, gentle_hs, grad_phi, ncomp=3)
        wall = box_wall(gentle_hs, grid)
        one_complex = 16 * np.prod([2 * r for r in grid.resolution])
        for cpus in (1, 2, 4, 8):
            with _usable_cpus(cpus):
                tracemalloc.start()
                try:
                    volume_potential_grad(wall, v, rho=0.055)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert peak <= 1.1 * one_complex, f"{cpus} CPUs: {peak / one_complex:.3f} complex arrays"

    def test_same_bytes_on_any_cpu_count(self):
        # the z passes' blocks shrink as the threads grow, here one thread
        # per CPU on a small box; each column's transforms and products are
        # the same, and each block is done once
        src = np.random.default_rng(4).standard_normal((3, 12, 10, 14))
        src[..., :2] = 0.0
        got = []
        for cpus in (1, 3, 8):
            with _usable_cpus(cpus), mock.patch.object(pipeline, "_Z_THREAD_BYTES", 1):
                got.append(pipeline._free_space_gradient(src.copy(), (0.3, 0.4, 0.5), 2, 5))
        assert all(np.array_equal(g, got[0]) for g in got[1:])
        ref = padded_solve_ref(src, (0.3, 0.4, 0.5))
        assert np.abs(got[0][..., 5:] - ref[..., 5:]).max() <= 1e-14 * np.abs(src).max()


class TestInsideValues:
    # the flat-index gather is a[:, mask], value for value and in order
    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("fill", [None, False, True])
    def test_take_nodes_is_the_boolean_gather(self, ncomp, fill):
        rng = np.random.default_rng(ncomp)
        a = rng.standard_normal((ncomp, 5, 6, 7))
        mask = rng.random((5, 6, 7)) < 0.6 if fill is None else np.full((5, 6, 7), fill)
        got = take_nodes(a, np.flatnonzero(mask))
        assert got.shape == (ncomp, mask.sum())
        assert np.array_equal(got, a[:, mask])

    def test_verify_reconstruction_error(self, flat_hs, grad_field, flat_cfg, curved_plan_case):
        # the gathered reconstruction error is the one on the whole box, taken inside
        for res in (decompose(flat_hs, grad_field, flat_cfg), curved_plan_case[2]):
            inside = res.v.inside_mask
            recon = res.v.data - (res.v0.data + res.grad_q1.data + res.grad_q2.data)
            entry = verify(res, None).entries[0]
            assert entry.name == "reconstruction_max_err"
            assert entry.value == float(np.abs(recon[:, inside]).max())


class TestNormalTrace:
    @pytest.mark.parametrize("fill", [None, False, True])
    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
    def test_scale_is_the_gathered_sup(self, fill, sign):
        # the masked max and min reductions give sup |w| inside bit for bit
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 9, 8, 7))
        if sign:
            a = sign * np.abs(a)
        mask = rng.random((9, 8, 7)) < 0.4 if fill is None else np.full((9, 8, 7), fill)
        ref = float(np.abs(a[:, mask]).max()) if mask.any() else 0.0
        assert pipeline._sup(a, mask) == ref

    def test_grad_d_gives_minus_one(self, gentle_hs):
        grid = BoxGrid((-1.5, -1.5, -0.3), (1.5, 1.5, 1.2), (64, 64, 64))

        def vfun(p):
            out = np.zeros(p.shape[:-1] + (3,))
            out[..., 2] = 1.0  # grad d for the gentle bump, to within tilt
            return out

        v = BoxField.sample(grid, gentle_hs, vfun, ncomp=3)
        g, linf, _ = normal_trace(gentle_hs, v)
        nz = gentle_hs.outward_normal(
            gentle_hs.boundary.surface_point(g.points().reshape(-1, 2)))[:, 2]
        ref = nz.reshape(g.values.shape)  # w.n = e3 . n
        assert np.abs(g.values - ref).max() < 0.02

    def test_flat_vanishing_normal_component(self, flat_hs):
        # w_n vanishes on the wall; the two-shell estimator sees the O(d^3)
        # curvature of w_n along the normal, which shrinks under refinement
        def w(p):
            ps = np.exp(-np.sum(p * p, -1))
            return np.stack([np.zeros_like(ps), np.zeros_like(ps),
                             p[..., 2] * ps], -1)

        vals = {}
        for res in (64, 96):
            grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (res, res, res))
            v = BoxField.sample(grid, flat_hs, w, ncomp=3)
            _, linf, _ = normal_trace(flat_hs, v)
            vals[res] = linf
        assert vals[64] < 5e-2
        assert vals[96] < 0.5 * vals[64]

    def test_slp_gradient_trace(self, flat_hs):
        # w = grad SLP(g): the recovered boundary values match g/2 plus the
        # interior Poisson-limit term, i.e. the same two-shell Richardson
        # applied to the half Poisson integral on the Fourier side
        from helmdecomp.sobolev import BoundaryDensity

        ghat = BoundaryDensity.sample(12.0, 96, lambda p: np.exp(-np.sum(p * p, -1)))
        grid = BoxGrid((-3.0, -3.0, 0.0), (3.0, 3.0, 6.0), (48, 48, 48))
        xi = 2 * np.pi * np.fft.fftfreq(96, d=ghat.dx)
        X1, X2 = np.meshgrid(xi, xi, indexing="ij")
        mod = np.hypot(X1, X2)
        gh = np.fft.fft2(ghat.values)
        from scipy.interpolate import RegularGridInterpolator

        def halfpoisson_plane(zn):
            plane = np.fft.ifft2(0.5 * np.exp(-zn * mod) * gh).real
            return RegularGridInterpolator((ghat.axis(), ghat.axis()), plane,
                                           method="linear")

        def wfun(p):
            # w_z = dz SLP = -(1/2) P_z * g, sampled per plane
            out = np.zeros(p.shape[:-1] + (3,))
            for k, zn in enumerate(grid.axis(2)):
                rgi = halfpoisson_plane(max(zn, 1e-9))
                out[:, :, k, 2] = -rgi(
                    np.stack([p[:, :, k, 0].ravel(), p[:, :, k, 1].ravel()], -1)
                ).reshape(p.shape[0], p.shape[1])
            return out

        v = BoxField.sample(grid, flat_hs, wfun, ncomp=3)
        g, _, _ = normal_trace(flat_hs, v)
        # oracle with the same shells: w.n = -w_z = (1/2) P_z * g
        dz = max(grid.dx)
        pts2 = g.points().reshape(-1, 2)
        o1 = halfpoisson_plane(3 * dz)(pts2)
        o2 = halfpoisson_plane(6 * dz)(pts2)
        oracle = (2 * o1 - o2).reshape(g.values.shape)
        gap = np.abs(g.values - oracle)[8:-8, 8:-8].max()
        assert gap < 0.02 * 0.5

    def test_extrapolation_unstable_raises(self, flat_hs):
        from helmdecomp.errors import ExtrapolationUnstable

        grid = BoxGrid((-1.0, -1.0, -0.5), (1.0, 1.0, 1.5), (32, 32, 32))
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3,) + tuple(grid.resolution))
        pts = grid.points()
        mask = pts[..., 2] > 0
        v = BoxField(grid, data * mask[None], mask)
        with pytest.raises(ExtrapolationUnstable):
            normal_trace(flat_hs, v)

    def test_off_centre_box_is_refused(self, flat_hs):
        # the trace is labelled as centred at x' = 0, so a box shifted by
        # (1, 1) would put every trace value one unit off
        grid = BoxGrid((-1.0, -1.0, -0.5), (3.0, 3.0, 3.5), (32, 32, 32))
        v = BoxField(grid, np.zeros((3, 32, 32, 32)), grid.inside(flat_hs))
        with pytest.raises(ValueError, match="centred"):
            normal_trace(flat_hs, v)


class TestResample:
    # node j of the quadrature lattice is box column cols[j], here shift + p j;
    # resample_density reads only the extent of the quadrature
    def test_identity_on_same_lattice(self):
        g = BoundaryDensity.sample(4.0, 32, lambda p: np.exp(-np.sum(p * p, -1)), on_graph=True)
        r = resample_density(g, SimpleNamespace(extent=4.0), np.arange(32))
        assert np.array_equal(r.values, g.values) and r.on_graph and r.extent == 4.0

    def test_zero_outside_source(self):
        # a 16-column box under a lattice twice as wide, of spacing 2 box
        # columns: nodes 0..3 and 12..15 of each axis lie off the box
        g = BoundaryDensity(2.0, np.arange(256.0).reshape(16, 16))
        r = resample_density(g, SimpleNamespace(extent=4.0), -8 + 2 * np.arange(16))
        on = np.zeros(16, bool)
        on[4:12] = True
        assert np.array_equal(r.values[np.ix_(on, on)], g.values[::2, ::2])
        assert not r.values[~on].any() and not r.values[:, ~on].any()

    def test_every_box_column_is_copied(self):
        # a box over [-1.7, 1.7)^2 with 32 columns and the lattice asked as
        # 6.8 / 24: 7.0125 / 22 with p = 3 and shift -17, whose nodes 6..16
        # are box columns 1, 4, ..., 31.  A lookup by node coordinates can
        # miss column 31, the last one, by roundoff
        grid = BoxGrid((-1.7, -1.7, -0.5), (1.7, 1.7, 2.9), (32, 32, 32))
        extent, m, p, shift = _column_lattice(grid, 6.8, 24)
        assert (m, p, shift) == (22, 3, -17) and abs(extent - 7.0125) < 1e-12
        g = BoundaryDensity(3.4, np.arange(1.0, 1025.0).reshape(32, 32), on_graph=True)
        r = resample_density(g, SimpleNamespace(extent=extent), shift + p * np.arange(m))
        want = np.zeros((m, m))
        want[6:17, 6:17] = g.values[1::3, 1::3]
        assert np.array_equal(r.values, want)


class TestColumnLattice:
    @pytest.mark.parametrize("n, asked, want", [
        (64, (8.0, 48), (8.25, 44, 3, -34)),    # criterion 7a and the curved workloads
        (96, (6.0, 48), (6.0, 48, 3, -24)),     # flat96, already aligned
        (64, (6.0, 48), (6.0, 48, 2, -16)),     # the flat test configs
        (32, (8.0, 24), (8.25, 22, 3, -17)),    # the curved CLI config
    ])
    def test_configs(self, n, asked, want):
        grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (n, n, n))
        assert _column_lattice(grid, *asked) == want

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(8, 128), width=st.floats(0.5, 8.0), wide=st.floats(0.25, 4.0),
           res=st.integers(8, 96))
    def test_nodes_are_box_columns(self, n, width, wide, res):
        grid = BoxGrid((-width / 2, -width / 2, 0.0), (width / 2, width / 2, 1.0), (n, n, 8))
        asked = wide * width
        extent, m, p, shift = _column_lattice(grid, asked, res)
        assert 2 * shift == n - m * p
        dx = grid.dx[0]
        # node j sits on box column shift + p j; check those within the box
        k = (BoundaryDensity(extent, np.zeros((m, m))).axis() - grid.lower[0]) / dx
        inbox = (k > -0.5) & (k < n - 0.5)
        assert inbox.any()
        assert np.abs(k - (shift + p * np.arange(m)))[inbox].max() <= 1e-12
        assert extent >= asked * (1.0 - 1e-12)
        assert extent / m >= asked / res * (1.0 - 1e-12)
        assert m <= res + 1
        assert n % 2 == 0 or p % 2 == 1

    @pytest.mark.parametrize("lower, upper, res", [
        ((-1.0, -1.0, -0.5), (3.0, 3.0, 3.5), (32, 32, 32)),     # off centre
        ((-2.0, -1.0, -0.5), (2.0, 1.0, 3.5), (32, 16, 32)),     # not square
        ((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 16, 32)),     # unequal resolutions
    ])
    def test_box_must_be_a_centred_square(self, lower, upper, res):
        with pytest.raises(ValueError, match="centred"):
            _column_lattice(BoxGrid(lower, upper, res), 6.0, 48)


def _cols(q, p, shift):
    """The box column shift + p j of each lattice index j of q."""
    return shift + p * np.arange(q.res)


def _q2_wall(q, grid):
    """The box wall of q.hs on grid out to q.delta_min, as grad_q2_sites reads it."""
    return box_wall(q.hs, grid, q.delta_min)


def _grad_q2_case(hs, grid, extent, res):
    """(quadrature, stand-in series solution, inside mask) for _sample_grad_q2."""
    q = SurfaceQuadrature(hs, extent, res)
    dens = BoundaryDensity.sample(
        extent, res, lambda p: np.exp(-np.sum((p - [0.2, 0.1]) ** 2, -1) / 0.5), on_graph=True)
    return q, SimpleNamespace(density=dens), grid.inside(hs)


def _direct_grad_q2(q, sol, grid, mask):
    """The column rule over all-direct sums, written out node by node.

    Classify by the distance to the wall, take one direct sum at every safe
    node, and extrapolate each near node linearly in x_n from the safe node
    of its column nearest x_n - h(x') = 1.5 delta_min and, above it, the
    safe node nearest 3 delta_min (a tie goes to the lower node).  Returns
    (values on the box, safe mask).
    """
    hs, pts = q.hs, grid.points()
    wg = q.weights * q.match(sol.density)
    c = -q.ctx.grad_const
    gap = box_wall(hs, grid).depth()
    d = gap.copy()
    shell = mask & (gap / hs.boundary.lipschitz() < q.delta_min)
    d[shell] = hs.signed_distance(pts[shell])
    safe = mask & (d >= q.delta_min)
    out = np.zeros((3,) + tuple(grid.resolution))
    out[:, safe] = _fast.gradslp_sum(pts[safe], q.nodes, wg, c).T
    z = grid.axis(2)
    for i, j, k in zip(*np.nonzero(mask & ~safe)):
        up = [kk for kk in range(len(z)) if safe[i, j, kk]]
        k1 = min(up, key=lambda kk: abs(gap[i, j, kk] - 1.5 * q.delta_min))
        k2 = min((kk for kk in up if kk > k1),
                 key=lambda kk: abs(gap[i, j, kk] - 3.0 * q.delta_min))
        w = (z[k] - z[k1]) / (z[k2] - z[k1])
        out[:, i, j, k] = (1.0 - w) * out[:, i, j, k1] + w * out[:, i, j, k2]
    return out, safe


@contextlib.contextmanager
def _counted_sums(pairs, planes):
    """Record the (targets, sources) of every direct sum and the heights of
    the planes of every lattice sum over the flat sources, the one-term
    series of sources all on x_n = 0, whose record holds no height."""
    direct, series = _fast.gradslp_sum, _fast.gradslp_series

    def counted_sum(xs, nodes, wg, c):
        pairs.append((len(xs), len(nodes)))
        return direct(xs, nodes, wg, c)

    def counted_series(geometry, *args):
        if not geometry.h.any():
            planes.extend(geometry.zs)
        return series(geometry, *args)

    with mock.patch.object(_fast, "gradslp_sum", counted_sum), \
         mock.patch.object(_fast, "gradslp_series", counted_series):
        yield


# a 24^3 box of spacing 1/8 over the gentle bump
Q2_LOWER, Q2_UPPER = (-1.5, -1.5, -0.4), (1.5, 1.5, 2.6)


class TestGradQ2Paths:
    def test_aligned_curved_matches_direct(self, gentle_hs):
        # lattice spacing 1/4 on every 2nd box column: plane FFT over the
        # flat sources plus the direct sum over the bump ones, against the
        # all-direct sum
        grid = BoxGrid(Q2_LOWER, Q2_UPPER, (24, 24, 24))
        q, sol, mask = _grad_q2_case(gentle_hs, grid, 8.0, 32)
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -20))
        got = _sample_grad_q2(sites, sol)
        ref, _ = _direct_grad_q2(q, sol, grid, mask)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("signed", [False, True])
    def test_series_on_the_64_box_matches_direct(self, gentle_hs, signed):
        # the 64^3 curved box and lattice of the benchmark: the bump sources
        # take the series in source height on every plane, no direct sum,
        # and grad q2 matches the all-direct sum, for the smooth density and
        # for one of random signs
        grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (64, 64, 64))
        extent, res, p, shift = _column_lattice(grid, 8.0, 48)
        q, sol, mask = _grad_q2_case(gentle_hs, grid, extent, res)
        if signed:
            values = np.random.default_rng(3).standard_normal((res, res))
            sol = SimpleNamespace(density=BoundaryDensity(extent, values, on_graph=True))
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, p, shift))
        assert sites.report() == {"bump_sum": "series", "series_order": 14,
                                  "series_fallback_planes": 0}
        assert sites.bump.size == 0 and sites.low.size == 0
        got = _sample_grad_q2(sites, sol)
        ref, _ = _direct_grad_q2(q, sol, grid, mask)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_flat_aligned_takes_no_direct_sum(self, flat_hs):
        grid = BoxGrid(Q2_LOWER, Q2_UPPER, (24, 24, 24))
        q, sol, mask = _grad_q2_case(flat_hs, grid, 8.0, 32)
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -20))
        pairs, planes = [], []
        with _counted_sums(pairs, planes):
            got = _sample_grad_q2(sites, sol)
        assert pairs == []
        # only box z-planes, each once
        assert sorted(planes) == sorted(set(planes)) and set(planes) <= set(grid.axis(2))
        ref, _ = _direct_grad_q2(q, sol, grid, mask)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_steep_bump_skips_unsafe_column_nodes(self, bump_hs):
        # over the flank of the steep bump (slope 1.6) the node of a column
        # nearest x_n - h = 1.5 delta_min can lie within delta_min of the
        # wall; the rule passes it for the next safe node.  A 32^3 box of
        # spacing 1/16 under a lattice of spacing 1/8 (p = 2)
        grid = BoxGrid((-1.0, -1.0, -0.4), (1.0, 1.0, 1.6), (32, 32, 32))
        q, sol, mask = _grad_q2_case(bump_hs, grid, 8.0, 64)
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -48))
        got = _sample_grad_q2(sites, sol)
        ref, safe = _direct_grad_q2(q, sol, grid, mask)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        near_cols = (mask & ~safe).any(axis=2)
        first = np.argmin(np.abs(box_wall(bump_hs, grid).depth() - 1.5 * q.delta_min), axis=2)
        passed = near_cols & ~np.take_along_axis(safe, first[..., None], axis=2)[..., 0]
        assert passed.any()

    def test_unconverged_planes_take_the_direct_sum(self, bump_hs):
        # the steep bump is 0.3 tall, so the series converges only on the
        # planes well above it: the others, from delta_min up, take the
        # direct sum over the bump sources.  The cost rule is set to take
        # the series wherever it converges
        grid = BoxGrid((-1.0, -1.0, -0.4), (1.0, 1.0, 1.6), (32, 32, 32))
        q, sol, mask = _grad_q2_case(bump_hs, grid, 8.0, 64)
        with mock.patch.object(pipeline, "_SERIES_COST", 0.0):
            sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -48))
        orders = sites.series.orders
        assert sites.report() == {"bump_sum": "series", "series_order": orders.max(),
                                  "series_fallback_planes": 17}
        # the fallback planes are the lowest ones
        assert not orders[:17].any() and orders[17:].all()
        z = grid.axis(2)
        assert set(z[sites.bump % 32]) == set(z[sites.planes[:17]])
        pairs, planes = [], []
        with _counted_sums(pairs, planes):
            got = _sample_grad_q2(sites, sol)
        assert pairs == [(len(sites.bump), np.count_nonzero(q.nodes[:, 2] != 0.0))]
        ref, _ = _direct_grad_q2(q, sol, grid, mask)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dip_low_safe_nodes_take_direct_sum(self):
        # a dip puts safe nodes below the height delta_min of the plane
        # kernel: they, and only they, take the sum over every lattice node
        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(-0.2, 0.3))
        grid = BoxGrid(Q2_LOWER, Q2_UPPER, (24, 24, 24))
        q, sol, mask = _grad_q2_case(hs, grid, 8.0, 32)
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -20))
        pairs, planes = [], []
        with _counted_sums(pairs, planes):
            got = _sample_grad_q2(sites, sol)
        ref, safe = _direct_grad_q2(q, sol, grid, mask)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        low = np.count_nonzero(safe & (grid.axis(2) < q.delta_min))
        bump = np.count_nonzero(q.nodes[:, 2] != 0.0)
        assert low > 0 and min(planes) >= q.delta_min
        assert pairs == [(low, q.res ** 2), (np.count_nonzero(safe) - low, bump)]

    def test_short_box_is_refused(self, flat_hs):
        # the columns end at x_n = 0.4625, below 3 delta_min = 0.5625
        grid = BoxGrid((-1.5, -1.5, -0.4), (1.5, 1.5, 0.5), (24, 24, 24))
        q, _, mask = _grad_q2_case(flat_hs, grid, 8.0, 32)
        with pytest.raises(ConfigError, match="box column ends"):
            pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -20))

    @pytest.mark.parametrize("bump, n, quad_res, path", [
        ((0.05, 0.5), 32, 24, "direct"),
        ((0.0583, 0.4756), 32, 24, "direct"),
        ((0.05, 0.5), 64, 32, "series"),
        ((0.05, 0.5), 64, 48, "series")])
    def test_cost_rule_takes_the_faster_sum(self, bump, n, quad_res, path):
        # the cost rule's choice on the curved boxes of the benchmark, the
        # faster of the two in medians of 7 to 9 on 1 and 2 CPUs: the direct
        # pairs the series spares are 2.35 times sum (K + 1) N^2 on the
        # 32^3 box (2.06 for the bump of perfbench's small curved-cold op,
        # whose fast.gradslp_sum span wants direct pairs), 5.0 and 9.0 on
        # the 64^3 boxes
        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(*bump))
        grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (n, n, n))
        extent, res, p, shift = _column_lattice(grid, 8.0, quad_res)
        q = SurfaceQuadrature(hs, extent, res)
        mask = grid.inside(hs)
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, p, shift))
        assert sites.report()["bump_sum"] == path

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
    def test_linear_in_the_density(self, gentle_hs, seed, a, b):
        grid = BoxGrid(Q2_LOWER, Q2_UPPER, (24, 24, 24))
        q, _, mask = _grad_q2_case(gentle_hs, grid, 8.0, 32)
        sites = pipeline.grad_q2_sites(q, _q2_wall(q, grid), mask, _cols(q, 2, -20))
        g1, g2 = np.random.default_rng(seed).standard_normal((2, q.res, q.res))

        def sample(values):
            sol = SimpleNamespace(density=BoundaryDensity(q.extent, values, on_graph=True))
            return _sample_grad_q2(sites, sol)

        f1, f2 = sample(g1), sample(g2)
        scale = np.abs(a * f1).max() + np.abs(b * f2).max()
        assert np.abs(sample(a * g1 + b * g2) - (a * f1 + b * f2)).max() <= 1e-12 * scale


def residual_div_ref(v0, hs, ref):
    """_residual_div on the whole box: the 4th-order divergence stencil with
    a zero-filled margin of 2 cells and np.gradient's Jacobian, both read at
    the inner nodes."""
    g = v0.grid
    m = 2
    div = np.zeros(g.resolution)
    for c in range(3):
        arr, sl = v0.data[c], [slice(m, -m)] * 3

        def shift(k):
            s = list(sl)
            s[c] = slice(m + k, arr.shape[c] - m + k)
            return arr[tuple(s)]

        div[tuple(sl)] += (8.0 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))) / (12.0 * g.dx[c])
    inner = np.zeros(g.resolution, dtype=bool)
    inner[m:-m, m:-m, m:-m] = True
    inner &= box_wall(hs, g).depth() > 3.0 * max(g.dx)
    if not inner.any():
        return 0.0
    dnorm = float(np.sqrt(np.mean(div[inner] ** 2)))
    jac2 = np.zeros(np.count_nonzero(inner))
    for c in range(3):
        for x in np.gradient(ref.data[c], *g.dx):
            jac2 += x[inner] ** 2
    return dnorm / max(float(np.sqrt(np.mean(jac2))), 1e-30)


class TestResidualDiv:
    def test_slab_equals_whole_box(self, flat_hs, gentle_hs, grad_field, flat_cfg,
                                   curved_case, curved_plan_case):
        # decompose's residual, the standalone call and the whole-box
        # reference agree bit for bit, on decompose outputs and on noise
        grid, v1, v2 = curved_case
        cases = [(flat_hs, decompose(flat_hs, grad_field, flat_cfg)),
                 (gentle_hs, curved_plan_case[2]), (gentle_hs, curved_plan_case[3])]
        for hs, res in cases:
            want = residual_div_ref(res.v0, hs, res.v)
            got = _residual_div(res.v0, res.v, _inner_slab(box_wall(hs, res.v.grid)))
            assert res.residual_div == got == want > 0.0
        noise = np.random.default_rng(3).standard_normal((2, 3) + tuple(grid.resolution))
        a, b = (BoxField(grid, x, v1.inside_mask) for x in noise)
        got = _residual_div(a, b, _inner_slab(box_wall(gentle_hs, grid)))
        assert got == residual_div_ref(a, gentle_hs, b) > 0.0

    def test_no_inner_node(self, flat_hs):
        # 2 cells in from the faces, every node is within 3 spacings of the wall
        grid = BoxGrid((-1.0, -1.0, -0.1), (1.0, 1.0, 0.5), (12, 12, 12))
        v = BoxField(grid, np.ones((3, 12, 12, 12)), grid.inside(flat_hs))
        got = _residual_div(v, v, _inner_slab(box_wall(flat_hs, grid)))
        assert got == residual_div_ref(v, flat_hs, v) == 0.0


class TestWallFit:
    def test_readers_refuse_a_wall_that_does_not_fit(self, gentle_hs, curved_case):
        # a field off the wall's grid (another resolution, or the same one
        # over another box), a mask of another shape, and for grad q2 a
        # wall narrower than delta_min or of another half space
        grid, v1, _ = curved_case
        wall = box_wall(gentle_hs, grid)
        for other in (BoxGrid(CURVED_BOX[0], CURVED_BOX[1], (16, 16, 16)),
                      BoxGrid((-2.5, -2.5, -0.4), (2.5, 2.5, 3.6), (32, 32, 32))):
            v = BoxField(other, np.zeros((3,) + other.resolution), other.inside(gentle_hs))
            with pytest.raises(ValueError, match="wall's grid"):
                extend_field(wall, v, 0.055)
            with pytest.raises(ValueError, match="wall's grid"):
                volume_potential_grad(wall, v, rho=0.055)
        mask = np.ones((16, 16, 16), dtype=bool)
        with pytest.raises(ValueError, match="wall's grid"):
            ledger_geometry(wall, mask, 0.3, 0.6, 100, 5)
        with pytest.raises(ValueError, match="wall's grid"):
            normal_tube(wall, mask)
        q2_grid = BoxGrid(Q2_LOWER, Q2_UPPER, (24, 24, 24))
        q, _, q2_mask = _grad_q2_case(gentle_hs, q2_grid, 8.0, 32)
        narrow = box_wall(gentle_hs, q2_grid)
        twin = PerturbedHalfSpace(gentle_hs.boundary)
        assert narrow.width < q.delta_min
        for bad in (narrow, box_wall(twin, q2_grid, q.delta_min)):
            with pytest.raises(ValueError, match="delta_min"):
                pipeline.grad_q2_sites(q, bad, q2_mask, _cols(q, 2, -20))


class TestDecompose:
    def test_pure_gradient_input(self, flat_hs, grad_field, flat_cfg):
        res = decompose(flat_hs, grad_field, flat_cfg)
        assert l2(res.v0) < 5e-2 * l2(grad_field)
        assert res.residual_normal < 1e-4

    def test_solenoidal_tangential_input(self, flat_hs, flat_cfg):
        s2 = 0.18

        def vsol(p):
            ps = np.exp(-np.sum(p * p, -1) / s2)
            return np.stack([-2 * p[..., 1] / s2 * ps,
                             2 * p[..., 0] / s2 * ps,
                             np.zeros_like(ps)], -1)

        grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (64, 64, 64))
        v = BoxField.sample(grid, flat_hs, vsol, ncomp=3)
        res = decompose(flat_hs, v, flat_cfg)
        gq = BoxField(grid, res.grad_q1.data + res.grad_q2.data, v.inside_mask)
        assert l2(gq) < 5e-2 * l2(v)

    def test_exact_reconstruction(self, flat_hs, grad_field, flat_cfg):
        res = decompose(flat_hs, grad_field, flat_cfg)
        recon = res.v0.data + res.grad_q1.data + res.grad_q2.data
        gap = np.abs(grad_field.data - recon)[:, grad_field.inside_mask].max()
        assert gap < 1e-10

    def test_linearity(self, flat_hs, flat_grid, flat_cfg):
        def other(p):
            ps = np.exp(-np.sum((p - [0.3, -0.2, 1.6]) ** 2, -1) / 0.1)
            return np.stack([0.3 * ps, ps, -0.6 * ps], -1)

        v1 = BoxField.sample(flat_grid, flat_hs, grad_phi, ncomp=3)
        v2 = BoxField.sample(flat_grid, flat_hs, other, ncomp=3)
        combo = BoxField(flat_grid, 1.5 * v1.data + 0.5 * v2.data, v1.inside_mask)
        r12 = decompose(flat_hs, combo, flat_cfg)
        r1 = decompose(flat_hs, v1, flat_cfg)
        r2 = decompose(flat_hs, v2, flat_cfg)
        gap = np.abs(r12.v0.data - 1.5 * r1.v0.data - 0.5 * r2.v0.data).max()
        assert gap < 1e-8 * max(np.abs(combo.data).max(), 1.0)

    def test_idempotence(self, flat_hs, flat_cfg):
        s2 = 0.18

        def vsol(p):
            ps = np.exp(-np.sum(p * p, -1) / s2)
            return np.stack([-2 * p[..., 1] / s2 * ps,
                             2 * p[..., 0] / s2 * ps,
                             np.zeros_like(ps)], -1)

        grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (64, 64, 64))
        v = BoxField.sample(grid, flat_hs, vsol, ncomp=3)
        first = decompose(flat_hs, v, flat_cfg)
        stage = max(l2(BoxField(grid, first.grad_q1.data + first.grad_q2.data,
                                v.inside_mask)), 1e-12 * l2(v))
        second = decompose(flat_hs, first.v0, flat_cfg)
        gap = l2(BoxField(grid, second.v0.data - first.v0.data, v.inside_mask))
        assert gap <= 2.0 * stage + 1e-10 * l2(v)

    @settings(max_examples=10, deadline=None)
    @given(terms=FIELD_TERMS)
    def test_drawn_fields_reconstruct_exactly(self, flat_hs, flat_cfg, terms):
        v = _drawn_field(flat_hs, terms)
        res = decompose(flat_hs, v, flat_cfg)
        entries = {e.name: e.value for e in verify(res, flat_hs).entries}
        assert entries["reconstruction_max_err"] < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(t1=FIELD_TERMS, t2=FIELD_TERMS, a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
    def test_drawn_fields_decompose_linearly(self, flat_hs, flat_cfg, t1, t2, a, b):
        # S = 0 on a flat wall, so the series stops at once and is exactly linear
        v1, v2 = _drawn_field(flat_hs, t1), _drawn_field(flat_hs, t2)
        combo = BoxField(v1.grid, a * v1.data + b * v2.data, v1.inside_mask)
        r12, r1, r2 = (decompose(flat_hs, v, flat_cfg) for v in (combo, v1, v2))
        scale = np.abs(a * v1.data).max() + np.abs(b * v2.data).max()
        for key in ("v0", "grad_q1", "grad_q2"):
            part = a * getattr(r1, key).data + b * getattr(r2, key).data
            assert np.abs(getattr(r12, key).data - part).max() <= 1e-12 * scale

    def test_curved_gradient_input(self, gentle_hs):
        # the criterion-7a config: the lattice asked as 8.0 / 48 lands on the
        # box columns as 8.25 / 44; grad q2 takes the plane FFT at every safe
        # node and extrapolates the near ones from safe nodes of their columns.
        # The bump sources take the series in source height on every plane
        cfg = PipelineConfig(rho=0.055, quad_extent=8.0, quad_res=48,
                             mu=0.3, nu=0.08, samples=100, seed=5)
        grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (64, 64, 64))
        c = np.array([0.0, 0.0, 1.4])

        def gp(p):
            return -2.0 * (p - c) / S2 * np.exp(-np.sum((p - c) ** 2, -1) / S2)[..., None]

        v = BoxField.sample(grid, gentle_hs, gp, ncomp=3)
        pairs, planes = [], []
        with _counted_sums(pairs, planes):
            res = decompose(gentle_hs, v, cfg)
        assert l2(res.v0) < 5e-2 * l2(v)
        assert res.smallness["empirical_2S_norm"] < 1.0
        assert res.lattice == {"extent": 8.25, "resolution": 44, "stride": 3,
                               "bump_sum": "series", "series_order": 14,
                               "series_fallback_planes": 0}
        # no direct sum: no safe node lies below delta_min, and the series
        # converges on every plane
        assert pairs == []
        assert set(planes) <= set(grid.axis(2))

    def test_contraction_settles_in_30_steps(self, gentle_hs):
        # the 30 power steps of decompose against 60, on the criterion-7a lattice
        grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (64, 64, 64))
        extent, res, _, _ = _column_lattice(grid, 8.0, 48)
        q = SurfaceQuadrature(gentle_hs, extent, res)
        k30 = estimate_contraction(q, steps=30, seed=5)
        k60 = estimate_contraction(q, steps=60, seed=5)
        assert abs(k30 - k60) <= 1e-6 * k60

    def test_verify_report(self, flat_hs, grad_field, flat_cfg):
        res = decompose(flat_hs, grad_field, flat_cfg)
        rep = verify(res, flat_hs)
        assert rep.ok
        vals = {e.name: e.value for e in rep.entries}
        assert all(np.isfinite(v) and v >= 0 for v in vals.values())
        assert vals["reconstruction_max_err"] < 1e-10
        # verify gates the residuals decompose took, which a fresh
        # computation on the same arrays reproduces
        v_scale = float(np.abs(grad_field.data[:, grad_field.inside_mask]).max())
        slab = _inner_slab(box_wall(flat_hs, grad_field.grid))
        assert vals["residual_div"] == _residual_div(res.v0, grad_field, slab)
        assert vals["residual_normal"] == _residual_normal(res.v0, flat_hs, v_scale)

    def test_verify_gates(self, flat_hs, grad_field, flat_cfg):
        res = decompose(flat_hs, grad_field, flat_cfg)

        def ok(**residuals):
            return verify(replace(res, **residuals), flat_hs).ok

        assert ok(residual_normal=0.09) and not ok(residual_normal=0.11)
        assert ok(residual_div=0.9) and not ok(residual_div=1.1)

    def test_zero_input(self, flat_hs, flat_grid, flat_cfg):
        v = BoxField(flat_grid, np.zeros((3,) + tuple(flat_grid.resolution)))
        res = decompose(flat_hs, v, flat_cfg)
        assert l2(res.v0) == 0.0
        assert res.residual_div == 0.0 and res.residual_normal == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_refused(self, flat_hs, bad):
        # one inside value of the flat 32^3 box: sup |v| is then NaN or inf,
        # which no gate compares against, so the field is refused before the
        # volume potential transforms it
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        v = BoxField.sample(grid, flat_hs, grad_phi, ncomp=3)
        v.data[1, 16, 16, 20] = bad
        cfg = PipelineConfig(rho=0.07, quad_extent=6.0, quad_res=24, mu=0.3, nu=0.1,
                             samples=100, seed=5)
        with mock.patch.object(pipeline, "_free_space_gradient", side_effect=AssertionError), \
             pytest.raises(ValueError, match="NaN or infinite"):
            decompose(flat_hs, v, cfg)


# the gentle bump on a 32^3 box, the lattice asked as 8.0 / 24 (8.25 / 22 on
# the box columns): S is not 0, so a reused plan reuses real S blocks
CURVED_BOX = ((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (32, 32, 32))


def _curved_cfg():
    return PipelineConfig(rho=0.055, quad_extent=8.0, quad_res=24,
                          mu=0.3, nu=0.08, samples=100, seed=5)


def _swirl(p):
    d = p - [0.2, -0.1, 1.3]
    g = np.exp(-np.sum(d * d, -1) / 0.1)
    return np.stack([-d[..., 1] * g, d[..., 0] * g, 0.5 * g], -1)


@pytest.fixture(scope="module")
def curved_case(gentle_hs):
    """(grid, gradient field, swirl field) on the curved box."""
    grid = BoxGrid(*CURVED_BOX)
    return (grid, BoxField.sample(grid, gentle_hs, grad_phi, ncomp=3),
            BoxField.sample(grid, gentle_hs, _swirl, ncomp=3))


@pytest.fixture(scope="module")
def curved_plan_case(gentle_hs, curved_case):
    """One cfg whose plan decomposed both curved fields: (cfg, plan, r1, r2)."""
    _, v1, v2 = curved_case
    cfg = _curved_cfg()
    r1 = decompose(gentle_hs, v1, cfg)
    plan = cfg._plan
    r2 = decompose(gentle_hs, v2, cfg)
    assert cfg._plan is plan
    return cfg, plan, r1, r2


def _flat_twin_fields(flat_hs):
    """The gradient field on two flat 32^3 boxes of x'-width 4 and 5 whose
    inside masks are equal."""
    out = [BoxField.sample(BoxGrid((-w, -w, -0.4), (w, w, 3.6), (32, 32, 32)), flat_hs,
                           grad_phi, ncomp=3) for w in (2.0, 2.5)]
    assert np.array_equal(out[0].inside_mask, out[1].inside_mask)
    return out


@contextlib.contextmanager
def _counting(calls):
    """Record the geometry-only calls of decompose in calls: the quadrature,
    the contraction, and the distances and projections with their sizes."""
    def wrap(name, fn, sized):
        def counted(*args, **kw):
            calls.append((name, len(args[1])) if sized else name)
            return fn(*args, **kw)
        return counted

    with mock.patch.object(SurfaceQuadrature, "__init__",
                           wrap("quadrature", SurfaceQuadrature.__init__, False)), \
         mock.patch.object(pipeline, "estimate_contraction",
                           wrap("contraction", estimate_contraction, False)), \
         mock.patch.object(PerturbedHalfSpace, "signed_distance",
                           wrap("distance", PerturbedHalfSpace.signed_distance, True)), \
         mock.patch.object(PerturbedHalfSpace, "project_to_boundary",
                           wrap("projection", PerturbedHalfSpace.project_to_boundary, True)):
        yield


def _same_result(a, b):
    for key in ("v0", "grad_q1", "grad_q2"):
        assert getattr(a, key).data.tobytes() == getattr(b, key).data.tobytes()
    assert a.trace_g.values.tobytes() == b.trace_g.values.tobytes()
    for key in ("ledger_v", "ledger_v0", "ledger_gradq"):
        assert getattr(a, key).to_dict() == getattr(b, key).to_dict()
    assert (a.residual_div, a.residual_normal) == (b.residual_div, b.residual_normal)
    assert (a.smallness, a.lattice) == (b.smallness, b.lattice)


class TestPlan:
    def test_cold_decompose_takes_one_projection(self, gentle_hs, curved_case):
        # the box wall, out to delta_min, is the one closest-point pass over
        # box nodes; the only distances are the ledgers' ball centres that
        # the Lipschitz bound leaves open, taken once for the three ledgers
        grid, v1, _ = curved_case
        hs = PerturbedHalfSpace(gentle_hs.boundary)
        cfg = _curved_cfg()
        calls = []
        with _counting(calls):
            decompose(hs, v1, cfg)
        wall = cfg._plan.wall
        assert wall.width == cfg._plan.q.delta_min > hs.rho0
        sized = [c for c in calls if isinstance(c, tuple)]
        assert sized[0][0] == "projection"
        assert len(wall.index) <= sized[0][1] < grid.points().size // 3
        assert sized[1:] == [("distance", sized[1][1])]
        assert sized[1][1] <= cfg.samples // 10

    def test_alternating_plans_build_one_wall_each(self, gentle_hs):
        # two plans on one half space, on the curved box and its 64^3
        # refinement, applied A, B, A, B: each plan builds its own wall
        # once, so one closest-point pass per plan
        lower, upper, _ = CURVED_BOX
        grids = [BoxGrid(*CURVED_BOX), BoxGrid(lower, upper, (64, 64, 64))]
        fields = [BoxField.sample(g, gentle_hs, grad_phi, ncomp=3) for g in grids]
        calls = []
        with _counting(calls):
            plans = [DecompositionPlan(gentle_hs, v.grid, v.inside_mask, _curved_cfg())
                     for v in fields]
            for _ in range(2):
                for plan, v in zip(plans, fields):
                    plan.apply(v)
        assert [c[0] for c in calls if isinstance(c, tuple)].count("projection") == 2
        assert [plan.wall.grid for plan in plans] == grids

    def test_half_space_keeps_no_state(self, gentle_hs, curved_case):
        # decompose, the wall builder and the ledger geometry leave the
        # half space's attributes as they were: no wall is kept on it
        grid, v1, _ = curved_case
        before = dict(vars(gentle_hs))
        decompose(gentle_hs, v1, _curved_cfg())
        assert vars(gentle_hs) == before
        wall = box_wall(gentle_hs, grid, 0.5)
        assert vars(gentle_hs) == before
        geometry = ledger_geometry(wall, v1.inside_mask, 0.6, 0.6, 100, 5)
        assert geometry.tube is not None and vars(gentle_hs) == before

    def test_second_decompose_reuses_the_plan(self, gentle_hs, curved_case):
        _, v1, v2 = curved_case
        hs = PerturbedHalfSpace(gentle_hs.boundary)
        cfg = _curved_cfg()
        decompose(hs, v1, cfg)
        plan = cfg._plan
        calls = []
        with _counting(calls):
            second = decompose(hs, v2, cfg)
        assert cfg._plan is plan
        # no quadrature, contraction, projection or distance: the plan holds
        # the ledgers' balls
        assert calls == []
        _same_result(second, decompose(PerturbedHalfSpace(gentle_hs.boundary), v2,
                                       _curved_cfg()))

    def test_second_apply_builds_no_series_geometry(self, gentle_hs, curved_case):
        # the grad q2 sites keep the series records of the flat sources and
        # of the bump ones, both built at the first apply and read after
        _, v1, v2 = curved_case
        plan = DecompositionPlan(gentle_hs, v1.grid, v1.inside_mask, _curved_cfg())
        build, flat = _fast.series_geometry, []

        def counted(zs, h, *args):
            flat.append(not h.any())
            return build(zs, h, *args)

        with mock.patch.object(_fast, "series_geometry", counted):
            plan.apply(v1)
            assert sorted(flat) == [False, True]
            plan.apply(v2)
        assert len(flat) == 2

    def test_new_plan_for_new_cfg_hs_grid_or_mask(self, gentle_hs, flat_hs, curved_case):
        grid, v1, _ = curved_case
        hs = PerturbedHalfSpace(gentle_hs.boundary)
        cfg = _curved_cfg()
        decompose(hs, v1, cfg)
        plans = [cfg._plan]
        # an equal-valued config is another object, with a plan of its own
        twin = _curved_cfg()
        assert twin == cfg and hash(twin) == hash(cfg) and repr(twin) == repr(cfg)
        assert "_plan" not in repr(cfg)
        decompose(hs, v1, twin)
        assert twin._plan is not plans[0] and cfg._plan is plans[0]
        # each step changes one thing: the half space, then the mask
        other_hs = PerturbedHalfSpace(gentle_hs.boundary)
        decompose(other_hs, v1, cfg)
        plans.append(cfg._plan)
        mask = v1.inside_mask.copy()
        mask[0, 0, -1] = False
        decompose(other_hs, BoxField(grid, v1.data * mask[None], mask), cfg)
        plans.append(cfg._plan)
        # then the grid alone: flat boxes of another width share the mask
        narrow, wide = _flat_twin_fields(flat_hs)
        decompose(flat_hs, narrow, cfg)
        plans.append(cfg._plan)
        decompose(flat_hs, wide, cfg)
        plans.append(cfg._plan)
        assert len({id(p) for p in plans}) == 5
        assert [p.hs is other_hs for p in plans] == [False, True, True, False, False]

    def test_dropping_the_cfg_frees_the_plan(self, gentle_hs, curved_case):
        _, v1, _ = curved_case
        cfg = _curved_cfg()
        gc.disable()
        try:
            decompose(gentle_hs, v1, cfg)
            q = weakref.ref(cfg._plan.q)
            assert cfg._plan.cfg == cfg and cfg._plan.cfg._plan is None
            del cfg
            assert q() is None
        finally:
            gc.enable()

    def test_ledgers_equal_standalone(self, flat_hs, gentle_hs, grad_field, flat_cfg,
                                      curved_case, curved_plan_case):
        # the plan's ledger geometry gives the three ledgers of vbmol2_norm
        # on a geometry built afresh from a wall out to rho0, slot by slot; nu above 4 max(dx)
        # admits bnu balls, so the normal part is formed there: nu = 0.4 on
        # the flat box, and nu = 0.6 on the curved one, whose wall normals
        # vary.  mu above 2.5 max(dx) admits BMO balls: mu = 0.6 on the
        # curved box, where 0.3 admits none
        wide = replace(flat_cfg, nu=0.4)
        bump = replace(_curved_cfg(), nu=0.6, mu=0.6)
        cases = [(flat_hs, flat_cfg, decompose(flat_hs, grad_field, flat_cfg)),
                 (flat_hs, wide, decompose(flat_hs, grad_field, wide)),
                 (gentle_hs, curved_plan_case[0], curved_plan_case[2]),
                 (gentle_hs, curved_plan_case[0], curved_plan_case[3]),
                 (gentle_hs, bump, decompose(gentle_hs, curved_case[1], bump))]
        for hs, cfg, res in cases:
            grid, mask = res.v.grid, res.v.inside_mask
            geometry = ledger_geometry(box_wall(hs, grid), mask, cfg.mu, cfg.nu, cfg.samples,
                                       cfg.seed)
            gradq = BoxField(grid, res.grad_q1.data + res.grad_q2.data, mask)
            want = [vbmol2_norm(f, geometry) for f in (res.v, res.v0, gradq)]
            # decompose adds the trace's norms to the ledger of v
            want[0].hminus_half = res.ledger_v.hminus_half
            want[0].linf = max(want[0].linf, float(np.abs(res.trace_g.values).max()))
            got = [res.ledger_v, res.ledger_v0, res.ledger_gradq]
            assert [g.to_dict() for g in got] == [w.to_dict() for w in want]
        assert cases[1][2].ledger_v.bnu > 0.0 and cases[0][2].ledger_v.bnu == 0.0
        assert cases[4][2].ledger_v.bnu > 0.0 and cases[4][2].ledger_v.bmo > 0.0

    def test_second_apply_memory_cap(self, flat_hs):
        # what one apply allocates on a kept plan, whose own arrays the
        # first apply built: measured 5.20 to 5.23 fields of 3 components
        # on the flat 32^3 box with 1, 2, 4 and 8 usable CPUs, its peak
        # inside volume_potential_grad; bound 5.4 (3% margin)
        import scipy.fft  # noqa: F401  (its one-off import is not the apply's)

        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        v1 = BoxField.sample(grid, flat_hs, grad_phi, ncomp=3)
        v2 = BoxField.sample(grid, flat_hs, _swirl, ncomp=3)
        cfg = PipelineConfig(rho=0.07, quad_extent=6.0, quad_res=24, mu=0.3, nu=0.1,
                             samples=100, seed=5)
        plan = DecompositionPlan(flat_hs, grid, v1.inside_mask, cfg)
        plan.apply(v1)
        field = v2.data.nbytes
        for cpus in (1, 2, 8):
            with _usable_cpus(cpus):
                tracemalloc.start()
                try:
                    plan.apply(v2)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert peak <= 5.4 * field, f"{cpus} CPUs: {peak / field:.2f} fields"

    def test_apply_refuses_another_grid_or_mask(self, flat_hs):
        narrow, wide = _flat_twin_fields(flat_hs)
        plan = DecompositionPlan(flat_hs, narrow.grid, narrow.inside_mask, _curved_cfg())
        with pytest.raises(ValueError, match="grid and inside mask"):
            plan.apply(wide)
        mask = narrow.inside_mask.copy()
        mask[0, 0, -1] = False
        with pytest.raises(ValueError, match="grid and inside mask"):
            plan.apply(BoxField(narrow.grid, narrow.data * mask[None], mask))

    @settings(max_examples=4, deadline=None)
    @given(a=st.floats(-2.0, 2.0).map(lambda t: round(t, 3)),
           b=st.floats(-2.0, 2.0).map(lambda t: round(t, 3)))
    def test_curved_linearity_on_one_plan(self, gentle_hs, curved_case, curved_plan_case,
                                          a, b):
        grid, v1, v2 = curved_case
        cfg, plan, r1, r2 = curved_plan_case
        combo = BoxField(grid, a * v1.data + b * v2.data, v1.inside_mask)
        r12 = decompose(gentle_hs, combo, cfg)
        assert cfg._plan is plan
        bound = 1e-8 * max(np.abs(combo.data).max(), 1.0)
        for key in ("v0", "grad_q1", "grad_q2"):
            want = a * getattr(r1, key).data + b * getattr(r2, key).data
            assert np.abs(getattr(r12, key).data - want).max() < bound


# the manufactured fields on the bump: with F = x_n - h(x'), v_s = grad psi
# x grad F is divergence free and tangent to every level set of F, the wall
# included, so its v0 is v_s itself; v_g = grad phi has v0 = 0.  Gaussian
# psi and phi of width^2 0.12 decay at the box faces
MMS_PSI, MMS_PHI = np.array([0.2, -0.1, 1.0]), np.array([-0.3, 0.2, 1.2])


def _grad_gauss(p, centre):
    d = p - centre
    return -2.0 / S2 * d * np.exp(-np.sum(d * d, -1) / S2)[..., None]


def _v0_error(hs, field, n, res, height=None):
    """max and l2 of |v0 - exact| relative to those of v on the inside nodes
    of the n^3 box over hs, with rho 0.055 and an 8.0 / res lattice; height,
    when given, moves the Gaussian's centre to that x_n."""
    b = hs.boundary
    centre = (MMS_PHI if field == "v_g" else MMS_PSI).copy()
    if height is not None:
        centre[2] = height

    def fn(p):
        if field == "v_g":
            return _grad_gauss(p, centre)
        grad_f = np.concatenate([-b.gradient(p[..., :2]), np.ones(p.shape[:-1] + (1,))], -1)
        return np.cross(_grad_gauss(p, centre), grad_f)

    grid = BoxGrid((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (n, n, n))
    v = BoxField.sample(grid, hs, fn, ncomp=3)
    result = decompose(hs, v, PipelineConfig(rho=0.055, quad_extent=8.0, quad_res=res))
    vals = take_nodes(v.data, np.flatnonzero(v.inside_mask))
    exact = vals if field == "v_s" else 0.0
    err = take_nodes(result.v0.data, np.flatnonzero(result.v0.inside_mask)) - exact
    return (np.abs(err).max() / np.abs(vals).max(),
            np.sqrt(np.sum(err ** 2) / np.sum(vals ** 2)))


class TestManufacturedSolution:
    # the error of v0 on the bump, gated at measured values rounded up in
    # the third digit.  On the 32^3 box with an 8.0 / 16 lattice those of
    # the solve before the volume potential was pruned to the domain slab
    # (6.5563e-6, 2.6432e-6 for v_g and 8.0223e-6, 1.33267e-5 for v_s): the
    # pruned solve leaves v0's error where it was.  The error next to the
    # wall does not yet fall under refinement on the bump (ROADMAP item 1)
    @pytest.mark.parametrize("field, gate", [("v_g", (6.56e-6, 2.65e-6)),
                                             ("v_s", (8.03e-6, 1.34e-5))])
    def test_v0_error_on_the_bump(self, gentle_hs, field, gate):
        rel_max, rel_l2 = _v0_error(gentle_hs, field, 32, 16)
        assert rel_max <= gate[0] and rel_l2 <= gate[1], (rel_max, rel_l2)

    # on the 64^3 box with an 8.0 / 32 lattice, those of the direct
    # bump-source sum (2.09724e-5, 4.39039e-6 for v_g and 1.02996e-4,
    # 1.70714e-5 for v_s), which hold with the series the cost rule takes
    @pytest.mark.parametrize("field, gate", [("v_g", (2.10e-5, 4.40e-6)),
                                             ("v_s", (1.03e-4, 1.71e-5))])
    def test_v0_error_on_the_64_box(self, gentle_hs, field, gate):
        rel_max, rel_l2 = _v0_error(gentle_hs, field, 64, 32)
        assert rel_max <= gate[0] and rel_l2 <= gate[1], (rel_max, rel_l2)


# the same fields centred at height 0.35, so that they reach the wall at
# about max |v|, against the exact v0 (0 for v_g, v_s itself).  Gated at
# their measured values rounded up in the third digit: the mirror
# extension's jump at the wall owns most of this error (ROADMAP item 1),
# and the gates are to tighten as a smooth extension lands
WALL_HEIGHT = 0.35


class TestWallTouching:
    @pytest.mark.parametrize("n, field, gate", [
        (32, "v_g", (3.16e-1, 1.24e-1)), (32, "v_s", (5.58e-3, 3.31e-3)),
        (64, "v_g", (4.16e-1, 9.99e-2)), (64, "v_s", (8.76e-2, 1.51e-2))])
    def test_v0_error_on_the_bump(self, gentle_hs, n, field, gate):
        rel_max, rel_l2 = _v0_error(gentle_hs, field, n, n // 2, WALL_HEIGHT)
        assert rel_max <= gate[0] and rel_l2 <= gate[1], (rel_max, rel_l2)

    # v_s is tangential to the flat wall, so only roundoff is left of its error
    @pytest.mark.parametrize("n, field, gate", [
        (32, "v_g", (3.14e-1, 1.23e-1)), (32, "v_s", (1.67e-9, 2.66e-9)),
        (64, "v_g", (2.85e-1, 8.55e-2)), (64, "v_s", (1.87e-12, 9.84e-13))])
    def test_v0_error_on_the_flat_box(self, flat_hs, n, field, gate):
        rel_max, rel_l2 = _v0_error(flat_hs, field, n, n // 2, WALL_HEIGHT)
        assert rel_max <= gate[0] and rel_l2 <= gate[1], (rel_max, rel_l2)


class TestFlatOracle:
    def test_pipeline_matches_half_space_construction(self, flat_hs, flat_cfg,
                                                      grad_field):
        # for the flat boundary the whole pipeline must agree with the pure
        # half-space potential construction: q1 free-space + image-free
        # Neumann correction; compare v0 on the inner half-box in L2
        res = decompose(flat_hs, grad_field, flat_cfg)
        g = grad_field.grid
        # half-space construction for a pure gradient: v0 == 0 exactly
        inner = np.zeros(g.resolution, bool)
        inner[16:-16, 16:-16, 16:-16] = True
        inner &= grad_field.inside_mask
        dV = np.prod(g.dx)
        v0_l2 = np.sqrt(np.sum(res.v0.data[:, inner] ** 2) * dV)
        ref_l2 = np.sqrt(np.sum(grad_field.data[:, inner] ** 2) * dV)
        assert v0_l2 < 0.02 * ref_l2


class TestFieldIO:
    def test_roundtrip_byte_exact(self, tmp_path, flat_hs, grad_field):
        p1 = tmp_path / "field.json"
        write_field(grad_field, p1)
        back = read_field(p1, hs=flat_hs)
        assert np.array_equal(back.data, grad_field.data)
        assert back.grid == grad_field.grid
        # re-writing is byte identical
        p2 = tmp_path / "again.json"
        write_field(back, p2)
        assert (tmp_path / "field.bin").read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_header_schema(self, tmp_path, grad_field):
        import json

        p1 = tmp_path / "field.json"
        write_field(grad_field, p1)
        header = json.loads(p1.read_text())
        for key in ("dims", "lower", "upper", "resolution", "components",
                    "dtype", "order", "payload"):
            assert key in header
        assert header["dtype"] == "f64le"
        assert header["order"] == "row-major"
