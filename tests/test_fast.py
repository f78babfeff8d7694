"""Each kernel of ``_fast`` against a plain per-pair sum.

The references below form every pair explicitly from coordinate
differences, with no |x|^2 - 2 x.y + |y|^2 expansion and no blocking other
than the Gagliardo reference's 128-row chunks, which keep a 96^2 lattice
in memory.  The dense kernels are checked on scattered points with the block size shrunk,
so that small inputs cross many blocks with a ragged last one and blocks
of one row, and with the real block size, including a source count above
``_BLOCK_ELEMS``.  The lattice FFT kernels are checked on lattices:
``gradslp_series`` with its one term, the sources on the plane x_n = 0, on
box columns over a strided source lattice, against the direct sum and
against the three-component transform form kept here as
``gradslp_plane_ref``, ``gradslp_series`` against ``gradslp_sum`` over
the bump sources, and ``gagliardo_pairs`` on the row-major boundary
lattice, flat or lifted to a drawn bump, with its direct bump-row
correction crossing shrunk blocks.
``gagliardo_half`` is checked end to end at the sizes of the ``norms``
benchmark, and the separable near-origin DFT of ``sobolev`` against its
direct sum.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdecomp import _fast
from helmdecomp.geometry import BoundaryFunction, PerturbedHalfSpace
from helmdecomp.sobolev import (BoundaryDensity, _semidiscrete_fhat2, _separable_dft,
                                gagliardo_half, lattice_points, th_push)

RTOL = 1e-12
C = -0.25 / np.pi


def _rel_err(new, ref):
    return np.abs(np.asarray(new) - ref).max() / np.abs(ref).max()


def _diff(xs, ys):
    d = xs[:, None, :] - ys[None, :, :]
    return d, np.sum(d * d, axis=-1)


def gradslp_ref(xs, nodes, wg, c):
    d, r2 = _diff(xs, nodes)
    return np.sum(c * wg[None, :, None] * d / (r2 * np.sqrt(r2))[..., None], axis=1)


def gradslp_plane_ref(zs, w, p, shift, dx, n, c):
    """The planes of _plane_sum with each kernel component c (x - y)|x - y|^{-3}
    transformed on its own: three forward transforms and three inverses
    per plane, no moments."""
    from scipy.fft import next_fast_len

    span = p * (len(w) - 1) + 1
    size = (next_fast_len(span + n - 1),) * 2
    lat = np.zeros(size)
    lat[:span:p, :span:p] = w
    what = np.fft.rfft2(lat)
    off = (np.arange(span + n - 1) - (span - 1) - shift) * dx
    o0, o1 = off[:, None], off[None, :]
    keep = (slice(span - 1, span - 1 + n),) * 2
    for z in zs:
        r2 = o0 * o0 + o1 * o1 + z * z
        t = c / (r2 * np.sqrt(r2))
        yield np.stack([np.fft.irfft2(np.fft.rfft2(comp, s=size) * what, s=size)[keep]
                        for comp in (t * o0, t * o1, t * z)], -1)


def _plane_sum(zs, w, p, shift, dx, n):
    """The (len(zs), n, n, 3) planes of gradslp_series with one term: the
    sources, of weights w, on the plane x_n = 0 at box columns shift + p j."""
    cols, level = shift + p * np.arange(len(w)), np.zeros_like(w)
    geometry = _fast.series_geometry(zs, level, cols, dx, n)
    assert np.array_equal(geometry[0], np.ones(len(zs))) and geometry[1].shape == (1,) + w.shape
    out = np.zeros((len(zs), n, n, 3))
    _fast.gradslp_series(zs, w, level, cols, dx, n, C, geometry, out)
    return out


def dir_rows_ref(xs, dirs, nodes, weights, c):
    d, r2 = _diff(xs, nodes)
    f = np.zeros_like(r2)
    keep = r2 > 1e-28
    f[keep] = (c * np.broadcast_to(weights, r2.shape))[keep] / (r2[keep] * np.sqrt(r2[keep]))
    return f * np.einsum("pjc,pc->pj", d, dirs)


def gagliardo_ref(coords, vals, mu, rows=128):
    total = 0.0
    for a in range(0, len(coords), rows):
        b = min(a + rows, len(coords))
        _, r2 = _diff(coords[a:b], coords)
        r2[np.arange(b - a), np.arange(a, b)] = 1.0  # the diagonal numerator is 0
        num = (vals[a:b, None] - vals[None, :]) ** 2
        total += float(np.sum(num / r2**1.5 * mu[a:b, None] * mu[None, :]))
    return total


def closest_ref(xp, xn, cand, ch):
    d2 = np.sum((xp[:, None, :] - cand[None]) ** 2, -1) + (xn[:, None] - ch[None]) ** 2
    return np.argmin(d2, axis=1)


def _boundary(rng, m):
    """m sources near the plane and their weights."""
    nodes = np.column_stack([rng.uniform(-1, 1, (m, 2)), 0.02 * rng.normal(size=m)])
    return nodes, rng.uniform(0.5, 1.5, m)


def _targets(rng, n):
    return np.column_stack([rng.uniform(-1, 1, (n, 2)), rng.uniform(0.3, 1.0, n)])


def _check_all(rng, n, m):
    nodes, w = _boundary(rng, m)
    xs = _targets(rng, n)
    wg = w * rng.uniform(0.5, 1.5, m)  # one sign: no cancellation in the z sum
    assert _rel_err(_fast.gradslp_sum(xs, nodes, wg, C), gradslp_ref(xs, nodes, wg, C)) <= RTOL

    # lattice rows: targets on the sources themselves, so coincident pairs occur
    k = min(n, m)
    dirs = rng.normal(size=(k, 3))
    new = _fast.dir_gradslp_rows(nodes[:k], dirs, nodes, w, C)
    ref = dir_rows_ref(nodes[:k], dirs, nodes, w, C)
    assert np.all(new[np.arange(k), np.arange(k)] == 0.0)
    if np.any(ref):
        assert _rel_err(new, ref) <= RTOL

    cand = rng.uniform(-1, 1, (m, 2))
    ch = rng.normal(size=m)
    xp = rng.uniform(-1, 1, (n, 2))
    xn = rng.normal(size=n)
    np.testing.assert_array_equal(_fast.closest_on_grid(xp, xn, cand, ch),
                                  closest_ref(xp, xn, cand, ch))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), m=st.integers(1, 60), block=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_match_reference_across_blocks(n, m, block, seed):
    rng = np.random.default_rng(seed)
    with mock.patch.object(_fast, "_BLOCK_ELEMS", block):
        _check_all(rng, n, m)


@settings(max_examples=5, deadline=None)
@given(m=st.integers(500, 3000), full=st.integers(1, 3), tail=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_match_reference_ragged_real_block(m, full, tail, seed):
    # at least 21 rows per block here, so the last block keeps tail < rows rows
    n = full * (_fast._BLOCK_ELEMS // m) + tail
    _check_all(np.random.default_rng(seed), n, m)


def test_kernels_match_reference_one_row_blocks():
    m = _fast._BLOCK_ELEMS + 37
    _check_all(np.random.default_rng(7), 3, m)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradslp_sum_cancellation_above_delta_min(seed):
    # gradslp_sum forms rho2 as |x|^2 - 2 x.y + |y|^2, which cancels for a
    # target close to a source far from the origin: on the 44^2 lattice of
    # extent 8.25, at heights down to delta_min (1.5 spacings) above the
    # outermost nodes and 100 others, with weights of both signs, it stays
    # within 1e-13
    rng = np.random.default_rng(seed)
    dx = 8.25 / 44
    a = -4.125 + dx * np.arange(44)
    src = np.stack(np.meshgrid(a, a, indexing="ij"), -1).reshape(-1, 2)
    nodes = np.column_stack([src, np.zeros(len(src))])
    wg = rng.normal(size=len(src))
    outer = np.abs(src).max(axis=1) >= 4.125 - 1.5 * dx
    cols = np.concatenate([src[outer], src[rng.choice(np.flatnonzero(~outer), 100)]])
    for z in (1.5 * dx, 0.5, 2.0):
        xs = np.column_stack([cols, np.full(len(cols), z)])
        ref = gradslp_ref(xs, nodes, wg, C)
        assert _rel_err(_fast.gradslp_sum(xs, nodes, wg, C), ref) <= 1e-13


def _cpus(k):
    """Patch the usable CPUs that gradslp_series sees to k."""
    return mock.patch.object(_fast.os, "sched_getaffinity", return_value=set(range(k)))


def test_map_threads_takes_iterators():
    # the items are drawn once, so iterators and generators map like lists
    for k in (1, 3):
        got = _fast.map_threads(lambda a, b: a * b, iter(range(k)), (2 * i for i in range(k)))
        assert got == [2 * i * i for i in range(k)]


def _lattice(extent, res, boundary=None):
    """coords, mu of gagliardo_half on the res^2 lattice, flat or lifted."""
    pts = lattice_points(extent, res).reshape(-1, 2)
    mu = np.full(len(pts), (extent / res) ** 2)
    if boundary is None:
        return np.column_stack([pts, np.zeros(len(pts))]), mu
    return np.column_stack([pts, boundary.height(pts)]), mu * boundary.omega(pts)


@settings(max_examples=60, deadline=None)
@given(res=st.integers(1, 40), extent=st.floats(1.0, 20.0),
       mode=st.sampled_from(["plane", "smooth-bump", "gaussian-bump"]),
       reach=st.floats(0.05, 1.0), rough=st.booleans(), block=st.integers(1, 500),
       seed=st.integers(0, 2**32 - 1))
def test_gagliardo_matches_reference_on_lattices(res, extent, mode, reach, rough, block, seed):
    # the bump reaches reach * extent from the centre, so reach > 1/sqrt(2)
    # lifts every node; smooth densities range from peaked to nearly
    # constant and sit on an offset, the case the mu-mean shift is for
    rng = np.random.default_rng(seed)
    boundary = None
    if mode != "plane":
        R = reach * extent
        a = rng.uniform(0.05, 0.5) * R
        boundary = (BoundaryFunction.smooth_bump(a, R) if mode == "smooth-bump"
                    else BoundaryFunction.gaussian_bump(a, R / 4.0))
    coords, mu = _lattice(extent, res, boundary)
    if rough:
        vals = rng.normal(size=res * res)
    else:
        c = rng.uniform(-0.25, 0.25, 2) * extent
        w = rng.uniform(0.01, 10.0) * extent**2
        vals = rng.uniform(-100, 100) + np.exp(-np.sum((coords[:, :2] - c) ** 2, -1) / w)
    # one node: no pair, and no spacing to build a geometry on
    geometry = _fast.gagliardo_geometry(coords, mu) if res > 1 else None
    with mock.patch.object(_fast, "_BLOCK_ELEMS", block):
        got = _fast.gagliardo_pairs(coords, vals, geometry)
    ref = gagliardo_ref(coords, vals, mu)
    assert abs(got - ref) <= RTOL * ref


@pytest.mark.parametrize("boundary", [None, BoundaryFunction.smooth_bump(0.3, 0.4)])
def test_gagliardo_same_with_and_without_geometry(boundary):
    # one geometry, held across fields, gives the value of a geometry
    # built afresh for each call
    coords, mu = _lattice(10.0, 64, boundary)
    geometry = _fast.gagliardo_geometry(coords, mu)
    assert (len(geometry[4]) > 0) == (boundary is not None)
    rng = np.random.default_rng(11)
    for _ in range(3):
        vals = rng.normal(size=len(coords)) + rng.uniform(-5.0, 5.0)
        fresh = _fast.gagliardo_pairs(coords, vals, _fast.gagliardo_geometry(coords, mu))
        assert abs(_fast.gagliardo_pairs(coords, vals, geometry) - fresh) <= 1e-15 * fresh


def test_gagliardo_matches_reference_real_block():
    # every node lifted: 2304 correction rows in blocks of 28 rows
    boundary = BoundaryFunction.gaussian_bump(0.3, 1.5)
    coords, mu = _lattice(6.0, 48, boundary)
    assert np.all(coords[:, 2] != 0.0)
    vals = np.random.default_rng(3).normal(size=len(coords))
    ref = gagliardo_ref(coords, vals, mu)
    got = _fast.gagliardo_pairs(coords, vals, _fast.gagliardo_geometry(coords, mu))
    assert abs(got - ref) <= RTOL * ref


def test_gagliardo_half_matches_reference_at_norms_sizes():
    # the norms benchmark: plane 96^2 of extent 14, and graph and plane 64^2
    # of extent 10 over smooth-bump(0.3, 0.4)
    hs = PerturbedHalfSpace(BoundaryFunction.smooth_bump(0.3, 0.4), reach_estimate=1.0)
    rng = np.random.default_rng(5)
    c, w = rng.uniform(-1.0, 1.0, 2), rng.uniform(0.3, 1.0)
    fn = lambda p: np.exp(-np.sum((p - c) ** 2, -1) / w)  # noqa: E731
    f96 = BoundaryDensity.sample(14.0, 96, fn)
    f64 = BoundaryDensity.sample(10.0, 64, fn)
    cases = [(f96, None), (th_push(f64), hs), (f64, None)]
    got = [gagliardo_half(f, hs=h) for f, h in cases]

    # the reference sums every pair itself and reads only the measure mu of
    # the held geometry
    def ref_pairs(coords, vals, geometry):
        return gagliardo_ref(coords, vals, geometry[2])

    with mock.patch.object(_fast, "gagliardo_pairs", ref_pairs):
        ref = [gagliardo_half(f, hs=h) for f, h in cases]
    for g, r in zip(got, ref):
        assert abs(g - r) <= RTOL * r


# the moment form cancels x' (t*w) against t*(y' w), by up to about the box
# half-width over the closest source offset: 5.5e-14 on signed weights on
# the 96^2 box at half a box spacing
PLANE_FORM_RTOL = 1e-13


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 3), n=st.integers(1, 13), m=st.integers(1, 6),
       shift=st.integers(-8, 8), seed=st.integers(0, 2**32 - 1))
def test_plane_fft_matches_reference(p, n, m, shift, seed):
    rng = np.random.default_rng(seed)
    dx = rng.uniform(0.05, 0.2)
    x0 = rng.uniform(-1, 1, 2)
    axes = [x0[a] + dx * np.arange(n) for a in range(2)]
    cols = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
    src = [x0[a] + dx * (shift + p * np.arange(m)) for a in range(2)]
    src = np.stack(np.meshgrid(*src, indexing="ij"), -1).reshape(-1, 2)
    nodes = np.column_stack([src, np.zeros(len(src))])
    w = rng.uniform(0.5, 1.5, (m, m))
    # down to half a box spacing, where the kernel peaks on the sources
    zs = np.concatenate([[0.5 * dx], rng.uniform(0.5 * dx, 2.0, 2)])
    planes = _plane_sum(zs, w, p, shift, dx, n)
    assert len(planes) == len(zs)
    for z, got in zip(zs, planes):
        assert got.shape == (n, n, 3)
        xs = np.column_stack([cols, np.full(len(cols), z)])
        ref = gradslp_ref(xs, nodes, w.ravel(), C)
        assert _rel_err(got.reshape(-1, 3), ref) <= RTOL
    form = np.stack(list(gradslp_plane_ref(zs, w, p, shift, dx, n, C)))
    assert np.abs(planes - form).max() <= PLANE_FORM_RTOL * np.abs(form).max()


def test_plane_fft_matches_reference_96_box():
    # a 96^2 box of spacing 1/24 under a 48^2 lattice of spacing 1/8 whose
    # origin lies 24 box spacings below the box's; 400 sampled columns
    rng = np.random.default_rng(11)
    dx, n, m = 1.0 / 24.0, 96, 48
    w = rng.uniform(0.5, 1.5, (m, m))
    src = -3.0 + 3 * dx * np.arange(m)
    src = np.stack(np.meshgrid(src, src, indexing="ij"), -1).reshape(-1, 2)
    nodes = np.column_stack([src, np.zeros(len(src))])
    pick = rng.choice(n * n, 400, replace=False)
    cols = -2.0 + dx * np.column_stack(np.unravel_index(pick, (n, n)))
    zs = [0.5 * dx, 0.1875, 2.0]
    for z, got in zip(zs, _plane_sum(zs, w, 3, -24, dx, n)):
        ref = gradslp_ref(np.column_stack([cols, np.full(400, z)]), nodes, w.ravel(), C)
        assert _rel_err(got.reshape(-1, 3)[pick], ref) <= RTOL


@pytest.mark.parametrize("m, n, shift, dx", [(48, 96, -24, 1.0 / 24.0), (44, 64, -34, 1.0 / 16.0)],
                         ids=["flat96", "curved64"])
def test_plane_moment_form_matches_component_form_on_benchmark_boxes(m, n, shift, dx):
    # the lattices of the flat 96^3 and curved 64^3 boxes (stride 3), signed
    # weights, planes from half a box spacing to the top of the box
    w = np.random.default_rng(5).uniform(-1.0, 1.0, (m, m))
    zs = dx * np.array([0.5, 1.5, 4.5, 20.5, n - 0.5])
    got = _plane_sum(zs, w, 3, shift, dx, n)
    ref = np.stack(list(gradslp_plane_ref(zs, w, 3, shift, dx, n, C)))
    assert np.abs(got - ref).max() <= PLANE_FORM_RTOL * np.abs(ref).max()


# the series in source height against gradslp_sum, relative to its max over
# the box, the max of the sum over |w| where the weights take both signs:
# the series stops where its next coefficient is below 1e-15 of its first,
# and the heights of these boxes keep gradslp_sum's own cancellation below
# 2e-14
SERIES_RTOL = 1e-13


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 3), n=st.integers(2, 12), m=st.integers(1, 6),
       shift=st.integers(-6, 6), kind=st.sampled_from(["bump", "dip", "mixed", "equal"]),
       signed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_series_matches_gradslp_sum(p, n, m, shift, kind, signed, seed):
    rng = np.random.default_rng(seed)
    dx = rng.uniform(0.02, 0.1)
    a = rng.uniform(0.005, 0.05) * (-1.0 if kind == "dip" else 1.0)
    h = {"bump": a * rng.uniform(0.0, 1.0, (m, m)), "dip": a * rng.uniform(0.0, 1.0, (m, m)),
         "mixed": a * rng.uniform(-1.0, 1.0, (m, m)), "equal": np.full((m, m), a)}[kind]
    # some flat nodes, which the series leaves out, but not all
    h[rng.random((m, m)) < 0.3] = 0.0
    h[0, 0] = h[0, 0] or a
    w = rng.uniform(0.5, 1.5, (m, m))
    if signed:
        w *= rng.choice([-1.0, 1.0], (m, m))
    lo, hi = h[h != 0].min(), h[h != 0].max()
    # planes 0.1 and more above the sources, up to 30 height ranges over
    # them, and one amid them (at them when they are equal), which cannot
    # converge
    zs = np.concatenate([hi + 0.1 + (hi - lo) * rng.uniform(0.0, 30.0, 3),
                         [0.5 * (lo + hi)], [hi + 0.1 + 30.0 * (hi - lo)]])
    cols = shift + p * np.arange(m)
    geometry = _fast.series_geometry(zs, h, cols, dx, n)
    orders = geometry[0]
    assert orders[3] == 0 and orders[-1] > 0 and orders.max() <= _fast._SERIES_KMAX
    assert geometry[1].shape == (orders.max(), m, m)
    start = rng.standard_normal((len(zs), n, n, 3))
    out = start.copy()
    _fast.gradslp_series(zs, w, h, cols, dx, n, C, geometry, out)
    # no plane without a series is touched
    assert np.array_equal(out[orders == 0], start[orders == 0])
    xs = (np.arange(n) - 0.5 * (n - 1)) * dx
    ys = (cols - 0.5 * (n - 1)) * dx
    on = h != 0
    nodes = np.column_stack([np.broadcast_to(ys[:, None], (m, m))[on],
                             np.broadcast_to(ys[None, :], (m, m))[on], h[on]])
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
    for i in np.flatnonzero(orders):
        targets = np.column_stack([grid, np.full(n * n, zs[i])])
        ref = _fast.gradslp_sum(targets, nodes, w[on], C)
        scale = np.abs(_fast.gradslp_sum(targets, nodes, np.abs(w[on]), C)).max()
        assert np.abs((out[i] - start[i]).reshape(-1, 3) - ref).max() <= SERIES_RTOL * scale


def test_series_peak_does_not_grow_with_the_cpus():
    # a bump lattice like that of the 64^3 curved box: 21^2 sources at
    # stride 3, N = 128, 53 planes from 0.66 to 4 over heights up to 0.05.
    # The workers' buffers stay within _SERIES_THREAD_BYTES on any CPU
    # count, and each plane is summed alike whichever worker takes it.  The
    # same sources on x_n = 0 take the one-term series, on one worker on any
    # CPU count: no more workers than terms
    n, dx, m = 64, 4.0 / 64, 21
    cols = 2 + 3 * np.arange(m)
    ys = (cols - 0.5 * (n - 1)) * dx
    h = 0.05 * np.exp(-(ys[:, None] ** 2 + ys[None, :] ** 2) / 0.25)
    w = np.random.default_rng(7).uniform(-1.0, 1.0, (m, m))
    zs = dx * (np.arange(10, 63) + 0.5)
    for heights in (h, np.zeros_like(h)):
        geometry = _fast.series_geometry(zs, heights, cols, dx, n)
        assert geometry[0].min() > 0
        peaks, outs = {}, {}
        for cpus in (1, 2, 8, 64):
            out = np.zeros((len(zs), n, n, 3))
            with _cpus(cpus):
                tracemalloc.start()
                try:
                    _fast.gradslp_series(zs, w, heights, cols, dx, n, C, geometry, out)
                    _, peaks[cpus] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            outs[cpus] = out
        # one term, one worker: the peak moves by much less than the 1.2 MB
        # of a second worker's buffers
        grow = _fast._SERIES_THREAD_BYTES if heights.any() else 1 << 16
        for cpus in (2, 8, 64):
            assert peaks[cpus] <= peaks[1] + grow, (cpus, peaks)
            assert np.array_equal(outs[cpus], outs[1])


@pytest.mark.parametrize("k", [1, 7, 119, 120, 121, 125, 126, 127, 193, 201, 241])
def test_even_fast_len(k):
    # the least even 2^a 3^b 5^c at or above k: 120 and 128, not 126, near 125
    got = _fast.even_fast_len(k)
    smooth = [s for s in range(k, 2 * k + 2) if s % 2 == 0 and _is_5_smooth(s)]
    assert got == smooth[0]


def _is_5_smooth(s):
    for f in (2, 3, 5):
        while s % f == 0:
            s //= f
    return s == 1


@settings(max_examples=20, deadline=None)
@given(res=st.integers(4, 24), k1=st.integers(1, 6), k2=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_separable_dft_matches_direct_sum(res, k1, k2, seed):
    rng = np.random.default_rng(seed)
    f = BoundaryDensity(3.0, rng.normal(size=(res, res)))
    # off-lattice frequencies on a k1 x k2 product set, every pair twice and
    # shuffled, so both coordinates repeat
    u1 = rng.uniform(-5, 5, k1)
    u2 = rng.uniform(-5, 5, k2)
    xis = np.stack(np.meshgrid(u1, u2, indexing="ij"), -1).reshape(-1, 2)
    xis = rng.permutation(np.concatenate([xis, xis]))
    pts = f.points().reshape(-1, 2)
    ref = np.abs(np.exp(-1j * xis @ pts.T) @ f.values.ravel() * f.dx**2) ** 2
    assert _rel_err(_semidiscrete_fhat2(f, _separable_dft(f.axis(), xis)), ref) <= RTOL
