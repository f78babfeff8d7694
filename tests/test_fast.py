"""Each dense pair kernel of ``_fast`` against a plain per-pair sum.

The references below form every pair explicitly from coordinate
differences, with no blocking and no |x|^2 - 2 x.y + |y|^2 expansion.  The
kernels are checked with the block size shrunk, so that small
inputs cross many blocks with a ragged last one and blocks of one row, and
with the real block size, including a source count above ``_BLOCK_ELEMS``.
The plane FFT ``gradslp_plane`` is checked against the same per-pair sum,
and the separable near-origin DFT of ``sobolev`` the same way.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdecomp import _fast
from helmdecomp.sobolev import BoundaryDensity, _semidiscrete_fhat2

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


def dir_rows_ref(xs, dirs, nodes, weights, c):
    d, r2 = _diff(xs, nodes)
    f = np.zeros_like(r2)
    keep = r2 > 1e-28
    f[keep] = (c * np.broadcast_to(weights, r2.shape))[keep] / (r2[keep] * np.sqrt(r2[keep]))
    return f * np.einsum("pjc,pc->pj", d, dirs)


def gagliardo_ref(coords, vals, mu):
    _, r2 = _diff(coords, coords)
    np.fill_diagonal(r2, 1.0)
    num = (vals[:, None] - vals[None, :]) ** 2
    return float(np.sum(num / r2**1.5 * mu[:, None] * mu[None, :]))


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
        coords, mu = _boundary(rng, m)
        vals = rng.normal(size=m)
        got = _fast.gagliardo_pairs(coords, vals, mu)
        ref = gagliardo_ref(coords, vals, mu)
        assert abs(got - ref) <= RTOL * max(abs(ref), 1e-300)


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


def test_gagliardo_matches_reference_real_block():
    rng = np.random.default_rng(3)
    coords, mu = _boundary(rng, 300)
    vals = rng.normal(size=300)
    ref = gagliardo_ref(coords, vals, mu)
    assert abs(_fast.gagliardo_pairs(coords, vals, mu) - ref) <= RTOL * ref


@settings(max_examples=40, deadline=None)
@given(p=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       n=st.tuples(st.integers(1, 13), st.integers(1, 13)),
       m=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       shift=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       seed=st.integers(0, 2**32 - 1))
def test_plane_fft_matches_reference(p, n, m, shift, seed):
    rng = np.random.default_rng(seed)
    dx = rng.uniform(0.05, 0.2, 2)
    x0 = rng.uniform(-1, 1, 2)
    axes = [x0[a] + dx[a] * np.arange(n[a]) for a in range(2)]
    cols = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
    src = [x0[a] + dx[a] * (shift[a] + p[a] * np.arange(m[a])) for a in range(2)]
    src = np.stack(np.meshgrid(*src, indexing="ij"), -1).reshape(-1, 2)
    nodes = np.column_stack([src, np.zeros(len(src))])
    w = rng.uniform(0.5, 1.5, m)
    # down to half a box spacing, where the kernel peaks on the sources
    zs = np.concatenate([[0.5 * dx.min()], rng.uniform(0.5 * dx.min(), 2.0, 2)])
    planes = list(_fast.gradslp_plane(zs, w, p, shift, tuple(dx), n, C))
    assert len(planes) == len(zs)
    for z, got in zip(zs, planes):
        assert got.shape == (n[0], n[1], 3)
        xs = np.column_stack([cols, np.full(len(cols), z)])
        ref = gradslp_ref(xs, nodes, w.ravel(), C)
        assert _rel_err(got.reshape(-1, 3), ref) <= RTOL


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
    for z, got in zip(zs, _fast.gradslp_plane(zs, w, (3, 3), (-24, -24), (dx, dx), (n, n), C)):
        ref = gradslp_ref(np.column_stack([cols, np.full(400, z)]), nodes, w.ravel(), C)
        assert _rel_err(got.reshape(-1, 3)[pick], ref) <= RTOL


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
    assert _rel_err(_semidiscrete_fhat2(f, xis), ref) <= RTOL
