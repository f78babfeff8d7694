"""Pair sums as row-blocked numpy kernels and lattice FFT convolutions.

The dense kernels walk the targets in blocks of ``max(1, _BLOCK_ELEMS // m)``
rows for m sources, so a (rows, m) buffer holds about ``_BLOCK_ELEMS``
float64 values (512 KiB) and stays in cache; a block is one row when m
exceeds ``_BLOCK_ELEMS``.  Each kernel allocates its buffers once and fills
them in place, block after block.  Results differ from one whole-array sum
by rounding only (summation order, and |x - y|^3 formed as rho2 *
sqrt(rho2)).  ``gradslp_sum``, the grad q2 sum over the bump sources,
splits its blocks into one row range per usable CPU, summed on threads by
``map_threads``; the calling thread allocates every buffer, because arrays
allocated on the worker threads come from glibc's per-thread arenas and
raise the peak resident memory.

Two kernels are discrete 2-D convolutions on a lattice, done by Hockney's
zero-padded FFT, exact up to transform roundoff: ``gradslp_plane`` (grad
SLP over a z-plane of box columns, in a moment form whose cancellation
scales that roundoff by up to the box half-width over the nearest source
offset) and ``gagliardo_pairs`` (the Gagliardo pair sum, plus a direct
K - K0 correction on the lifted bump rows).  ``gradslp_plane`` stays
serial: threading its plane loop did not pay end to end on the 96^3 flat
box and kept about 10 MB more resident.

Everything of the Gagliardo sum that depends on the lattice and its
measure alone, the real spectrum of the flat kernel, K0 * mu and the
lifted nodes with their measure, is built by ``gagliardo_geometry``, which
``sobolev.gagliardo_half`` keeps per lattice and boundary; a call then
transforms the field once forward and once back, and forms the K - K0
rows of the lifted nodes block by block.
Those transforms use ``numpy.fft``: importing ``scipy.fft`` raises the
resident memory of a process that needs nothing else of scipy, as the
boundary norms alone do, by about 27 MB.
"""

import os

import numpy as np

# numpy is the only backend; the flag stays for the benchmark's env stamp
_HAVE_NUMBA = False

# float64 elements per (rows, m) buffer
_BLOCK_ELEMS = 1 << 16


def _row_blocks(n, m, dtypes=(float, float)):
    """Yield (row slice, buffer views) over n rows against m columns.

    One (rows, m) buffer per dtype is allocated once; each block gets
    views of its first rows.
    """
    rows = max(1, _BLOCK_ELEMS // max(m, 1))
    bufs = [np.empty((rows, m), dtype=dt) for dt in dtypes]
    for a in range(0, n, rows):
        b = min(a + rows, n)
        yield slice(a, b), [buf[: b - a] for buf in bufs]


def _sq_dist(xs, ys, r, d):
    """r = |xs_p - ys_j|^2 by exact coordinate differences; d is a work buffer."""
    for k in range(xs.shape[1]):
        np.subtract(xs[:, k, None], ys[:, k], out=d)
        if k == 0:
            np.multiply(d, d, out=r)
        else:
            d *= d
            r += d


def gradslp_sum(xs, nodes, wg, c):
    """sum_j c (x - y_j) |x - y_j|^{-3} (w g)_j for each row of xs.

    rho2 by the expansion below cancels when x is near a source far from the
    origin: above the 44^2 nodes of a lattice of extent 8.25, with weights of
    both signs, the error reaches 3.3e-13 of the largest value at height 1/32
    and 2.5e-14 at delta_min = 0.28125, the least distance from the wall at
    which the pipeline sums.  Exact differences took 2 to 4 times as long.

    The row blocks are split into one contiguous range per usable CPU, each
    summed by a worker thread (numpy releases the GIL in the block loops);
    with one CPU or one block the calling thread sums them all.  Every
    buffer is allocated here and the workers only write into views of it:
    with arrays allocated by the workers, which come from glibc's
    per-thread arenas, the 64^3 curved benchmark peaked near 250 MB, not 230.
    """
    # rho2 = |x|^2 - 2 x.y + |y|^2 is one product of [-2x, |x|^2, 1] and
    # [y, 1, |y|^2]; sum_j t_j and sum_j t_j y_j are one product with [1, y]
    n, m = len(xs), len(nodes)
    a = np.column_stack([-2.0 * xs, np.sum(xs * xs, axis=1), np.ones(n)])
    b = np.vstack([nodes.T, np.ones(m), np.sum(nodes * nodes, axis=1)])
    one_y = np.column_stack([np.ones(m), nodes])
    cwg = c * wg
    out = np.empty((n, 3))
    rows = max(1, _BLOCK_ELEMS // max(m, 1))
    blocks = -(-n // rows)
    workers = max(1, min(len(os.sched_getaffinity(0)), blocks))
    bufs = [(np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, 4)))
            for _ in range(workers)]

    def run(lo, hi, r, t, s):
        for i in range(lo, hi, rows):
            j = min(i + rows, hi)
            rj, tj, sj = r[: j - i], t[: j - i], s[: j - i]
            np.matmul(a[i:j], b, out=rj)
            # t = c wg / rho2^{3/2}
            np.sqrt(rj, out=tj)
            tj *= rj
            np.divide(cwg, tj, out=tj)
            np.matmul(tj, one_y, out=sj)
            np.multiply(xs[i:j], sj[:, :1], out=out[i:j])
            out[i:j] -= sj[:, 1:]

    # worker k takes blocks [blocks k / workers, blocks (k + 1) / workers)
    cuts = [min(n, rows * (blocks * k // workers)) for k in range(workers + 1)]
    map_threads(run, cuts[:-1], cuts[1:], *zip(*bufs))
    return out


def map_threads(fn, *iterables):
    """list(map(fn, *iterables)), one worker thread per item (none for one
    item).  Workers write into arrays the caller allocated: see the module."""
    items = list(zip(*iterables))
    if len(items) == 1:
        return [fn(*items[0])]
    # imported here, as it pulls in logging: importing the package stays cheap
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(items)) as pool:
        return list(pool.map(lambda args: fn(*args), items))


def dir_gradslp_rows(xs, dirs, nodes, weights, c):
    """Rows of the lattice operator d_p . sum_j c (x_p - y_j)|.|^{-3} w_j."""
    out = np.empty((xs.shape[0], nodes.shape[0]))
    cw = c * weights
    for sl, (r, d, coincide) in _row_blocks(len(xs), len(nodes), (float, float, bool)):
        _sq_dist(xs[sl], nodes, r, d)
        # coincident pairs get rho2 = inf, hence a zero entry
        np.less_equal(r, 1e-28, out=coincide)
        np.putmask(r, coincide, np.inf)
        dot = out[sl]
        dot.fill(0.0)
        for k in range(3):
            np.subtract(xs[sl, k, None], nodes[:, k], out=d)
            d *= dirs[sl, k, None]
            dot += d
        np.sqrt(r, out=d)
        d *= r
        np.divide(cw, d, out=d)
        dot *= d
    return out


def closest_on_grid(xp, xn, cand, ch):
    """Index of the closest (cand_j, ch_j) surface sample per point."""
    out = np.empty(xp.shape[0], dtype=np.int64)
    x, y = np.column_stack([xp, xn]), np.column_stack([cand, ch])
    for sl, (r, d) in _row_blocks(len(x), len(y)):
        _sq_dist(x[sl], y, r, d)
        np.argmin(r, axis=1, out=out[sl])
    return out


def _flat_conv(spec, w):
    """(K0 * w) on the res^2 nodes of w, by the (2 res)^2 zero-padded FFT
    with the real spectrum spec of K0; only the res target rows are
    inverted along axis 1."""
    res = len(w)
    prod = np.fft.rfft2(w, s=(2 * res, 2 * res))
    prod *= spec
    rows = np.fft.ifft(prod, axis=0)[:res]
    return np.fft.irfft(rows, n=2 * res, axis=1)[:, :res].ravel()


def gagliardo_geometry(coords, mu):
    """What gagliardo_pairs reads of the lattice and mu alone, read-only:
    (spec, k0_mu, mu_sum, lifted, xs, ms, cw).

    spec is the real spectrum of the flat kernel K0 on the (2 res)^2
    circular lattice, entry k at the offset min(k, 2 res - k) dx: K0 is
    real and even, so its transform is real and the imaginary part left by
    the transform is roundoff, dropped.  k0_mu = K0 * mu on the nodes and
    mu_sum = sum mu.  lifted are the indices S of the nodes off the plane
    (height != 0), xs and ms their coordinates and mu, and cw = mu on S and
    2 mu off it.
    """
    m = len(coords)
    res = int(round(m**0.5))
    dx = (coords[-1, :2] - coords[0, :2]) / (res - 1)
    o = np.r_[0:res + 1, res - 1:0:-1]
    r2 = (o[:, None] * dx[0]) ** 2 + (o[None, :] * dx[1]) ** 2
    r2[0, 0] = np.inf
    spec = np.fft.rfft2(r2**-1.5).real.copy()
    k0_mu = _flat_conv(spec, mu.reshape(res, res))
    lifted = np.flatnonzero(coords[:, 2] != 0.0)
    cw = mu * 2.0
    cw[lifted] = mu[lifted]
    held = (spec, k0_mu, lifted, coords[lifted], mu[lifted], cw)
    for a in held:
        a.flags.writeable = False
    return spec, k0_mu, float(mu.sum()), *held[2:]


def gagliardo_pairs(coords, vals, mu, geometry=None):
    """sum_{i != j} (v_i - v_j)^2 |x_i - x_j|^{-3} mu_i mu_j on a lifted lattice.

    coords holds a row-major res^2 lattice in x', each node lifted to its
    height.  With the flat kernel K0 (K0(0) = 0) and u = v minus its mu-mean,
    which keeps the cancelling terms small, the flat sum is the FFT pair
    2 sum_i u_i mu_i (u_i (K0 * mu)_i - (K0 * u mu)_i).  K differs from K0
    only on pairs with a lifted end, so K - K0 is summed directly over the
    lifted rows S: twice S against all nodes, less S against S.  geometry
    is gagliardo_geometry(coords, mu), built here when not given; per call
    only u mu is transformed, once forward and once back.
    """
    m = len(coords)
    res = int(round(m**0.5))
    if res < 2:
        return 0.0
    if geometry is None:
        geometry = gagliardo_geometry(coords, mu)
    spec, k0_mu, mu_sum, lifted, xs, ms, cw = geometry
    u = vals - (vals @ mu) / mu_sum
    um = u * mu
    total = 2.0 * float(um @ (u * k0_mu - _flat_conv(spec, um.reshape(res, res))))

    vs = vals[lifted]
    for sl, (r, d, k) in _row_blocks(len(xs), m, (float, float, float)):
        _sq_dist(xs[sl, :2], coords[:, :2], r, d)
        r[r == 0.0] = np.inf  # the diagonal: numerator 0
        np.subtract(xs[sl, 2, None], coords[:, 2], out=d)
        d *= d
        d += r
        np.power(d, -1.5, out=k)
        k -= np.power(r, -1.5, out=d)  # K - K0
        np.subtract(vs[sl, None], vals, out=d)
        d *= d
        k *= d
        total += float(ms[sl] @ (k @ cw))
    return total


def gradslp_plane(zs, w, p, shift, dx, n, c):
    """Yield sum_j c (x - y_j)|x - y_j|^{-3} w_j on every box column, per height.

    In each x'-axis the box columns are x_i = x0 + i dx for i < n and the
    sources y_j = (x0 + (shift + p j) dx, 0), with square weights w of
    shape (m, m).  For each z in zs, one (n, n, 3) array is yielded for the
    targets (x_i, z).  With t = c |x - y|^{-3} the sum is taken in moment
    form: x'_a (t*w) - t*(y'_a w) for the x'-components and z (t*w) for the
    last, with x' and y' measured from the box centre to keep the
    cancellation small.

    The convolutions are circular on an N x N lattice, N even and at least
    2 D + 1 for D the largest |i - (shift + p j)|: target i sits at column
    i, source j at its box column shift + p j taken mod N, and kernel entry
    k holds t at the offset min(k, N - k) dx (0 at offsets no pair reads),
    so each pair reads the kernel at its own distance.  That kernel is real
    and even in both axes, so its real 2-D transform is real, and it is the
    type-I DCT of the (N/2 + 1)^2 quadrant, the only part of the kernel
    sampled.  The weights w, y'_0 w
    and y'_1 w are transformed once; per plane their three spectra take one
    product with the kernel's, are inverted along axis 0 and cut to the n
    target rows, then inverted along axis 1 and cut to n columns.  Only one
    plane's buffers are alive at a time.
    """
    import scipy.fft

    cols = shift + p * np.arange(len(w))
    size = scipy.fft.next_fast_len(2 * max(n - 1 - cols[0], cols[-1]) + 1, real=True)
    size += size % 2
    half = size // 2
    # columns and sources, measured from the box centre
    xs = (np.arange(n) - 0.5 * (n - 1)) * dx
    ys = (cols - 0.5 * (n - 1)) * dx
    lat = np.zeros((3, size, size))
    at = np.ix_(cols % size, cols % size)
    lat[0][at] = w
    lat[1][at] = ys[:, None] * w
    lat[2][at] = ys[None, :] * w
    moments = scipy.fft.rfft2(lat)
    del lat
    off = np.arange(half + 1) * dx
    r2_quad = off[:, None] ** 2 + off[None, :] ** 2
    # no pair reads an offset below the least |i - (shift + p j)|: those
    # entries are left 0, so the roundoff of the transforms scales with the
    # largest entry read, as when the kernel was sampled on the read offsets
    gap = np.maximum(np.maximum(cols - (n - 1), -cols), 0).min()
    r2_quad[:gap] = r2_quad[:, :gap] = np.inf
    r2 = np.empty_like(r2_quad)
    t = np.empty_like(r2_quad)
    # the kernel's spectrum: row a holds the DCT's row min(a, N - a)
    spec = np.empty((size, half + 1))
    prod = np.empty_like(moments)
    for z in zs:
        # t = c / rho2^{3/2}
        np.add(r2_quad, z * z, out=r2)
        np.sqrt(r2, out=t)
        t *= r2
        np.divide(c, t, out=t)
        spec[: half + 1] = scipy.fft.dctn(t, type=1)
        spec[half + 1:] = spec[half - 1: 0: -1]
        np.multiply(moments, spec, out=prod)
        rows = scipy.fft.ifft(prod, axis=1, overwrite_x=True)[:, :n]
        tw, ty0, ty1 = scipy.fft.irfft(rows, n=size, axis=2)[..., :n]
        out = np.empty((n, n, 3))
        np.subtract(xs[:, None] * tw, ty0, out=out[..., 0])
        np.subtract(xs[None, :] * tw, ty1, out=out[..., 1])
        np.multiply(tw, z, out=out[..., 2])
        yield out
