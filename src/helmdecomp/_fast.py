"""Pair sums as row-blocked numpy kernels and lattice FFT convolutions.

The dense kernels walk the targets in blocks of ``max(1, _BLOCK_ELEMS // m)``
rows for m sources, so a (rows, m) buffer holds about ``_BLOCK_ELEMS``
float64 values (512 KiB) and stays in cache; a block is one row when m
exceeds ``_BLOCK_ELEMS``.  Each kernel allocates its (rows, m) buffers
once and fills them in place, block after block, on the calling thread.
Results differ from one whole-array sum by rounding only (summation order,
and |x - y|^3 formed as rho2 * sqrt(rho2)).

Two kernels are discrete 2-D convolutions on a lattice, done by Hockney's
zero-padded FFT, exact up to transform roundoff: ``gradslp_series`` (grad
SLP over the z-planes of box columns by a Chebyshev series in the source
height of at most ``_SERIES_KMAX`` terms, truncated where the next
coefficient falls below ``_SERIES_TOL`` of the first, one term for sources
all on x_n = 0, in a moment form whose cancellation scales that roundoff
by up to the box half-width over the nearest source offset) and
``gagliardo_pairs`` (the Gagliardo pair sum, plus a direct K - K0
correction on the lifted bump rows).  ``gradslp_series`` runs its planes
on ``map_threads`` workers, no more than it has terms and as many as fit
in ``_SERIES_THREAD_BYTES`` of buffers, all allocated by the calling
thread but one inverse's output per plane, because arrays allocated on
worker threads come from glibc's per-thread arenas and raise the peak
resident memory: on the 64^3 curved box one thread took 1.2 to 1.7 times
as long as two, while threading the one-term planes of the 96^3 flat box
did not pay end to end and kept about 10 MB more resident.

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
from dataclasses import dataclass

import numpy as np

# numpy is the only backend; the flag stays for the benchmark's env stamp
_HAVE_NUMBA = False

# float64 elements per (rows, m) buffer
_BLOCK_ELEMS = 1 << 16
# the Chebyshev series in source height of gradslp_series: the most terms
# tried per plane, and the size, relative to the first, of the first
# coefficient left out
_SERIES_KMAX = 16
_SERIES_TOL = 1e-15
# the bytes of gradslp_series' per-worker buffers together: as many workers
# as fit in it, and one at least, so the peak does not grow with the CPU
# count (three workers at most on the 64^3 curved box)
_SERIES_THREAD_BYTES = 1 << 23


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
    """
    # rho2 = |x|^2 - 2 x.y + |y|^2 is one product of [-2x, |x|^2, 1] and
    # [y, 1, |y|^2]; sum_j t_j and sum_j t_j y_j are one product with [1, y]
    n, m = len(xs), len(nodes)
    a = np.column_stack([-2.0 * xs, np.sum(xs * xs, axis=1), np.ones(n)])
    b = np.vstack([nodes.T, np.ones(m), np.sum(nodes * nodes, axis=1)])
    one_y = np.column_stack([np.ones(m), nodes])
    cwg = c * wg
    out = np.empty((n, 3))
    for sl, (r, t) in _row_blocks(n, m):
        np.matmul(a[sl], b, out=r)
        # t = c wg / rho2^{3/2}
        np.sqrt(r, out=t)
        t *= r
        np.divide(cwg, t, out=t)
        s = t @ one_y
        np.multiply(xs[sl], s[:, :1], out=out[sl])
        out[sl] -= s[:, 1:]
    return out


def map_threads(fn, *iterables):
    """list(map(fn, *iterables)), one worker thread per item (none for one
    item).  Workers write into arrays the caller allocated: see the module.
    The workers of gradslp_series and of the volume potential make no BLAS
    call, whose own threads would compete with them.  A tensordot in place
    of the series' DCT-II along the height was not slower on the 64^3
    curved box (0.09 to 0.105 s against 0.106 to 0.113 s on 2 threads,
    with 1 or 2 BLAS threads)."""
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
    (spec, k0_mu, mu, mu_sum, lifted, xs, ms, cw).

    spec is the real spectrum of the flat kernel K0 on the (2 res)^2
    circular lattice, entry k at the offset min(k, 2 res - k) dx: K0 is
    real and even, so its transform is real and the imaginary part left by
    the transform is roundoff, dropped.  k0_mu = K0 * mu on the nodes, mu
    a read-only view of mu, and mu_sum = sum mu.  lifted are the indices S
    of the nodes off the plane (height != 0), xs and ms their coordinates
    and mu, and cw = mu on S and 2 mu off it.
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
    held = (spec, k0_mu, mu.view(), lifted, coords[lifted], mu[lifted], cw)
    for a in held:
        a.flags.writeable = False
    return *held[:3], float(mu.sum()), *held[3:]


def gagliardo_pairs(coords, vals, geometry):
    """sum_{i != j} (v_i - v_j)^2 |x_i - x_j|^{-3} mu_i mu_j on a lifted lattice.

    coords holds a row-major res^2 lattice in x', each node lifted to its
    height.  With the flat kernel K0 (K0(0) = 0) and u = v minus its mu-mean,
    which keeps the cancelling terms small, the flat sum is the FFT pair
    2 sum_i u_i mu_i (u_i (K0 * mu)_i - (K0 * u mu)_i).  K differs from K0
    only on pairs with a lifted end, so K - K0 is summed directly over the
    lifted rows S: twice S against all nodes, less S against S.  geometry
    is gagliardo_geometry(coords, mu), unread on one node (no pair); per
    call only u mu is transformed, once forward and once back.
    """
    m = len(coords)
    res = int(round(m**0.5))
    if res < 2:
        return 0.0
    spec, k0_mu, mu, mu_sum, lifted, xs, ms, cw = geometry
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


def even_fast_len(k):
    """The least even 2^a 3^b 5^c at or above k.  scipy's next_fast_len can
    give an odd size, and one more, such as 126 = 2 3^2 7, took 1.3 to 1.5
    times as long as 120 or 128 in the transforms of gradslp_series."""
    import scipy.fft

    return 2 * scipy.fft.next_fast_len(-(-k // 2), real=True)


def _height_coefficients(z, lo, hi, r2_quad, buf, tmp):
    """Chebyshev coefficients a_k, k < len(buf), in the source height h over
    [lo, hi] of |x - y|^{-3} at x_n = z on the kernel quadrant r2_quad: the
    kernel sampled at the len(buf) Chebyshev heights eta_l, then a DCT-II
    along eta, in place in buf where scipy.fft works in place (tmp is a
    work buffer of the same shape); one sample is its own coefficient."""
    import scipy.fft

    k = len(buf)
    eta = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(k) + 0.5) / k)
    np.add(r2_quad, ((z - eta) ** 2)[:, None, None], out=buf)
    np.sqrt(buf, out=tmp)
    buf *= tmp
    np.divide(1.0, buf, out=buf)
    if k > 1:
        buf = scipy.fft.dct(buf, type=2, axis=0, overwrite_x=True)
        buf /= k
        buf[0] *= 0.5
    return buf


@dataclass(frozen=True, eq=False)
class SeriesGeometry:
    """The read-only record of series_geometry, which describes its fields."""

    zs: np.ndarray
    h: np.ndarray
    cols: np.ndarray
    dx: float
    n: int
    size: int
    r2: np.ndarray
    orders: np.ndarray
    poly: np.ndarray
    lo: float
    hi: float


def series_geometry(zs, h, cols, dx, n):
    """The SeriesGeometry that gradslp_series reads: its inputs, for box
    columns i < n of spacing dx, the planes x_n = zs[i] and the sources of
    heights h on an (m, m) lattice whose node (j0, j1) sits on box columns
    (cols[j0], cols[j1]), and what depends on them alone: size N, r2,
    orders, poly, lo and hi.

    N is even and at least 2 D + 1, D the largest offset |i - cols_j|, so
    no pair wraps around on the N x N lattice.  r2 is |offset|^2 on the
    (N/2 + 1)^2 kernel quadrant of spacing dx, inf below the least offset
    any pair reads, so the kernel is 0 there and the roundoff of the
    transforms scales with the largest entry read.

    When every h is 0, every node is a source on x_n = 0, where the series
    is the kernel itself: one term on every plane, poly = [1] and
    lo = hi = 0, with nothing sampled.  Otherwise the nodes with h != 0 are
    the sources.  Over [lo, hi], their range of heights, the kernel at each
    height zs[i] is sampled at _SERIES_KMAX Chebyshev heights on the whole
    kernel quadrant, and orders[i] is the first k whose coefficient is
    below _SERIES_TOL of the first one everywhere on it, or 0 when none is
    (the series has not converged: a plane near the sources).  It is 0 too
    for a plane within [lo, hi], where the kernel has its pole among the
    heights (at offset 0): there the coefficients need not fall, and those
    of odd k vanish on the plane midway, as the kernel is even about it.
    poly holds T_k(hhat), k < max(orders), with hhat = h mapped from
    [lo, hi] onto [-1, 1], and 0 at the other nodes.
    """
    zs, h, cols = (np.array(a) for a in (zs, h, cols))
    size = even_fast_len(2 * max(n - 1 - cols[0], cols[-1]) + 1)
    off = np.arange(size // 2 + 1) * dx
    r2 = off[:, None] ** 2 + off[None, :] ** 2
    gap = np.maximum(np.maximum(cols - (n - 1), -cols), 0).min()
    r2[:gap] = r2[:, :gap] = np.inf
    on = h != 0.0
    if not on.any():
        orders, poly, lo, hi = np.ones(len(zs), dtype=int), np.ones((1,) + h.shape), 0.0, 0.0
    else:
        lo, hi = float(h[on].min()), float(h[on].max())
        buf, tmp = np.empty((2, _SERIES_KMAX) + r2.shape)
        orders = np.zeros(len(zs), dtype=int)
        for i, z in enumerate(zs):
            if lo <= z <= hi:
                continue
            a = np.abs(_height_coefficients(z, lo, hi, r2, buf, tmp)).max(axis=(1, 2))
            small = np.flatnonzero(a < _SERIES_TOL * a[0])
            orders[i] = small[0] if small.size else 0
        hhat = np.where(on, h - 0.5 * (hi + lo), 0.0)
        if hi > lo:
            hhat /= 0.5 * (hi - lo)
        poly = np.empty((orders.max(initial=0),) + h.shape)
        # T_0 = 1, T_1 = hhat, T_k = 2 hhat T_{k-1} - T_{k-2}
        for k in range(len(poly)):
            poly[k] = (1.0, hhat)[k] if k < 2 else 2.0 * hhat * poly[k - 1] - poly[k - 2]
        poly *= on
    for a in (zs, h, cols, r2, orders, poly):
        a.flags.writeable = False
    return SeriesGeometry(zs, h, cols, dx, n, size, r2, orders, poly, lo, hi)


def gradslp_series(geometry, w, c, out):
    """Add sum_j c (x - y_j)|x - y_j|^{-3} w_j over the sources y_j = (y'_j,
    h_j) to out[i], the (n, n, 3) plane at x_n = zs[i], for each plane whose
    series order is not 0; geometry is the SeriesGeometry of zs, h, the
    box columns and the sources' (see series_geometry), which names the
    sources, and w their weights on its (m, m) lattice.

    With t = |x - y|^{-3} = sum_k a_k(x' - y', z) T_k(hhat), each sum is a
    sum over k of lattice convolutions of a_k with the moments M_k of
    c w T_k(hhat), y'_0 c w T_k, y'_1 c w T_k and h c w T_k (left out when
    lo = hi = 0, as it is 0): x'_a (a_k * M_k) - (a_k * y'_a M_k) for the
    x'-components and z (a_k * M_k) - (a_k * h M_k) for the last, with x'
    and y' measured from the box centre to keep the cancellation small.
    The convolutions are circular on the N x N plane lattice: target i
    sits at column i, source j at column cols[j] mod N, and kernel entry k
    holds a_k at the offset min(k, N - k) dx.  That kernel is real and
    even, so its real 2-D transform is the type-I DCT of the quadrant.
    The moments are transformed once per call.  Per plane of order K the
    kernel is sampled at K Chebyshev heights (the interpolant of degree
    K - 1, whose error is within twice the coefficients left out), each a_k
    takes a type-I DCT and a product with the moments, and one inverse of
    the sums, cut to the n target rows and then to n columns, gives the plane.

    The planes run on worker threads, one per usable CPU, series term and
    _SERIES_THREAD_BYTES of their buffers, each taking every workers-th
    plane, as the orders fall with the height.  The calling thread
    allocates those buffers (see the module); a worker allocates only the
    output of its inverse real transforms, one per plane, which scipy.fft
    cannot write into a given array.  No worker calls BLAS.
    """
    import scipy.fft

    g = geometry
    zs, orders, poly, lo, hi, n, size = g.zs, g.orders, g.poly, g.lo, g.hi, g.n, g.size
    todo = np.flatnonzero(orders)
    if not todo.size:
        return
    half = size // 2
    xs = (np.arange(n) - 0.5 * (n - 1)) * g.dx
    ys = (g.cols - 0.5 * (n - 1)) * g.dx
    lat = np.zeros((4 if lo or hi else 3, size, size))
    at = np.ix_(g.cols % size, g.cols % size)
    moments = []
    for pk in poly:
        wk = c * w * pk
        for a, f in zip(lat, (1.0, ys[:, None], ys[None, :], g.h)):
            a[at] = f * wk
        moments.append(scipy.fft.rfft2(lat))
    nm, kmax = len(lat), len(poly)
    del lat
    # per worker: kernel samples and their work buffer, a kernel spectrum,
    # the sums and a product, a component, and the inverse's output
    per = 8 * (2 * kmax * (half + 1) ** 2 + (2 + 4 * nm) * size * (half + 1) + n * n
               + nm * n * size)
    workers = max(1, min(len(os.sched_getaffinity(0)), len(todo), kmax,
                         _SERIES_THREAD_BYTES // per))
    # a kernel spectrum is real but held as complex: products of two complex
    # arrays ran faster than those of a complex and a real one (README)
    bufs = [(np.empty((kmax, half + 1, half + 1)), np.empty((kmax, half + 1, half + 1)),
             np.empty((size, half + 1), dtype=complex),
             np.empty((nm, size, half + 1), dtype=complex),
             np.empty((nm, size, half + 1), dtype=complex) if kmax > 1 else None,
             np.empty((n, n)))
            for _ in range(workers)]

    def run(planes, buf, tmp, spec, acc, prod, t):
        for i in planes:
            z, k = zs[i], orders[i]
            a = _height_coefficients(z, lo, hi, g.r2, buf[:k], tmp[:k])
            a = scipy.fft.dctn(a, type=1, axes=(1, 2), overwrite_x=True)
            for j in range(k):
                # the spectrum of the real, even a_j: row r holds row min(r, N - r)
                spec[: half + 1] = a[j]
                spec[half + 1:] = spec[half - 1: 0: -1]
                if j:
                    acc += np.multiply(moments[j], spec, out=prod)
                else:
                    np.multiply(moments[0], spec, out=acc)
            rows = scipy.fft.ifft(acc, axis=1, overwrite_x=True)[:, :n]
            tw, ty0, ty1, *th = scipy.fft.irfft(rows, n=size, axis=2)[..., :n]
            for comp, (x, ty) in enumerate(((xs[:, None], ty0), (xs[None, :], ty1),
                                            (z, th[0] if th else 0.0))):
                np.multiply(tw, x, out=t)
                t -= ty
                out[i, ..., comp] += t

    map_threads(run, [todo[k::workers] for k in range(workers)], *zip(*bufs))
