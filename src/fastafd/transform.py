"""Radix-2 transforms on power-of-two complex buffers.

Three operations share one iterative butterfly kernel with a bit-reversal
preamble: the unnormalized forward DFT, the 1/N inverse, and the
radius-weighted inverse

    out[j] = sqrt(1 - r^2) / (N (1 - r^N)) * sum_l r^l c[l] e^{+i 2 pi j l / N}

that evaluates normalized reproducing-kernel inner products on a circle of
radius r in one pass. The kernel's tables run in the inverse direction
only; the forward DFT is computed by conjugation, as conj(kernel(conj(x))),
which changes no value since negation commutes with rounding. Feeding
f(l) = r^l c_l, times the row's scale, to the butterflies is exactly the
weighted sum; the weights are built by a running product and cached per
grid, each row's once in natural order, so repeated field evaluations pay
only for the butterflies and the bounds below. Weights that underflow
below the smallest normal double are stored as exact zeros, which keeps
every pass off the slow subnormal path. At r = 0 the row is the constant
c_0 / N and is written without a transform.

The kernel is cache-aware (Bailey, "FFTs in external or hierarchical
memory", 1990). The first four radix-2 stages, whose runs are 1 to 8
entries long, are replaced by one dense 16-point DFT leaf applied as a
matrix product (Van Loan, 1992); the remaining radix-2 stages run on one
row at a time, so a row stays in cache through all of its stages instead
of the whole field streaming through memory once per stage. The leaf size
is a fixed constant, not an option. :func:`weighted_inverse_grid` computes
every full row in place in the (M, N) result; :class:`RowStream` reads each
row as the short polynomial it is, for the selection step.

Rows are input-pruned (Skinner, "Pruning the decimation in-time FFT
algorithm", 1976). A row's input is a prefix of Q nonzero entries; for an
S-point transform, after bit reversal they sit every P = S / Q positions,
so the first log2(P) butterfly levels only copy. The row skips those
levels and runs the next four as the leaf with a stride-P pre-twiddle
folded into its matrix, one (Q/16, 16) x (16, 16 P) product, then only the
stages from span 32 P on (:func:`_sampler`). One builder, :func:`_leaf`,
makes every leaf: at P = 1 it is the dense leaf, of min(16, N) points, and
the transform is the full one. The weighted prefix of a pruned row has its
subnormal parts set to zero, the rule the weights already follow: a tiny
weight times a small coefficient is subnormal, and the pre-twiddle would
copy it P-fold. The full rows of :func:`weighted_inverse_grid` take S = N
and the whole nonzero weight prefix, the row's full width.

The cut (Aurentz and Trefethen, "Chopping a Chebyshev series", ACM TOMS
43, 2017). A field's rows are read only up to a degree that the signal's
energy fixes, independent of N. With the unnormalized DFT Parseval gives
||C||_2 = N sqrt(E), E the energy of the signal whose DFT C is, so by
Cauchy-Schwarz the terms l >= Q of a row move any |f| on it by at most
N sqrt(E) ||w_{>=Q}||_2, whether or not c_l for l >= Q is known. Each row
is cut at the first power of two Q >= L, L = min(_SAMPLES, N) below, whose
tail lies below _CUT times a lower bound on max |f| over the field (or at
its full width, where that is less): the
largest head sample of any row less that row's tail from L on, or the
exact r = 0 row. When no such Q lies below the row's full width (the bound
is not positive, as for z^{N/2-1}, whose field is tiny against its
energy), the row reads its full width. A field's `width` is its widest
cut, at least L.

The bound (discrete norms of polynomials: Ehlich and Zeller, 1964;
Rakhmanov and Shekhtman, J. Approx. Theory 139, 2006). Let
p(theta) = sum_l y_l e^{i l theta} be sampled at the S angles 2 pi u / S,
and B, D1 and D2 the sums of |y_l|, l |y_l| and l^2 |y_l| over its terms.
The second derivative of |p|^2 is at most K = 2 (D1^2 + B D2) in size.
Between two neighbouring samples, h = 2 pi / S apart, |p|^2 exceeds the
larger of the two by at most K h^2 / 8; at the maximum of |p|^2 the first
derivative vanishes and the nearest sample lies within h / 2, so the
maximum exceeds the largest sample by at most K h^2 / 8 as well. Either
way, with P that sample,

    max |p|^2 <= P + (pi / S)^2 (D1^2 + B D2).

When terms the samples leave out add at most T to |p|, :func:`_bound`
states it as

    U = min((B' (1 + _MARGIN))^2,
            (sqrt(P + (pi / S)^2 (D1^2 + B D2)) + T + 2 S tiny)^2 (1 + _MARGIN)
            + _MARGIN B'^2) + tiny,    B' = B + T,

whose first term is the triangle inequality |p| <= B', so no bound is
looser than that one. The one margin covers the roundoff of the
butterflies, which can lift a computed |f| slightly above the exact value.
tiny, the smallest normal double, covers what a relative margin cannot:
squares below it round to a fixed absolute step, and a pruned row sets the
subnormal parts of y to zero, which moves a sample of S terms by less than
2 S tiny. Without these terms a row of subnormal |f|^2, such as z^{N/2-1}
on a large radius, can exceed its bound by a rounding step.

The rows' bounds. Before it reads any row, the selection reads every
row's bound on |f|^2 and skips the rows that cannot reach its running
maximum. Read in decreasing bound, a step normally samples only the row
that holds the maximum. A row's bound is U of its head, the terms l < L,
sampled exactly at S = L angles by one product of y_l = w_l c_l with an
L-point inverse DFT matrix, P the largest sample and B, D1 and D2 the
head's. The rest adds at most T = sum_{L<=l<W} |y_l| + N sqrt(E)
||w_{>=W}||_2, W the field's width: the triangle inequality up to it, and
the Parseval tail past it, which no row reads. So T bounds both the cut
row and the full-width one. The sums come from |y| and from |c| times the
same per-grid weights that the row transforms read (:func:`_grid_tables`).
An r = 0 row's bound is its exact value |c_0 / N|^2.

The sampler and the arcs (output pruning: Sorensen and Burrus, IEEE Trans.
Signal Process. 41, 1993). A cut row p(theta) = sum_{l<Q} y_l e^{i l theta}
is sampled at S = min(N, _OVERSAMPLE Q) angles 2 pi u / S by the pruned
S-point transform of its prefix; each sample is a lattice cell. Arc u holds
the N / S cells from sample u up to sample u + 1, and no cell of it exceeds
U with P the larger of the two samples, B, D1 and D2 the whole prefix's
and T = 0. Only the cells of arcs whose bound reaches (1 - band) times the
running maximum are evaluated exactly, as sums over the prefix with cached
root tables (:func:`_refine_tables`); the selection's tie band then decides
as before. When S = N an arc is its one sample and the samples are the
row. A row whose samples are all 0 is itself 0, since its degree lies
below S; while nothing larger has been read, its one candidate is cell 0.
On the standard grid a cut row has Q = 256 at every N >= 256, so at
N = 65536 a field reads one 4096-point sample and a few dozen exact cells
instead of 65536 outputs.

The leaf products are issued as tiles of at most 2048 outputs (K = 16, so
M N K <= 32768), which OpenBLAS computes on the calling thread. One product
per row would be split over a second BLAS thread; that saves little on an
idle machine, but OpenBLAS's worker spins between calls, so when another
process holds the second core the transform runs at about half speed.
With OpenBLAS a tile gives each entry the same bits as the whole product.
The bound's sample products obey the same rule: tiles of 8 rows,
8 x 64 x 64 = 32768. The exact cells are one small product per arc, so a
cell's bits do not depend on how many arcs are refined with it.

All sizes must be exact powers of two. Twiddle tables, leaf matrices,
bit-reversal index vectors, the per-grid weight tables and the arc tables
are cached and published read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "bit_reverse_permute",
    "dft_forward",
    "dft_inverse",
    "weighted_inverse",
    "weighted_inverse_grid",
    "RowStream",
]

_LEAF = 16          # points per dense leaf transform; also the least pruned stride
_TILE = 2048        # outputs per BLAS product of the leaf: M N K <= 32768
_TILE_WIDTH = 64    # columns per BLAS product of a pruned leaf
_SAMPLES = 64       # head terms sampled per row by the bound, at most N
_SAMPLE_ROWS = _TILE * _LEAF // _SAMPLES ** 2  # rows per sample product
_TINY = np.finfo(np.float64).tiny
# Relative slack of the sampled-polynomial bound, and its multiple of
# B^2 (module docstring); one value serves the rows and the arcs. On every
# step of 10-term decompositions of f1, f2 and random signals at
# N = 8 ... 65536, on 9 and 33 radii, a computed max |f|^2 exceeded a row's
# bound without its margins by at most 1.3e-15 relative (the triangle bound
# alone: 3.9e-16 in |f|), and on every row of random, real-coefficient,
# f2-like and z^{N/2-1} inputs at N = 8192 ... 65536 on both grids no
# computed cell exceeded its arc's bound without them. Radix-2 roundoff is
# bounded by a small multiple of log2(N) eps, about 4e-15 at N = 2^16, so
# this margin leaves about six orders of magnitude to spare.
_MARGIN = 1e-9
# The cut: each row reads the prefix whose Parseval tail lies below _CUT
# times a lower bound on max |f|. At 2^-60 it lies far below TIE_BAND and
# below the transforms' own roundoff; in 216 steps of 10-term f1, f2 and
# random decompositions at N = 256 ... 65536 on 0:0.1:0.8 and 0:0.05:0.95
# the cut field stayed within 2.5e-16 of max |f| of the full one.
_CUT = 2.0 ** -60
# Samples per cut row: S = min(N, _OVERSAMPLE Q), so a row of Q = 256 is
# sampled at 4096 points and its arcs hold N / 4096 cells.
_OVERSAMPLE = 16


class _Grid(NamedTuple):
    """Per-grid tables, all read-only (:func:`_grid_tables`).

    `rows` holds, per radius, the row's weights for l < Q in natural order,
    a view of the row's line of `weights`, Q its full width, and None at
    r = 0; `nonzero` lists the indices of the other radii and `full` their
    Q. Line k of `weights` holds the weights of radius nonzero[k], zero-padded
    to the longest prefix (at least L = min(_SAMPLES, N) columns) and to a
    multiple of _SAMPLE_ROWS lines. `degrees` holds 1, l and l^2 over every
    column, so one product with the |y_l| of a prefix gives its B, D1 and D2
    (module docstring). `samples` is the L-point inverse DFT matrix,
    entry [l, u] = e^{+i 2 pi l u / L}. Entry [k, i] of `tails` is the
    2-norm of line k's weights l >= 2^i, i = 0 ... log2(N).
    """

    rows: tuple
    nonzero: np.ndarray
    full: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    samples: np.ndarray
    tails: np.ndarray


def _checked_size(n):
    if n < 2 or n & (n - 1):
        raise ValueError("length must be a power of two >= 2, got %d" % n)
    return n


def _checked_length(x):
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a 1-d buffer, got shape %r" % (x.shape,))
    return x, _checked_size(x.shape[0])


def _bit_reversal_indices(n):
    # T_{2m}[0:m] = 2 T_m, T_{2m}[m:2m] = 2 T_m + 1, starting from T_1 = [0].
    rev = np.zeros(1, dtype=np.intp)
    while rev.shape[0] < n:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@lru_cache(maxsize=32)
def _plan(n):
    """The n-point kernel's bit reversal and inverse stage twiddles.

    Stage twiddles W_N^l = e^{+i 2 pi l / N}, one contiguous slice per stage
    from span 2 min(_LEAF, n) on, the stages after the dense leaf.
    """
    rev = _bit_reversal_indices(n)
    w = np.exp(2j * np.pi * np.arange(n // 2) / n)
    stages = []
    span = 2 * min(_LEAF, n)
    while span <= n:
        stages.append(np.ascontiguousarray(w[:: n // span]))
        span *= 2
    _read_only(rev, *stages)
    return rev, tuple(stages)


@lru_cache(maxsize=32)
def _leaf(k, p):
    """The k-point inverse leaf for input nonzero at every p-th bit-reversed entry.

    With u_b = x[b p], the log2(k) levels after the log2(p) copy-only ones give
    out[(k g + j) p + m] = sum_b u_{k g + b} W_k^{j rev(b)} W_{k p}^{m rev(b)},
    W_L = e^{+i 2 pi / L}, rev the log2(k)-bit reversal. Entry [b, (j, m)]
    of the returned (k, k p) matrix is that product of twiddles, so the
    levels are one product u.reshape(-1, k) @ leaf written in natural order.
    At p = 1 it is the dense leaf: a run of k bit-reversed entries times it
    is their k-point inverse DFT, the result of the first log2(k) stages.
    """
    rev = _bit_reversal_indices(k)
    dense = np.exp(2j * np.pi * (np.outer(rev, np.arange(k)) % k) / k)
    twiddle = np.exp(2j * np.pi * (np.outer(rev, np.arange(p)) % (k * p)) / (k * p))
    leaf = (dense[:, :, None] * twiddle[:, None, :]).reshape(k, k * p)
    _read_only(leaf)
    return leaf


def _transform(x, out, leaf, stages, scratch):
    """Transform the bit-reversed row `x` into the row `out` (S,).

    `x` is (Q,), the nonzero entries of a row pruned to stride P = S / Q,
    and `leaf` is :func:`_leaf` of (K, P), K = min(_LEAF, Q); at P = 1 the
    transform is the full one. The leaf is one stacked matmul of fixed-shape
    tiles, none large enough for BLAS to use a second thread (see the module
    docstring). The `stages` then run in place on `out`, which must be
    C-contiguous: the per-stage reshape below must alias it, and numpy
    returns copies for reshapes of non-C-ordered arrays, which would
    silently discard every update. `scratch` is a flat buffer for the
    stages, which use its first S / 2 entries; it may share memory with
    `x`, which the leaf has consumed.
    """
    if not out.flags.c_contiguous or not x.flags.c_contiguous:
        raise ValueError("transform buffers must be C-contiguous")
    # Tile (i, t) is rows [i m, i m + m) of the (Q / k, k) input times
    # columns [t w, t w + w) of the leaf; m divides Q / k.
    k, width = leaf.shape
    w = min(width, _TILE_WIDTH)
    m = min(x.shape[0] // k, _TILE // w)
    np.matmul(x.reshape(-1, 1, m, k), leaf.reshape(k, -1, w).transpose(1, 0, 2),
              out=out.reshape(-1, m, width // w, w).transpose(0, 2, 1, 3))
    scratch = scratch[: out.size // 2]
    for tw in stages:
        half = tw.shape[0]
        spans = out.reshape(-1, 2 * half)
        lo, hi = spans[:, :half], spans[:, half:]
        t = scratch.reshape(-1, half)
        np.multiply(hi, tw, out=t)
        np.subtract(lo, t, out=hi)
        lo += t
    return out


def bit_reverse_permute(x):
    """Return x reordered so that output[j] = x[bitrev(j)].

    An involution: applying it twice restores the input.
    """
    x, n = _checked_length(x)
    return x[_plan(n)[0]]


def _dft(x, inverse):
    """Unnormalized forward DFT, or the 1/N-scaled inverse if `inverse`.

    The kernel runs in the inverse direction only; the forward DFT is the
    conjugate of the inverse kernel applied to conj(x).
    """
    x, n = _checked_length(x)
    gather, leaf, stages = _sampler(n, n)
    y = np.ascontiguousarray(x[gather], dtype=np.complex128)
    if not inverse:
        np.conjugate(y, out=y)
    out = _transform(y, np.empty(n, dtype=np.complex128), leaf, stages, y)
    if inverse:
        out /= n
    else:
        np.conjugate(out, out=out)
    return out


def dft_forward(x):
    """Unnormalized forward DFT, out[l] = sum_m x[m] e^{-i 2 pi m l / N}.

    Iterative decimation-in-time, computed as the conjugate of the inverse
    kernel on conj(x): bit-reversal preamble, a dense 16-point leaf, then the
    remaining radix-2 butterfly stages.

    Parameters
    ----------
    x : array_like
        Complex samples; length must be a power of two.

    Returns
    -------
    ndarray of complex
    """
    return _dft(x, inverse=False)


def dft_inverse(c):
    """Inverse of dft_forward: out[m] = (1/N) sum_l c[l] e^{+i 2 pi m l / N}."""
    return _dft(c, inverse=True)


@lru_cache(maxsize=32)
def _grid_tables(radii, n):
    """Per-grid tables of the row transforms and the row bounds: a :class:`_Grid`.

    radii is a tuple of floats (hashable for the cache). A row's weights are
    the running products 1, r, r^2, ... times its output scale. Weights
    below the smallest normal double are set to 0: they add nothing at
    double precision, and subnormal operands would send every butterfly
    over them down the slow subnormal path. A row's full width Q is the
    smallest power of two that is at least the leaf size and covers the last
    nonzero weight, or N when N / Q would fall below the leaf size. Each
    row's weights are held once, as a line of `weights`, and the row views
    the first Q of them.
    """
    head = min(_SAMPLES, n)
    prefixes = []
    for s, r in enumerate(radii):
        if r == 0.0:
            continue
        powers = np.full(n, r)
        powers[0] = 1.0
        np.cumprod(powers, out=powers)
        # 1 - r^N underflows to 1 for moderate N; harmless, it is the exact limit.
        powers *= np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n))
        # The weights fall monotonically, so the normal ones are a prefix;
        # only it is kept, the full row is freed here.
        prefix = powers[:np.count_nonzero(powers >= _TINY)].copy()
        q = _LEAF
        while q < prefix.size:
            q *= 2
        prefixes.append((s, q if n // q >= _LEAF else n, prefix))
    m = len(prefixes)
    nonzero = np.array([s for s, _, _ in prefixes], dtype=np.intp)
    full = np.array([q for _, q, _ in prefixes], dtype=np.intp)
    weights = np.zeros((-(-m // _SAMPLE_ROWS) * _SAMPLE_ROWS, max([head] + full.tolist())))
    for k, (_, _, prefix) in enumerate(prefixes):
        weights[k, :prefix.size] = prefix
    degrees = np.arange(weights.shape[1], dtype=np.float64) ** np.arange(3)[:, None]
    samples = np.exp(2j * np.pi * (np.outer(np.arange(head), np.arange(head)) % head)
                     / head)
    # suffix[k, l] = ||w_{k, >= l}||_2, then read at l = 2^i; zero past the line.
    suffix = np.sqrt(np.cumsum(weights[:m, ::-1] ** 2, axis=1)[:, ::-1])
    points = 2 ** np.arange(n.bit_length())
    tails = np.zeros((m, points.size))
    inside = points < weights.shape[1]
    tails[:, inside] = suffix[:, points[inside]]
    # Before the views below: a view taken earlier would stay writable.
    _read_only(nonzero, full, weights, degrees, samples, tails)
    rows = [None] * len(radii)
    for k, (s, q, _) in enumerate(prefixes):
        rows[s] = weights[k, :q]
    return _Grid(tuple(rows), nonzero, full, weights, degrees, samples, tails)


@lru_cache(maxsize=64)
def _sampler(q, size):
    """Tables of the size-point inverse transform of a q-entry prefix.

    Returns (gather, leaf, stages): the bit reversal of q entries, the
    stride-P :func:`_leaf`, P = size / q, and the size-point plan's stages
    from span 2 min(_LEAF, q) P on. A pruned prefix (P > 1) holds at least
    _LEAF entries; P = 1 is the full transform.
    """
    p = size // q
    return _plan(q)[0], _leaf(min(_LEAF, q), p), _plan(size)[1][p.bit_length() - 1:]


@lru_cache(maxsize=64)
def _refine_tables(size, n, q):
    """Tables for the exact cells between the samples of a cut row.

    Returns (roots, lags, table): roots[k] = e^{+i 2 pi k / size}, lags the
    degrees 0 ... q - 1, and table[l, t - 1] = e^{+i 2 pi l t / N} for the
    offsets t = 1 ... N / size - 1 of a lattice cell from its arc's first
    sample. Cell u N / size + t of the row sum_l y_l e^{i l theta} is then
    sum_l y_l roots[l u mod size] table[l, t - 1].
    """
    lags = np.arange(q)
    roots = np.exp(2j * np.pi * np.arange(size) / size)
    offsets = np.arange(1, n // size)
    table = np.exp(2j * np.pi * (np.outer(lags, offsets) % n) / n)
    _read_only(lags, roots, table)
    return roots, lags, table


def _checked_radius(r):
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must satisfy 0 <= r < 1, got %g" % r)
    return r


def _bound(peak, size, b, d1, d2, tail):
    """The sampled-polynomial bound U on |p|^2 (module docstring).

    `peak` is the sample bound P, of `size` samples; b, d1 and d2 are the
    sums of |y_l|, l |y_l| and l^2 |y_l| over the sampled terms and `tail`
    bounds the rest. Arrays broadcast, one bound per entry.
    """
    total = b + tail
    curvature = (np.pi / size) ** 2 * (d1 * d1 + b * d2)
    sampled = np.sqrt(peak + curvature) + tail + 2 * size * _TINY
    return np.minimum((total * (1.0 + _MARGIN)) ** 2,
                      sampled ** 2 * (1.0 + _MARGIN) + _MARGIN * total ** 2) + _TINY


def weighted_inverse(c, r):
    """Weighted inverse transform at a single radius.

    out[j] = sqrt(1-r^2)/(N (1-r^N)) * sum_l r^l c[l] e^{+i 2 pi j l / N}.

    Implemented as inverse-direction butterflies over the running-product
    weights r^l c_l; identical, entry for entry, to the corresponding row of
    :func:`weighted_inverse_grid`.

    Parameters
    ----------
    c : array_like
        Forward-DFT coefficients, power-of-two length.
    r : float
        Circle radius, 0 <= r < 1.
    """
    return weighted_inverse_grid(c, (r,))[0]


class RowStream:
    """Weighted inverse rows of one grid, each read as a short polynomial.

    `RowStream(radii, n).rows(c, energy)` returns the field of the
    coefficients c, where `energy` is at least (1/N^2) sum |C_l|^2 of the
    signal whose DFT c carries, C_l its coefficients: its measured energy,
    by Parseval. Coefficients past a band, which c may leave out as zeros,
    are bounded through it (the module docstring). The field's `bounds`
    list every row's bound on |f|^2 as floats, in row order; `cuts` holds
    each row's cut Q_s, the prefix of c it reads, and `width` the largest,
    at least L, so c_l for l >= width changes nothing the field computes. Its
    `cells(s, peak, band)` samples row `s` and returns the lattice cells that
    can lie within the relative `band` of max(peak, the row's maximum), as
    ascending angle indices and their values, the row's largest sample among
    them. Which rows are read, and in what order, is the caller's choice.

    Every row's samples are written into one (N,) buffer, its weighted
    prefix into one more and its bit-reversed transform input and stage
    scratch into a third, so a caller that reduces each row's cells as it
    reads them, such as the selection step, runs field after field without
    holding the (M, N) field or allocating any of these again. The weights
    and the bound's tables are the grid's one cached :func:`_grid_tables`,
    shared by every stream of the same radii and size.
    """

    def __init__(self, radii, n):
        n = _checked_size(int(n))
        radii = tuple(_checked_radius(r) for r in radii)
        if not radii:
            raise ValueError("need at least one radius")
        self._grid = _grid_tables(radii, n)
        width = self._grid.weights.shape[1]
        self._buffer = np.empty(n, dtype=np.complex128)
        self._prefix = np.empty(width, dtype=np.complex128)
        self._work = np.empty(max(n // 2, width), dtype=np.complex128)

    def rows(self, c, energy):
        """The field of the coefficients c, rows on demand (see the class)."""
        c, n = _checked_length(c)
        if n != self._buffer.shape[0]:
            raise ValueError("coefficient length %d does not match the stream's %d"
                             % (n, self._buffer.shape[0]))
        return _Field(self, np.asarray(c, dtype=np.complex128), float(energy))

    def _row_bounds(self, c, energy):
        """Every row's bound U on |f|^2 and cut Q (module docstring), row order."""
        n = c.shape[0]
        head = min(_SAMPLES, n)
        grid = self._grid
        weights, tails = grid.weights, grid.tails
        m = grid.nonzero.shape[0]
        norm = n * math.sqrt(energy)  # Parseval: at least ||C||_2
        y = weights[:, :head] * c[:head]
        samples = np.matmul(y.reshape(-1, _SAMPLE_ROWS, head), grid.samples)
        largest = np.abs(samples).max(axis=2).reshape(-1)[:m]
        value = c[0] / n
        # r = 0 rows: the exact |f|^2, squared as the selection squares it
        bounds = np.full(len(grid.rows), value.real ** 2 + value.imag ** 2)
        cuts = np.ones(len(grid.rows), dtype=np.intp)
        # L: each head sample is a lattice value of its row, less its tail.
        omitted = tails[:, head.bit_length() - 1:] * norm
        low = (largest - omitted[:, 0]).max(initial=0.0)
        if m < len(grid.rows):
            low = max(low, abs(value))
        # The first power of two whose tail fits; past the last nonzero
        # weight every tail is 0, so each row has one.
        cuts[grid.nonzero] = np.minimum(head << (omitted <= _CUT * low).argmax(axis=1),
                                        grid.full)
        q = max(int(cuts.max()), head)
        b_head, d1, d2 = grid.degrees[:, :head] @ np.abs(y[:m]).T
        tail = (weights[:m, head:q] @ np.abs(c[head:q])
                + norm * tails[:, q.bit_length() - 1])
        bounds[grid.nonzero] = _bound(largest ** 2, head, b_head, d1, d2, tail)
        return bounds, cuts, q

    def _sample(self, c, s, q, size, out):
        """Write the size-point samples of row `s` cut at `q` into `out`.

        `out` is a C-contiguous (size,) array. Returns it and the weighted
        prefix y, which stays valid until the next call. With q < size the
        subnormal parts of y are set to zero first (module docstring).
        """
        y = np.multiply(self._grid.rows[s][:q], c[:q], out=self._prefix[:q])
        if q < size:
            parts = y.view(np.float64)
            parts[np.abs(parts) < _TINY] = 0.0
        gather, leaf, stages = _sampler(q, size)
        # mode="clip" lets take write into the work buffer directly; the
        # default mode writes through a copy so that a bad index leaves it
        # untouched.
        x = np.take(y, gather, out=self._work[:q], mode="clip")
        return _transform(x, out, leaf, stages, self._work), y

    def _arcs(self, c, s, q):
        """Row `s` cut at `q`: its samples, their |f|^2, and each arc's bound.

        Arc u holds the lattice cells from sample u up to sample u + 1
        (cyclically); its bound covers the |f|^2 of every one of them
        (module docstring). When S = N an arc is its one sample.
        """
        n = c.shape[0]
        size = min(n, _OVERSAMPLE * q)
        samples, y = self._sample(c, s, q, size, self._buffer[:size])
        power = samples.real ** 2
        power += samples.imag ** 2
        if size == n:
            return samples, power, power, y
        total, d1, d2 = self._grid.degrees[:, :q] @ np.abs(y)
        reach = _bound(np.maximum(power, np.roll(power, -1)), size, total, d1, d2, 0.0)
        return samples, power, reach, y

    def _cells(self, c, s, q, peak, band):
        """The cells of row `s`, cut at `q`, that can reach the band: see the class."""
        n = c.shape[0]
        if self._grid.rows[s] is None:
            # Every cell of an r = 0 row holds c_0 / N: cell 0 is its pick.
            return _FIRST, np.full(1, c[0] / n)
        samples, power, reach, y = self._arcs(c, s, q)
        u = int(power.argmax())
        level = (1.0 - band) * max(peak, power[u])
        # level <= 0: every sample is 0, so the row, of degree below S, is 0.
        hit = reach >= level if level > 0.0 else np.zeros(power.shape, dtype=bool)
        hit[u] = True  # the largest sample, NaN included
        arcs = np.flatnonzero(hit)
        spacing = n // samples.shape[0]
        if spacing == 1:  # the samples are the row
            return arcs, samples[arcs]
        cells = np.empty((arcs.size, 1, spacing), dtype=np.complex128)
        cells[:, 0, 0] = samples[arcs]
        roots, lags, table = _refine_tables(samples.shape[0], n, q)
        z = y * roots[np.multiply.outer(arcs, lags) % samples.shape[0]]
        # One product per arc, so a cell's bits do not depend on how many
        # arcs are refined with it.
        np.matmul(z[:, None, :], table, out=cells[:, :, 1:])
        j = (arcs * spacing)[:, None] + np.arange(spacing)
        return j.reshape(-1), cells.reshape(-1)


_FIRST = np.zeros(1, dtype=np.intp)
_read_only(_FIRST)


class _Field:
    """The field of one coefficient vector c: see :meth:`RowStream.rows`."""

    def __init__(self, stream, c, energy):
        self._stream, self._c = stream, c
        bounds, cuts, self.width = stream._row_bounds(c, energy)
        self.bounds, self.cuts = bounds.tolist(), cuts.tolist()

    def cells(self, s, peak, band):
        return self._stream._cells(self._c, s, self.cuts[s], peak, band)


def weighted_inverse_grid(c, radii):
    """Weighted inverse rows for every radius in `radii`, as an (M, N) array.

    Each row transforms its full nonzero weight prefix of length Q (see
    :func:`_grid_tables`); a pruned row's weighted prefix has its subnormal
    parts set to zero first. At r = 0 only the l = 0 term survives, and the
    row is the constant c_0 / N. Each row is identical to a single-radius
    call. This is the full-width reference: no row is cut.
    """
    c, n = _checked_length(c)
    c = np.asarray(c, dtype=np.complex128)
    stream = RowStream(radii, n)
    out = np.empty((len(stream._grid.rows), n), dtype=np.complex128)
    for s, weights in enumerate(stream._grid.rows):
        if weights is None:
            out[s] = c[0] / n
        else:
            stream._sample(c, s, weights.shape[0], n, out[s])
    return out
