"""Radix-2 transforms on power-of-two complex buffers.

Three operations share one iterative butterfly kernel with a bit-reversal
preamble: the unnormalized forward DFT, the 1/N inverse, and the
radius-weighted inverse

    out[j] = sqrt(1 - r^2) / (N (1 - r^N)) * sum_l r^l c[l] e^{+i 2 pi j l / N}

that evaluates normalized reproducing-kernel inner products on a circle of
radius r in one pass. Feeding f(l) = r^l c_l, times the row's scale, to
inverse-direction butterflies is exactly the weighted sum; the weights are
built by a running product and cached per grid, each row's once in natural
order, so repeated field evaluations pay only for the butterflies and the
bounds below. Weights that underflow below the smallest normal double are
stored as exact zeros, which keeps every pass off the slow subnormal path.
At r = 0 the row is the constant c_0 / N and is written without a
transform.

The kernel is cache-aware (Bailey, "FFTs in external or hierarchical
memory", 1990). The first four radix-2 stages, whose runs are 1 to 8
entries long, are replaced by one dense 16-point DFT leaf applied as a
matrix product (Van Loan, 1992); the remaining radix-2 stages run on one
radius row at a time (1 MiB at N = 2^16), so a row stays in cache through
all of its stages instead of the whole field streaming through memory once
per stage. The leaf size is a fixed constant, not an option. One method of
:class:`RowStream` computes a row on demand, as a 1-d array in one buffer
that it reuses across fields, so a caller that reduces the rows as it reads
them (the selection step) never holds more than one row;
:func:`weighted_inverse_grid` computes every row in place in the (M, N)
result.

Before it reads any row, such a caller can read every row's bound on
|f|^2 and skip the rows that cannot reach its running maximum. Read in
decreasing bound, as the selection step reads them, a step normally
transforms only the row that holds the maximum. A row is the polynomial
p(theta) = sum_{l<Q} y_l e^{i l theta}, y_l = w_l c_l. Its head H, the
terms l < L with L = min(_SAMPLES, N), is sampled exactly at the L angles
2 pi u / L by one product of w_l c_l with an L-point inverse DFT matrix.
At the maximum of |H|^2 the first derivative vanishes and the second is
at most 2 (D2 B_H + D1^2) in size, where B_H, D1 and D2 are sum |y_l|,
sum l |y_l| and sum l^2 |y_l| over l < L, and the nearest sample lies
within pi / L; the tail l >= L adds at most T = sum_{l>=L} |y_l|
(discrete norms of polynomials: Ehlich and Zeller, 1964; Rakhmanov and
Shekhtman, J. Approx. Theory 139, 2006). With B = B_H + T the bound is

    U = min((B (1 + _MARGIN))^2,
            (sqrt(max_u |H(2 pi u / L)|^2 + (pi / L)^2 (D2 B_H + D1^2))
             + T + 2 L tiny)^2 (1 + _MARGIN) + _MARGIN B^2) + tiny,

whose first term is the triangle inequality |p| <= B, so no row's bound
is looser than that one. The margins cover the roundoff of the
butterflies, which can lift a computed |f| slightly above the exact value.
tiny, the smallest normal double, covers what a relative margin cannot:
squares below it round to a fixed absolute step, and a pruned row sets the
subnormal parts of y to zero (below), which moves a head sample by less
than 2 L tiny. Without these terms a row of subnormal |f|^2, such as
z^{N/2-1} on a large radius, can exceed its bound by a rounding step.
B_H, D1, D2 and T come from |c| and the same per-grid weights that the
row transforms read (:func:`_grid_tables`). An r = 0 row's bound is its
exact value |c_0 / N|^2.

The leaf products are issued as tiles of at most 2048 outputs (K = 16, so
M N K <= 32768), which OpenBLAS computes on the calling thread. One product
per row would be split over a second BLAS thread; that saves little on an
idle machine, but OpenBLAS's worker spins between calls, so when another
process holds the second core the transform runs at about half speed.
With OpenBLAS a tile gives each entry the same bits as the whole product.
The bound's sample products obey the same rule: tiles of 8 rows,
8 x 64 x 64 = 32768.

Weighted rows are input-pruned (Skinner, "Pruning the decimation
in-time FFT algorithm", 1976). Once r^l underflows, a row's input is a
prefix of Q = N / P nonzero entries; after bit reversal they sit every P
positions, so the first log2(P) butterfly levels only copy. When P is at
least the leaf size, the row skips those levels and runs the next four as
the dense leaf with a stride-P pre-twiddle folded into its matrix, one
(Q/16, 16) x (16, 16 P) product, then only the stages from span 32 P on.
The weighted prefix of a pruned row has its subnormal parts set to zero,
the rule the weights already follow: a tiny weight times a small
coefficient is subnormal, and the pre-twiddle would copy it P-fold.

All sizes must be exact powers of two. Twiddle tables, leaf matrices,
bit-reversal index vectors and the per-grid weight tables are cached and
published read-only.
"""

from __future__ import annotations

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
# Relative slack of a row's bound. On every step of 10-term
# decompositions of f1, f2 and random signals at N = 8 ... 65536, on 9 and
# 33 radii, a computed max |f|^2 exceeded the bound without its margins by
# at most 1.3e-15 relative (the triangle bound alone: 3.9e-16 in |f|);
# radix-2 roundoff is bounded by a small multiple of log2(N) eps, about
# 4e-15 at N = 2^16, so this margin leaves about six orders of magnitude
# to spare.
_MARGIN = 1e-9


class _Plan(NamedTuple):
    """Per-size tables; each direction is (dense leaf matrix, stage twiddles)."""

    rev: np.ndarray
    forward: tuple
    inverse: tuple


class _Row(NamedTuple):
    """One nonzero-radius grid row with prefix length Q.

    `weights` holds the row's scaled r^l for l < Q in natural order, a
    read-only view of the row's line of :attr:`_Grid.weights`, and `gather`
    is the bit reversal of Q entries (`_plan(Q).rev`), so the row's
    transform input is (weights * c[:Q])[gather]. `leaf` is the inverse
    leaf, pre-twiddled for the stride P = N / Q when the row is pruned, and
    `stages` the size-N stages that follow it.
    """

    weights: np.ndarray
    gather: np.ndarray
    leaf: np.ndarray
    stages: tuple


class _Grid(NamedTuple):
    """Per-grid tables, all read-only (:func:`_grid_tables`).

    `rows` holds one :class:`_Row` per radius, None at r = 0, and `nonzero`
    the indices of the other radii. Line k of `weights` holds the weights of
    radius nonzero[k] in natural order, zero-padded to the longest prefix
    (at least L = min(_SAMPLES, N) columns) and to a multiple of
    _SAMPLE_ROWS lines. `moments` stacks its first L columns times 1, l and
    l^2, so one product with |c| gives B_H, D1 and D2 (module docstring),
    and `samples` is the L-point inverse DFT matrix, entry [l, u] =
    e^{+i 2 pi l u / L}. `width` counts the leading weights that are
    nonzero in some row, at least 1.
    """

    rows: tuple
    nonzero: np.ndarray
    weights: np.ndarray
    moments: np.ndarray
    samples: np.ndarray
    width: int


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
    rev = _bit_reversal_indices(n)
    leaf = min(_LEAF, n)
    # Dense leaf: row k holds W_L^{rev(k) m} with W_L = e^{-i 2 pi / L},
    # so a run of L bit-reversed entries times it is their L-point
    # DFT in natural order, the result of the first log2(L) stages.
    exponents = np.outer(_bit_reversal_indices(leaf), np.arange(leaf)) % leaf
    dense = np.exp(-2j * np.pi * exponents / leaf)
    # Forward twiddles W_N^l = e^{-i 2 pi l / N}, one contiguous
    # slice per remaining stage; inverse stages conjugate them.
    w = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    stages = []
    span = 2 * leaf
    while span <= n:
        stages.append(np.ascontiguousarray(w[:: n // span]))
        span *= 2
    inverse = (np.conj(dense), tuple(np.conj(t) for t in stages))
    _read_only(rev, dense, inverse[0], *stages, *inverse[1])
    return _Plan(rev, (dense, tuple(stages)), inverse)


@lru_cache(maxsize=32)
def _pruned_leaf(p):
    """Inverse leaf for input nonzero only at every p-th bit-reversed entry.

    With u_b = x[b p], the four levels after the log2(p) copy-only ones give
    out[(16 g + k) p + m] = sum_b u_{16 g + b} W_16^{k rev(b)} W_{16 p}^{m rev(b)},
    W_L = e^{+i 2 pi / L}, rev the 4-bit reversal. Entry [b, (k, m)] of the
    returned (16, 16 p) matrix is that product of twiddles, so the levels are
    one product u.reshape(-1, 16) @ leaf written in natural order.
    """
    dense = _plan(_LEAF).inverse[0]
    exponents = np.outer(_bit_reversal_indices(_LEAF), np.arange(p)) % (_LEAF * p)
    twiddle = np.exp(2j * np.pi * exponents / (_LEAF * p))
    leaf = (dense[:, :, None] * twiddle[:, None, :]).reshape(_LEAF, _LEAF * p)
    _read_only(leaf)
    return leaf


def _transform(x, out, leaf, stages, scratch):
    """Transform the bit-reversed row `x` into the row `out` (N,).

    `x` is (N,) for a full transform, or (Q,) holding the nonzero entries
    of a pruned row with a `leaf` from :func:`_pruned_leaf`. The leaf is
    one stacked matmul of fixed-shape tiles, none large enough for BLAS to
    use a second thread (see the module docstring). The `stages` then run
    in place on `out`, which must be C-contiguous: the per-stage reshape
    below must alias it, and numpy returns copies for reshapes of
    non-C-ordered arrays, which would silently discard every update.
    `scratch` is a flat buffer for the stages, which use its first N / 2
    entries; it may share memory with `x`, which the leaf has consumed.
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
    return x[_plan(n).rev]


def _dft(x, inverse):
    """Unnormalized forward DFT, or the 1/N-scaled inverse if `inverse`."""
    x, n = _checked_length(x)
    plan = _plan(n)
    y = np.ascontiguousarray(x[plan.rev], dtype=np.complex128)
    out = np.empty(n, dtype=np.complex128)
    _transform(y, out, *(plan.inverse if inverse else plan.forward), y)
    if inverse:
        out /= n
    return out


def dft_forward(x):
    """Unnormalized forward DFT, out[l] = sum_m x[m] e^{-i 2 pi m l / N}.

    Iterative decimation-in-time: bit-reversal preamble, a dense 16-point
    leaf, then the remaining radix-2 butterfly stages with twiddles W_N^l.

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
    over them down the slow subnormal path. Q is the smallest power of two
    that is at least the leaf size and covers the last nonzero weight; a row
    with P = N / Q below the leaf size is not pruned (Q = N, P = 1). Each
    row's weights are held once, as a row of `weights`, and its
    :class:`_Row` views the first Q of them.
    """
    plan = _plan(n)
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
    nonzero = np.array([s for s, _, _ in prefixes], dtype=np.intp)
    weights = np.zeros((-(-len(prefixes) // _SAMPLE_ROWS) * _SAMPLE_ROWS,
                        max([head] + [q for _, q, _ in prefixes])))
    for k, (_, _, prefix) in enumerate(prefixes):
        weights[k, :prefix.size] = prefix
    moments = np.concatenate([weights[:len(prefixes), :head] * np.arange(head) ** p
                              for p in range(3)])
    samples = np.exp(2j * np.pi * (np.outer(np.arange(head), np.arange(head)) % head)
                     / head)
    # Before the views below: a view taken earlier would stay writable.
    _read_only(nonzero, weights, moments, samples)
    rows = [None] * len(radii)
    for k, (s, q, _) in enumerate(prefixes):
        p = n // q
        if p == 1:
            leaf, stages = plan.inverse
        else:
            leaf, stages = _pruned_leaf(p), plan.inverse[1][p.bit_length() - 1:]
        rows[s] = _Row(weights[k, :q], _plan(q).rev, leaf, stages)
    width = max([1] + [prefix.size for _, _, prefix in prefixes])
    return _Grid(tuple(rows), nonzero, weights, moments, samples, width)


def _checked_radius(r):
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must satisfy 0 <= r < 1, got %g" % r)
    return r


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
    """Weighted inverse rows of one grid, computed on demand in one buffer.

    `RowStream(radii, n).rows(c)` returns the field of the coefficients c.
    Its `bounds` lists every row's bound on |f|^2 (the module docstring) as
    floats, in row order, and its `[s]` computes row `s` of
    :func:`weighted_inverse_grid` for the same c and radii, bit for bit, as
    an (N,) array. Which rows are computed, and in what order, is the
    caller's choice. Every row of every field, and the weighted prefix it
    is transformed from, is written into one (N,) buffer, and every
    bit-reversed transform input and stage scratch into one more buffer of
    at most N entries. So a caller that reduces each row as it reads it,
    such as the selection step, runs field after field over the grid
    without holding the (M, N) field or allocating either buffer again, but
    a row is valid only until the next `[s]`, on this field or another of
    the same stream. The weights and the bound's tables are the grid's one
    cached :func:`_grid_tables`, shared by every stream of the same radii
    and size.

    `width` is the count of leading coefficients that any row reads (the
    grid table's): every weight past it is an exact zero, so c_l for
    l >= width changes no row and no bound.
    """

    def __init__(self, radii, n):
        n = _checked_size(int(n))
        radii = tuple(_checked_radius(r) for r in radii)
        if not radii:
            raise ValueError("need at least one radius")
        self._grid = _grid_tables(radii, n)
        self.width = self._grid.width
        self._buffer = np.empty(n, dtype=np.complex128)
        self._work = np.empty(max(n // 2, self._grid.weights.shape[1]), dtype=np.complex128)

    def rows(self, c):
        """The field of the coefficients c, rows on demand (see the class)."""
        c, n = _checked_length(c)
        if n != self._buffer.shape[0]:
            raise ValueError("coefficient length %d does not match the stream's %d"
                             % (n, self._buffer.shape[0]))
        return _Field(self, np.asarray(c, dtype=np.complex128))

    def _row_bounds(self, c):
        """Every row's bound U on |f|^2 (see the module docstring), row order."""
        n = c.shape[0]
        head = min(_SAMPLES, n)
        grid = self._grid
        weights = grid.weights
        m = grid.nonzero.shape[0]
        magnitude = np.abs(c[:weights.shape[1]])
        y = weights[:, :head] * c[:head]
        samples = np.matmul(y.reshape(-1, _SAMPLE_ROWS, head), grid.samples)
        peak = np.abs(samples).max(axis=2).reshape(-1)[:m] ** 2
        b_head, d1, d2 = (grid.moments @ magnitude[:head]).reshape(3, m)
        tail = weights[:m, head:] @ magnitude[head:]
        total = b_head + tail
        curvature = (np.pi / head) ** 2 * (d2 * b_head + d1 * d1)
        sampled = ((np.sqrt(peak + curvature) + tail + 2 * head * _TINY) ** 2
                   * (1.0 + _MARGIN) + _MARGIN * total ** 2)
        value = c[0] / n
        # r = 0 rows: the exact |f|^2, squared as the selection squares it
        bounds = np.full(len(grid.rows), value.real ** 2 + value.imag ** 2)
        bounds[grid.nonzero] = np.minimum((total * (1.0 + _MARGIN)) ** 2, sampled) + _TINY
        return bounds

    def _row(self, c, s, out):
        """Write row `s` of the field of c into `out`, a C-contiguous (N,) array."""
        n = c.shape[0]
        row = self._grid.rows[s]
        if row is None:
            out[...] = c[0] / n
            return out
        # The weighted prefix goes into the front of `out`, which the
        # transform overwrites, and its bit reversal into the work buffer.
        # mode="clip" lets take write there directly; the default mode
        # writes through a copy so that a bad index leaves `out` untouched.
        q = row.weights.shape[0]
        y = np.take(np.multiply(row.weights, c[:q], out=out[:q]), row.gather,
                    out=self._work[:q], mode="clip")
        if q < n:
            parts = y.view(np.float64)
            parts[np.abs(parts) < _TINY] = 0.0
        return _transform(y, out, row.leaf, row.stages, self._work)


class _Field:
    """The field of one coefficient vector c: see :meth:`RowStream.rows`."""

    def __init__(self, stream, c):
        self._stream, self._c = stream, c
        self.bounds = stream._row_bounds(c).tolist()

    def __getitem__(self, s):
        return self._stream._row(self._c, s, self._stream._buffer)


def weighted_inverse_grid(c, radii):
    """Weighted inverse rows for every radius in `radii`, as an (M, N) array.

    Each row transforms only its nonzero weight prefix of length Q (see
    :func:`_grid_tables`); a pruned row's weighted prefix has its
    subnormal parts set to zero first. At r = 0 only the l = 0 term
    survives, and the row is the constant c_0 / N. `out[s]` is row `s` of
    a :class:`RowStream` field, computed in place, and each row is
    identical to a single-radius call.
    """
    c, n = _checked_length(c)
    c = np.asarray(c, dtype=np.complex128)
    stream = RowStream(radii, n)
    out = np.empty((len(stream._grid.rows), n), dtype=np.complex128)
    for s in range(out.shape[0]):
        stream._row(c, s, out[s])
    return out
