"""Radix-2 transforms on power-of-two complex buffers.

Three operations share one iterative butterfly kernel with a bit-reversal
preamble: the unnormalized forward DFT, the 1/N inverse, and the
radius-weighted inverse

    out[j] = sqrt(1 - r^2) / (N (1 - r^N)) * sum_l r^l c[l] e^{+i 2 pi j l / N}

that evaluates normalized reproducing-kernel inner products on a circle of
radius r in one pass. Feeding f(l) = r^l c_l, times the row's scale, to
inverse-direction butterflies is exactly the weighted sum; the weights are
built by a running product and cached per grid so repeated field
evaluations pay only for the butterflies. Weights that underflow below the
smallest normal double are stored as exact zeros, which keeps every pass
off the slow subnormal path. At r = 0 the row is the constant c_0 / N and
is written without a transform.

The kernel is cache-aware (Bailey, "FFTs in external or hierarchical
memory", 1990). The first four radix-2 stages, whose runs are 1 to 8
entries long, are replaced by one dense 16-point DFT leaf applied as a
matrix product (Van Loan, 1992); the remaining radix-2 stages run on one
radius row at a time (1 MiB at N = 2^16), so a row stays in cache through
all of its stages instead of the whole field streaming through memory once
per stage. The leaf size is a fixed constant, not an option. One loop,
:class:`BlockStream`, walks the rows from the last back to the first,
which on a grid's increasing radii is outermost first, and yields each
row from one buffer that it reuses across fields, so a caller that reduces
the rows as they come (the selection step) never holds more than one row;
:func:`weighted_inverse_grid` copies every row into the (M, N) result.

Such a caller may also send the stream a floor, its running maximum of
|f|^2, and the stream then skips every row that cannot reach it. A row's
transform input y bounds its output, |f(theta)| <= sum_l |y_l| by the
triangle inequality, so before transforming a row the stream takes
B = sum_l |y_l|, an O(Q) pass, and skips the row when
(B (1 + _MARGIN))^2 lies below the floor; the margin covers the roundoff of
the butterflies, which can lift a computed |f| slightly above the computed
B. An r = 0 row's bound is its exact value |c_0 / N|^2. The outer rows
come first because max_theta |f| grows with r (maximum modulus principle
for sum_l c_l r^l e^{i l theta}), so they usually hold the maximum and the
inner rows are skipped.

The leaf products are issued as tiles of at most 2048 outputs (K = 16, so
M N K <= 32768), which OpenBLAS computes on the calling thread. One product
per row would be split over a second BLAS thread; that saves little on an
idle machine, but OpenBLAS's worker spins between calls, so when another
process holds the second core the transform runs at about half speed.
With OpenBLAS a tile gives each entry the same bits as the whole product.

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

All sizes must be exact powers of two. Twiddle tables, leaf matrices and
bit-reversal index vectors are cached and published read-only.
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
    "BlockStream",
    "SkippedRows",
]

_LEAF = 16          # points per dense leaf transform; also the least pruned stride
_TILE = 2048        # outputs per BLAS product of the leaf: M N K <= 32768
_TILE_WIDTH = 64    # columns per BLAS product of a pruned leaf
_TINY = np.finfo(np.float64).tiny
# Relative slack of a row's triangle bound. On every step of 10-term
# decompositions at N = 64 ... 65536, a computed max |f| exceeded its
# computed bound by at most 3.9e-16 relative; radix-2 roundoff is bounded
# by a small multiple of log2(N) eps, about 4e-15 at N = 2^16, so this
# margin leaves about six orders of magnitude to spare.
_MARGIN = 1e-9


class _Plan(NamedTuple):
    """Per-size tables; each direction is (dense leaf matrix, stage twiddles)."""

    rev: np.ndarray
    forward: tuple
    inverse: tuple


class _Row(NamedTuple):
    """One nonzero-radius grid row with prefix length Q.

    `weights` holds the row's scaled r^l for l < Q, bit-reversed within Q,
    and `gather` is that bit reversal, so the row's transform input is
    weights * c[gather]. `leaf` is the inverse leaf, pre-twiddled for the
    stride P = N / Q when the row is pruned, and `stages` the size-N
    stages that follow it.
    """

    weights: np.ndarray
    gather: np.ndarray
    leaf: np.ndarray
    stages: tuple


class SkippedRows(NamedTuple):
    """Rows [start, stop) of a block stream left untransformed.

    `bound` is at least every |f|^2 on those rows; the stream skipped them
    because it lay below the floor its caller sent.
    """

    start: int
    stop: int
    bound: float


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
    """Transform the bit-reversed rows of `x` into `out` (B, N).

    `x` is (B, N) for a full transform, or (B, Q) holding the nonzero
    entries of pruned rows with a `leaf` from :func:`_pruned_leaf`. The
    leaf is one stacked matmul, which numpy evaluates as fixed-shape tile
    products inside a row, so a row's result never depends on how many rows
    share the call (BLAS rounds a product differently as its row count
    changes), and no product is large enough for BLAS to use a second
    thread. The `stages` then run in place on `out`, which must be C-contiguous:
    the per-stage reshape below must alias it, and numpy returns copies for
    reshapes of non-C-ordered arrays, which would silently discard every
    update. `scratch` is a flat buffer for the stages, which use its first
    out.size / 2 entries; it may share memory with `x`, which the leaf has
    consumed.
    """
    if not out.flags.c_contiguous or not x.flags.c_contiguous:
        raise ValueError("transform buffers must be C-contiguous")
    # Tile t of block i is rows [i m, i m + m) of the (B Q / k, k) input times
    # columns [t w, t w + w) of the leaf; m divides Q / k, so no tile spans rows.
    k, width = leaf.shape
    w = min(width, _TILE_WIDTH)
    m = min(x.shape[1] // k, _TILE // w)
    np.matmul(x.reshape(-1, 1, m, k), leaf.reshape(k, -1, w).transpose(1, 0, 2),
              out=out.reshape(-1, m, width // w, w).transpose(0, 2, 1, 3))
    scratch = scratch[: out.size // 2]
    for tw in stages:
        half = tw.shape[0]
        blocks = out.reshape(-1, 2 * half)
        lo, hi = blocks[:, :half], blocks[:, half:]
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
    _transform(y[None], out[None], *(plan.inverse if inverse else plan.forward), y)
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
def _radius_tables(radii, n):
    """Per-grid tables: one :class:`_Row` per radius, None at r = 0.

    radii is a tuple of floats (hashable for the cache). A row's weights are
    the running products 1, r, r^2, ... times its output scale. Weights
    below the smallest normal double are set to 0: they add nothing at
    double precision, and subnormal operands would send every butterfly
    over them down the slow subnormal path. Q is the smallest power of two
    that is at least the leaf size and covers the last nonzero weight; a row
    with P = N / Q below the leaf size is not pruned (Q = N, P = 1). Only
    the weight prefixes are kept.
    """
    plan = _plan(n)
    gathers = {n: plan.rev}
    rows = []
    for r in radii:
        if r == 0.0:
            rows.append(None)
            continue
        powers = np.full(n, r)
        powers[0] = 1.0
        np.cumprod(powers, out=powers)
        # 1 - r^N underflows to 1 for moderate N; harmless, it is the exact limit.
        powers *= np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n))
        powers[powers < _TINY] = 0.0
        # The weights fall monotonically, so the nonzero ones are a prefix.
        nonzero = np.count_nonzero(powers)
        q = _LEAF
        while q < nonzero:
            q *= 2
        if n // q < _LEAF:
            q = n
        if q not in gathers:
            gathers[q] = _bit_reversal_indices(q)
            _read_only(gathers[q])
        # Keep only the bit-reversed prefix; the full row is freed here.
        weights = powers[gathers[q]]
        _read_only(weights)
        p = n // q
        if p == 1:
            leaf, stages = plan.inverse
        else:
            leaf, stages = _pruned_leaf(p), plan.inverse[1][p.bit_length() - 1:]
        rows.append(_Row(weights, gathers[q], leaf, stages))
    return tuple(rows)


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


class BlockStream:
    """Weighted inverse rows of one grid, a row at a time, in one buffer.

    `BlockStream(radii, n).blocks(c)` yields (start, rows): rows is a (1, N)
    array holding row `start` of :func:`weighted_inverse_grid` for the same
    c and radii, bit for bit. The rows come once each, from the last back
    to the first (outermost first on increasing radii). A caller iterating
    with `send(floor)` instead of `next` gets a :class:`SkippedRows` in place
    of every later row whose |f|^2 provably lies below `floor`; see the
    module docstring for the bound. Every row of every call is written into
    one (1, N) buffer, and every transform input and stage scratch into one
    more buffer of at most N entries. So a caller that reduces each row as
    it comes, such as the selection step, runs field after field over the
    grid without holding the (M, N) field or allocating either buffer
    again, but a row is valid only until the next one is requested, from
    this call or another on the same stream.
    """

    def __init__(self, radii, n):
        n = _checked_size(int(n))
        radii = tuple(_checked_radius(r) for r in radii)
        if not radii:
            raise ValueError("need at least one radius")
        self._tables = _radius_tables(radii, n)
        self._buffer = np.empty((1, n), dtype=np.complex128)
        size = max([n // 2] + [row.weights.size for row in self._tables if row is not None])
        self._work = np.empty(size, dtype=np.complex128)

    def blocks(self, c):
        """Generator of the rows for the coefficients c (see the class)."""
        c, n = _checked_length(c)
        if n != self._buffer.shape[1]:
            raise ValueError("coefficient length %d does not match the stream's %d"
                             % (n, self._buffer.shape[1]))
        return self._weighted_rows(np.asarray(c, dtype=np.complex128))

    def _weighted_rows(self, c):
        """The one loop of the weighted inverse transform, last row first.

        Each row yields (s, buffer), except that once the caller has sent a
        floor, a row whose squared bound lies below it yields
        :class:`SkippedRows` instead and is not transformed.
        """
        n = c.shape[0]
        floor = None
        for s in range(len(self._tables) - 1, -1, -1):
            row = self._tables[s]
            if row is None:
                value = c[0] / n
                bound = value.real ** 2 + value.imag ** 2  # the row's exact |f|^2
            else:
                y = self._work[:row.weights.size]
                np.multiply(row.weights, c[row.gather], out=y)
                if row.gather.shape[0] < n:
                    parts = y.view(np.float64)
                    parts[np.abs(parts) < _TINY] = 0.0
                if floor is not None:
                    bound = (np.abs(y).sum() * (1.0 + _MARGIN)) ** 2
            if floor is not None and bound < floor:
                floor = yield SkippedRows(s, s + 1, float(bound))
                continue
            if row is None:
                self._buffer[...] = value
            else:
                _transform(y[None], self._buffer, row.leaf, row.stages, self._work)
            floor = yield s, self._buffer


def weighted_inverse_grid(c, radii):
    """Weighted inverse rows for every radius in `radii`, as an (M, N) array.

    Each row transforms only its nonzero weight prefix of length Q (see
    :func:`_radius_tables`); a pruned row's weighted prefix has its
    subnormal parts set to zero first. At r = 0 only the l = 0 term
    survives, and the row is the constant c_0 / N. The rows are those of a
    :class:`BlockStream` that is sent no floor, so no row is skipped, and
    each row is identical to a single-radius call.
    """
    c, n = _checked_length(c)
    stream = BlockStream(radii, n)
    out = np.empty((len(stream._tables), n), dtype=np.complex128)
    for s, rows in stream.blocks(c):
        out[s] = rows[0]
    return out
