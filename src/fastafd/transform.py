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
matrix product (Van Loan, 1992); the remaining radix-2 stages run on
blocks of at most 2^16 entries (1 MiB, one row at N = 65536), so a block
stays in cache through all of its stages instead of the whole field
streaming through memory once per stage. The leaf size and the block
budget are fixed constants, not options.

All sizes must be exact powers of two. Twiddle tables, leaf matrices and
bit-reversal index vectors are cached per size and published read-only.
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
]

_LEAF = 16          # points per dense leaf transform
_BLOCK = 1 << 16    # complex entries per block of rows: 1 MiB, inside L2


class _Plan(NamedTuple):
    """Per-size tables; each direction is (dense leaf matrix, stage twiddles)."""

    rev: np.ndarray
    forward: tuple
    inverse: tuple


def _checked_length(x):
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a 1-d buffer, got shape %r" % (x.shape,))
    n = x.shape[0]
    if n < 2 or n & (n - 1):
        raise ValueError("length must be a power of two >= 2, got %d" % n)
    return x, n


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
    inverse = (np.conj(dense), [np.conj(t) for t in stages])
    _read_only(rev, dense, inverse[0], *stages, *inverse[1])
    return _Plan(rev, (dense, stages), inverse)


def _transform(x, out, direction):
    """Transform the bit-reversed rows of `x` into `out`, both (B, N).

    The dense leaf replaces the first log2(L) radix-2 stages. It is one
    stacked matmul, which numpy evaluates as one fixed-shape (N/L, L)
    product per row, so a row's result never depends on how many rows share
    the call (BLAS rounds a product differently as its row count changes).
    The remaining stages run in place on `out`, which must be C-contiguous:
    the per-stage reshape below must alias it, and numpy returns copies for
    reshapes of non-C-ordered arrays, which would silently discard every
    update. `x` is clobbered as scratch.
    """
    if not out.flags.c_contiguous or not x.flags.c_contiguous:
        raise ValueError("transform buffers must be C-contiguous")
    dense, stages = direction
    leaf = dense.shape[0]
    rows = out.shape[0]
    np.matmul(x.reshape(rows, -1, leaf), dense, out=out.reshape(rows, -1, leaf))
    scratch = x.reshape(-1)[: out.size // 2]
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
    _transform(y[None], out[None], plan.inverse if inverse else plan.forward)
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
    """Per-grid tables: bit-reversed weight rows and row blocks.

    radii is a tuple of floats (hashable for the cache). Rows of `powers`
    are the running products 1, r, r^2, ... times the row's output scale,
    already permuted into bit-reversed column order so the per-call work is
    one gather of c plus the butterflies. Weights below the smallest normal
    double are set to 0: they add nothing at double precision, and
    subnormal operands would send every butterfly over them down the slow
    subnormal path. `blocks` lists [start, stop) runs of consecutive nonzero
    radii, each at most _BLOCK entries, so all stages of a block run in
    cache.
    """
    rev = _plan(n).rev
    r = np.asarray(radii, dtype=np.float64)
    powers = np.empty((r.shape[0], n))
    powers[:, 0] = 1.0
    powers[:, 1:] = r[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # 1 - r^N underflows to 1 for moderate N; harmless, it is the exact limit.
    scales = np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n))
    powers *= scales[:, None]
    powers[powers < np.finfo(np.float64).tiny] = 0.0
    powers = np.ascontiguousarray(powers[:, rev])
    _read_only(powers)
    rows = max(1, _BLOCK // n)
    blocks = []
    for s, radius in enumerate(radii):
        if radius == 0.0:
            continue
        if blocks and blocks[-1][1] == s and s - blocks[-1][0] < rows:
            blocks[-1][1] = s + 1
        else:
            blocks.append([s, s + 1])
    return powers, tuple(map(tuple, blocks))


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


def weighted_inverse_grid(c, radii):
    """Weighted inverse rows for every radius in `radii`, as an (M, N) array.

    Rows run in blocks of at most _BLOCK entries (one row at N = 65536), so
    every stage of a block works in cache. The leaf applies per row and the
    stages apply elementwise, so a row's arithmetic does not depend on the
    block it shares: each row is identical to a single-radius call. At r = 0
    only the l = 0 term survives, and the row is the constant c_0 / N.
    """
    c, n = _checked_length(c)
    radii = tuple(_checked_radius(r) for r in radii)
    if not radii:
        raise ValueError("need at least one radius")
    plan = _plan(n)
    powers, blocks = _radius_tables(radii, n)
    crev = np.asarray(c, dtype=np.complex128)[plan.rev]
    out = np.empty((len(radii), n), dtype=np.complex128)
    for s, r in enumerate(radii):
        if r == 0.0:
            out[s] = crev[0] / n
    for start, stop in blocks:
        y = powers[start:stop] * crev
        _transform(y, out[start:stop], plan.inverse)
    return out
