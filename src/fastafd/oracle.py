"""Plain quadrature reference path ("direct" engine).

Everything here evaluates the same discrete inner products as the transform
route, but by literal summation on the sample lattice: O(N) per grid point,
O(M N^2) per field. It exists to be slow and right, serving both as the
correctness oracle for the fast path and as the baseline engine in the
benchmarks. No fast transform of any kind is used in this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import core

__all__ = [
    "quadrature_inner_product",
    "inner_product_direct",
    "field_direct",
]


def quadrature_inner_product(g, f):
    """Discrete inner product (1/N) sum G[m] conj(F[m]).

    The uniform rectangle rule on a periodic grid, which is exact for
    trigonometric polynomials of degree below N; <G, G> equals the discrete
    energy.
    """
    g = np.asarray(g, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    if g.shape != f.shape or g.ndim != 1:
        raise ValueError("inner product needs two equal-length 1-d buffers")
    return complex(np.mean(g * np.conj(f)))


def inner_product_direct(g, a):
    """<G, e_a> by the literal sum (sqrt(1-|a|^2)/N) sum_m G[m]/(1 - a e^{-i t_m}).

    The conjugated kernel 1/(1 - conj(conj(a) z_m)) collapses to the
    geometric form above; one O(N) pass per pole.
    """
    g = core._as_signal(g)
    value = core._pole_value(a)
    n = g.shape[0]
    t = 2.0 * np.pi * np.arange(n) / n
    terms = g / (1.0 - value * np.exp(-1j * t))
    return complex(np.sqrt(1.0 - abs(value) ** 2) / n * np.sum(terms))


@lru_cache(maxsize=32)
def _kernel_rows(radii, n):
    """Each radius's sampled kernel row k reversed, (M, N), read-only.

    k[m] = sqrt(1 - r_s^2) / (N (1 - r_s z_m)).
    """
    z = core._circle(n)
    rows = np.empty((len(radii), n), dtype=np.complex128)
    for s, r in enumerate(radii):
        rows[s] = ((np.sqrt(1.0 - r * r) / n) / (1.0 - r * z))[::-1]
    rows.setflags(write=False)
    return rows


def field_direct(g, grid):
    """All grid inner products by direct summation, as an (M, N) matrix.

    Entry (s, j) carries the same summands as inner_product_direct at
    a = r_s e^{i 2 pi j / N}: since a_j e^{-i t_m} depends only on j - m
    mod N, each radius row is the circular correlation of G with one sampled
    kernel row, evaluated by sliding direct summation (np.correlate, no
    transform shortcut). Cost stays O(N^2) per radius; the kernel rows are
    cached per grid.
    """
    g = core._as_signal(g)
    if grid.angular_count != g.shape[0]:
        raise ValueError("grid angular_count %d does not match signal length %d"
                         % (grid.angular_count, g.shape[0]))
    n = g.shape[0]
    gc = np.conj(g)
    rows = np.empty((len(grid.radii), n), dtype=np.complex128)
    for s, kernel_row in enumerate(_kernel_rows(tuple(grid.radii), n)):
        # Sliding G along the row twice over gives the circular correlation.
        doubled = np.concatenate([kernel_row, kernel_row])
        correlation = np.correlate(doubled, gc, "valid")
        rows[s] = correlation[n - 1 :: -1]
    return rows
