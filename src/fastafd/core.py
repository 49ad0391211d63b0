"""Greedy adaptive decomposition of sampled boundary signals.

A signal G is given by N = 2^K samples on the unit circle and is expanded,
one term per step, over normalized reproducing kernels

    e_a(z) = sqrt(1 - |a|^2) / (1 - conj(a) z),    |a| < 1.

Each step scans a polar grid of candidate poles for the largest inner
product |<G_k, e_a>|^2, records that atom, and divides the remainder by the
matching Blaschke factor (z - a)/(1 - conj(a) z) so the next step works on a
again-analytic signal. Partial sums are rebuilt over the induced orthonormal
rational basis (one kernel times the accumulated Blaschke product).

All inner products are discrete, (1/N) sum G conj(F), which makes the
sampled exponentials e^{int} orthonormal and ties the per-step coefficients
to an exact discrete energy bookkeeping: ||G||^2 - sum |c_k|^2 equals the
remainder energy at every prefix, up to roundoff.

Two interchangeable engines evaluate the selection field: "fft" runs one
weighted inverse transform per radius (O(M N log N) per step), "direct"
the plain quadrature sums (O(M N^2), see the oracle module). The fft path
streams the field to the selection one radius row at a time, in decreasing
order of a per-row bound on |f|^2, so a step never holds the whole M x N
field. The selection takes each row's |f|^2 and first argmax as the row
arrives and sends the stream its running maximum; the stream skips every
row whose bound lies below it, so a step transforms one row, typically.
Both engines see identical grids and the same deterministic tie-break,
which does not depend on the order rows arrive in or on which are
skipped; their poles differ only where field maxima tie mathematically and
roundoff breaks the tie differently.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import transform

__all__ = [
    "radius_range",
    "ParameterPoint",
    "ParameterGrid",
    "DecompositionStep",
    "Decomposition",
    "discrete_energy",
    "analytic_projection",
    "kernel_samples",
    "blaschke_samples",
    "spectral_coefficients",
    "inner_product_field",
    "maximal_selection",
    "remainder_update",
    "decompose",
    "tm_basis_samples",
    "reconstruct",
    "relative_error",
    "error_trace",
]

RADIUS_WARN_LIMIT = 0.95

ENGINES = ("fft", "direct")


def radius_range(start, step, stop):
    """Radii start, start+step, ..., up to and including stop (within 1e-9 slack)."""
    if step <= 0:
        raise ValueError("step must be positive")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError("empty radius range")
    return tuple(start + k * step for k in range(count))


def _signal_length(n):
    """The sample-count rule: n must be a power of two >= 8. Returns n."""
    if n < 8 or n & (n - 1):
        raise ValueError("sample count must be a power of two >= 8, got %d" % n)
    return n


def _as_signal(x):
    g = np.asarray(x, dtype=np.complex128)
    if g.ndim != 1:
        raise ValueError("signal must be 1-d, got shape %r" % (g.shape,))
    _signal_length(g.shape[0])
    if not np.all(np.isfinite(g)):
        raise ValueError("signal contains non-finite samples")
    return g


@lru_cache(maxsize=32)
def _circle(n):
    """Samples z_m = e^{i 2 pi m / N}, cached read-only per size."""
    z = np.exp(2j * np.pi * np.arange(n) / n)
    z.setflags(write=False)
    return z


def _pole_value(a):
    value = complex(a.value) if isinstance(a, ParameterPoint) else complex(a)
    if abs(value) >= 1.0:
        raise ValueError("pole must lie strictly inside the unit disc, got |a|=%g"
                         % abs(value))
    return value


@dataclass(frozen=True)
class ParameterPoint:
    """One candidate pole a = r e^{i 2 pi j / N} on the polar grid."""

    radius: float
    angle_index: int
    value: complex

    def __post_init__(self):
        transform._checked_radius(self.radius)
        _pole_value(self.value)


@dataclass(frozen=True)
class ParameterGrid:
    """Polar search grid: M circle radii times N evenly spaced angles.

    `angular_count` must equal the signal length N so that every candidate
    angle sits on the sample lattice.
    """

    radii: tuple
    angular_count: int

    def __post_init__(self):
        radii = tuple(transform._checked_radius(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii:
            raise ValueError("grid needs at least one radius")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("grid radii must be strictly increasing")
        _signal_length(self.angular_count)
        if radii[-1] > RADIUS_WARN_LIMIT:
            warnings.warn(
                "largest grid radius %g exceeds %g; the 1/(1-r^N) weighting "
                "degrades close to the unit circle" % (radii[-1], RADIUS_WARN_LIMIT),
                stacklevel=2,
            )

    @classmethod
    def experiment_default(cls, angular_count):
        """The standard evaluation grid, radii 0, 0.1, ..., 0.8."""
        return cls(radius_range(0.0, 0.1, 0.8), angular_count)

    def point(self, radius_index, angle_index):
        r = self.radii[radius_index]
        n = self.angular_count
        value = r * np.exp(2j * np.pi * angle_index / n)
        return ParameterPoint(r, int(angle_index), complex(value))


@dataclass(frozen=True)
class DecompositionStep:
    """Selected pole, its coefficient <G_k, e_a>, and the energy left after it."""

    point: ParameterPoint
    coefficient: complex
    residual_energy: float


@dataclass(eq=False)
class Decomposition:
    steps: tuple
    grid: ParameterGrid
    n_samples: int
    initial_energy: float
    engine: str
    remainder: np.ndarray | None = field(default=None, repr=False)

    def poles(self):
        return np.array([s.point.value for s in self.steps], dtype=np.complex128)

    def __len__(self):
        return len(self.steps)


def discrete_energy(g):
    """Mean squared modulus (1/N) sum |G[m]|^2."""
    g = _as_signal(g)
    return float(np.mean(g.real ** 2 + g.imag ** 2))


def analytic_projection(x):
    """Map real samples to the discrete analytic signal with the same real part.

    The spectrum is folded one-sided: bin 0 and bin N/2 kept, bins 1..N/2-1
    doubled, bins above N/2 zeroed. The result lies in the span of the
    nonnegative sample frequencies, so the greedy decomposition applies.

    Parameters
    ----------
    x : array_like
        Real samples, power-of-two length >= 8.

    Returns
    -------
    ndarray of complex
    """
    g = _as_signal(x)
    if np.any(g.imag != 0):
        raise ValueError("analytic projection expects real input")
    spectrum = transform.dft_forward(g.real)
    half = spectrum.shape[0] // 2
    spectrum[1:half] *= 2.0
    spectrum[half + 1:] = 0.0
    return transform.dft_inverse(spectrum)


def kernel_samples(a, n):
    """Samples of the normalized kernel e_a(z) = sqrt(1-|a|^2)/(1 - conj(a) z)."""
    value = _pole_value(a)
    z = _circle(int(n))
    return np.sqrt(1.0 - abs(value) ** 2) / (1.0 - np.conj(value) * z)


def blaschke_samples(a, n):
    """Samples of (z - a)/(1 - conj(a) z); unimodular on the circle."""
    value = _pole_value(a)
    z = _circle(int(n))
    return (z - value) / (1.0 - np.conj(value) * z)


def spectral_coefficients(g):
    """Forward-DFT coefficients of a validated signal."""
    return transform.dft_forward(_as_signal(g))


def inner_product_field(c, grid):
    """All grid inner products <G, e_a> as an (M, N) matrix.

    Row s is the weighted inverse transform of c at radius r_s.

    Parameters
    ----------
    c : array_like
        Forward-DFT coefficients of the signal, length grid.angular_count.
    grid : ParameterGrid
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1 or c.shape[0] != grid.angular_count:
        raise ValueError("coefficient length %r does not match grid angular_count %d"
                         % (c.shape, grid.angular_count))
    return transform.weighted_inverse_grid(c, grid.radii)


def maximal_selection(field_values, grid):
    """Grid point with the largest |<G, e_a>|^2 and its field value.

    `field_values` is the (M, N) field, or an iterator of (s, row) items,
    row an (N,) array, that cover the field's rows once each in any order,
    as :meth:`transform.RowStream.rows` yields them; an array is walked row
    by row. Each row's |f|^2 and first argmax are taken as the row arrives,
    so no more than one row is held at a time. An iterator with a `send`
    method, such as a row stream, is sent the running maximum of |f|^2
    after each row, and may answer with a :class:`transform.SkippedRow` in
    place of a row that cannot reach it; the pick stands only if every such
    bound lies strictly below the final maximum.

    The larger |f|^2 wins, then the smaller radius index, then the smaller
    angle index (exact floating-point comparison, no epsilon band). That
    is the row-major argmax of the whole field, in whatever order rows are
    evaluated or skipped.
    """
    m, n = len(grid.radii), grid.angular_count
    if isinstance(field_values, Iterator):
        rows = field_values
    else:
        f = np.asarray(field_values)
        if f.shape != (m, n):
            raise ValueError("field shape %r does not match grid %r" % (f.shape, (m, n)))
        rows = enumerate(f)
    advance = getattr(rows, "send", None) or (lambda floor: next(rows))
    covered = [False] * m
    best = None  # (|f|^2, s, j, value)
    skipped = -np.inf  # largest bound of a skipped row
    while True:
        try:
            item = advance(None if best is None else best[0])
        except StopIteration:
            break
        s, row = item
        if not 0 <= s < m or covered[s]:
            raise ValueError("row %d is outside the field's %d rows or seen before"
                             % (s, m))
        covered[s] = True
        if isinstance(item, transform.SkippedRow):
            skipped = max(skipped, item.bound)
            continue
        if row.shape != (n,):
            raise ValueError("row of shape %r does not fit a field of shape %r"
                             % (row.shape, (m, n)))
        magnitude = row.real ** 2
        magnitude += row.imag ** 2
        j = int(np.argmax(magnitude))
        value = magnitude[j]
        if best is None or (-value, s, j) < (-best[0], best[1], best[2]):
            best = (value, s, j, complex(row[j]))
    if not all(covered):
        raise ValueError("rows cover %d of the field's %d rows" % (sum(covered), m))
    if best is None or not skipped < best[0]:
        raise ValueError("rows were skipped with a bound %g not below the maximum %g"
                         % (skipped, np.nan if best is None else best[0]))
    _, s, j, value = best
    return grid.point(s, j), value


def remainder_update(g, a, c):
    """One reduction step: strip the atom c e_a, divide by its Blaschke factor.

    out[m] = (G[m] - c e_a(z_m)) * (1 - conj(a) z_m) / (z_m - a). Well defined
    on the sample lattice since |z_m - a| >= 1 - |a| > 0.
    """
    g = _as_signal(g)
    value = _pole_value(a)
    c = complex(c)
    z = _circle(g.shape[0])
    stripped = g - c * kernel_samples(value, g.shape[0])
    return stripped * (1.0 - np.conj(value) * z) / (z - value)


def decompose(g, grid, max_terms=10, threshold=None, engine="fft",
              dc_first=False):
    """Greedy decomposition of G over the grid.

    Iterates: evaluate the selection field for the current remainder, take
    the maximizing pole and coefficient, reduce the remainder. Stops after
    `max_terms` steps, or earlier once residual/initial energy falls to
    `threshold` or the residual is exactly zero.

    Parameters
    ----------
    g : array_like
        Complex samples, power-of-two length >= 8.
    grid : ParameterGrid
        Candidate poles; grid.angular_count must equal len(g).
    max_terms : int
        Maximum number of atoms, >= 1.
    threshold : float, optional
        Relative-energy stopping level in (0, 1].
    engine : {"fft", "direct"}
        Field evaluator: one weighted inverse transform per radius, or the
        plain quadrature sums. Both select the same poles, except where field
        maxima tie mathematically and roundoff breaks the tie differently
        in each engine.
    dc_first : bool
        Pin the first pole at a = 0, so step 1 removes the signal mean and
        adaptive selection starts at step 2. Off by default; the CLI turns
        it on. Useful when later terms should concentrate on oscillatory
        structure, and the convention behind the bundled error tables.

    Returns
    -------
    Decomposition
        Step sequence with the final remainder attached; empty for an
        all-zero input.

    Raises
    ------
    ValueError
        For a signal or grid outside the rules above, and for a signal
        whose energy does not fit in a double: it overflows to infinity,
        or it underflows to 0 or to a subnormal although some sample is
        nonzero (subnormal energies keep too few digits for the energy
        bookkeeping).
    """
    g = _as_signal(g)
    if grid.angular_count != g.shape[0]:
        raise ValueError("grid angular_count %d does not match signal length %d"
                         % (grid.angular_count, g.shape[0]))
    if engine not in ENGINES:
        raise ValueError("engine must be one of %s, got %r" % (ENGINES, engine))
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")

    from . import oracle  # runtime import: oracle uses this module's types

    initial = discrete_energy(g)
    if not np.isfinite(initial):
        raise ValueError("signal energy overflows a double")
    if initial == 0.0:
        if np.any(g):
            raise ValueError("signal energy underflows to 0 but samples are nonzero")
        return Decomposition((), grid, g.shape[0], 0.0, engine, remainder=g.copy())
    if initial < np.finfo(np.float64).tiny:
        raise ValueError("signal energy %g underflows to a subnormal double; "
                         "scale the signal up" % initial)

    # One stream serves every step. Its buffers are allocated once, not per
    # step, so the allocator cannot hand them back to the system between
    # steps and fault their pages in again.
    stream = transform.RowStream(grid.radii, g.shape[0]) if engine == "fft" else None
    remainder = g
    steps = []
    for k in range(max_terms):
        if k == 0 and dc_first:
            point = ParameterPoint(0.0, 0, 0j)
            coeff = complex(np.mean(remainder))
        else:
            if engine == "fft":
                f = stream.rows(spectral_coefficients(remainder))
            else:
                f = oracle.field_direct(remainder, grid)
            point, coeff = maximal_selection(f, grid)
        remainder = remainder_update(remainder, point, coeff)
        residual = discrete_energy(remainder)
        steps.append(DecompositionStep(point, coeff, residual))
        if threshold is not None and residual <= threshold * initial:
            break
        if residual == 0.0:
            break
    return Decomposition(tuple(steps), grid, g.shape[0], initial, engine,
                         remainder=remainder)


def tm_basis_samples(poles, n):
    """Samples of the n-th orthonormal rational basis function for `poles`.

    B(z) = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{l<k} (z-a_l)/(1-conj(a_l) z)
    with k = len(poles). The family over successive prefixes of a pole
    sequence is orthonormal under the discrete inner product, up to an
    O(r^N) aliasing term.
    """
    values = [_pole_value(a) for a in poles]
    if not values:
        raise ValueError("need at least one pole")
    b = kernel_samples(values[-1], n)
    for a in values[:-1]:
        b = b * blaschke_samples(a, n)
    return b


def _partial_sums(steps, n):
    """Yield the partial sums S_1, S_2, ... over `steps` on n lattice points."""
    total = np.zeros(n, dtype=np.complex128)
    blaschke_prod = np.ones(n, dtype=np.complex128)
    for step in steps:
        total = total + step.coefficient * kernel_samples(step.point, n) * blaschke_prod
        yield total
        blaschke_prod = blaschke_prod * blaschke_samples(step.point, n)


def reconstruct(decomposition, n_terms):
    """Partial sum S_n over the first n recorded atoms.

    S_n[m] = sum_{k<=n} c_k B_k(z_m) with B_k the basis function for the pole
    prefix a_1..a_k; n = 0 gives the zero signal.
    """
    steps = decomposition.steps
    n_terms = int(n_terms)
    if not 0 <= n_terms <= len(steps):
        raise ValueError("term count %d outside 0..%d" % (n_terms, len(steps)))
    total = np.zeros(decomposition.n_samples, dtype=np.complex128)
    for total in _partial_sums(steps[:n_terms], decomposition.n_samples):
        pass
    return total


def relative_error(g, s):
    """||G - S||^2 / ||G||^2 under the discrete energy."""
    g = _as_signal(g)
    s = _as_signal(s)
    if g.shape != s.shape:
        raise ValueError("length mismatch: %d vs %d" % (g.shape[0], s.shape[0]))
    eg = discrete_energy(g)
    if eg == 0.0:
        raise ValueError("relative error undefined for a zero-energy reference")
    return discrete_energy(g - s) / eg


def error_trace(decomposition, g):
    """Relative errors of the partial sums, entry i for the (i+1)-term sum.

    Matches [relative_error(g, reconstruct(d, n)) for n = 1..len(steps)]
    exactly: both walk the same partial-sum recurrence, accumulated once
    here instead of rebuilt per n, and ||G||^2 is computed once.
    """
    g = _as_signal(g)
    if g.shape[0] != decomposition.n_samples:
        raise ValueError("signal length %d does not match decomposition %d"
                         % (g.shape[0], decomposition.n_samples))
    eg = discrete_energy(g)
    if eg == 0.0 and decomposition.steps:
        raise ValueError("relative error undefined for a zero-energy reference")
    return [discrete_energy(g - s) / eg
            for s in _partial_sums(decomposition.steps, decomposition.n_samples)]
