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
hands the selection a field whose radius rows are read on demand, one at a
time, together with a bound on each row's |f|^2, so a step never holds the
whole M x N field. A row is read as its samples on a sub-lattice and the
exact cells of the few arcs between samples that can reach the band. The
selection reads the rows in decreasing bound, reduces each row's |f|^2 as
it reads it, and stops at the first row whose bound lies below its running
maximum, less a relative tie band TIE_BAND; so a step reads one row,
typically. Every cell within the band of the maximum counts as tied and
the smallest (radius index, angle index) among them wins, so both engines
select the same poles even where maxima tie mathematically (mirror pairs
of real-coefficient or odd signals) and roundoff splits the tie
differently, whatever order rows are read in and whichever are skipped.

A decomposition takes one forward DFT of the remainder and carries the low
band of its coefficients, the only ones a field reads, from step to step
(:class:`_Spectrum`); it takes another DFT only when the band runs out.
Each field's rows are cut at a degree the remainder's measured energy
certifies (:mod:`transform`), about 256 coefficients on the standard grid
at every N, so the band fits from N = 1024 on: a 10-term decomposition
takes 3 DFTs at N = 1024 and 1 from N = 4096 on, as a rule. The
time-domain remainder is reduced in place in one workspace, and its
measured energy is each step's residual, independent of the band.
"""

from __future__ import annotations

import operator
import warnings
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

# Relative width of the selection's tie band (see maximal_selection).
TIE_BAND = 1e-12


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


def _term_count(value):
    """An integer term count: any type with ``__index__`` but bool, which
    would otherwise pass as 0 or 1; anything else raises TypeError."""
    if isinstance(value, bool):
        raise TypeError("term count must be an integer, not bool")
    return operator.index(value)


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


def _energy(g):
    """(1/N) sum |G[m]|^2 of a C-contiguous complex array, unvalidated.

    One pass over the interleaved real and imaginary parts, with no
    temporary and no BLAS call (OpenBLAS would thread a long dot product;
    see the transform module).
    """
    parts = g.view(np.float64)
    return float(np.einsum("i,i->", parts, parts)) / g.shape[0]


def discrete_energy(g):
    """Mean squared modulus (1/N) sum |G[m]|^2."""
    return _energy(np.ascontiguousarray(_as_signal(g)))


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
    """Grid point with the largest |<G, e_a>|^2, within a tie band, and its field value.

    `field_values` is the (M, N) field, whose rows are read whole in row
    order, or a field with rows on demand, as :meth:`transform.RowStream.rows`
    returns it: M row bounds on |f|^2 in `bounds`, and from
    `field_values.cells(s, peak, TIE_BAND)` the cells of row `s` that can lie
    in the tie band of max(peak, the row's maximum), as ascending angle
    indices and their values. Such a field's rows are read in decreasing
    bound, rows of equal bound in row order, and the first row whose bound
    lies below (1 - TIE_BAND) times the running maximum of |f|^2 ends the
    reading: neither it nor any later row can hold a cell in the band. The
    first row read is usually the one that holds the maximum, so a step
    typically reads one row. Each row's |f|^2 is reduced as the row is read,
    so no more than one row is held at a time.

    Every cell with |f|^2 >= (1 - TIE_BAND) max |f|^2 counts as tied, and
    the pick is the one with the smallest radius index, then the smallest
    angle index. So maxima that tie mathematically, which roundoff splits by
    far less than TIE_BAND, give the same pick in both engines, in whatever
    order rows are read or skipped. Per row the candidates are the cells
    within the band of the row's own maximum; the final band is never lower
    than a row's, so filtering them by it at the end is exact.

    A row read with a NaN raises ValueError.
    """
    m, n = len(grid.radii), grid.angular_count
    if not hasattr(field_values, "bounds"):
        field_values = _WholeRows(field_values, m, n)
    bounds = field_values.bounds
    if len(bounds) != m:
        raise ValueError("%d row bounds do not fit a field of %d rows"
                         % (len(bounds), m))
    order = sorted(range(m), key=lambda s: -bounds[s])  # stable: ties in row order
    keep = 1.0 - TIE_BAND
    peak = -np.inf  # the largest |f|^2 read
    tied = []  # (s, angle indices, |f|^2, f): each row's cells in its own band
    for s in order:
        if bounds[s] < keep * peak:
            break
        j, row = field_values.cells(s, peak, TIE_BAND)
        if row.ndim != 1 or row.shape != j.shape or not row.size:
            raise ValueError("cells of shapes %r and %r do not fit a field of shape %r"
                             % (j.shape, row.shape, (m, n)))
        magnitude = row.real ** 2
        magnitude += row.imag ** 2
        top = magnitude.max()
        if not top >= 0.0:  # NaN, which no comparison below would see
            raise ValueError("row %d of the field is not a number" % s)
        hit = (magnitude >= keep * top).nonzero()[0]
        tied.append((s, j[hit], magnitude[hit], row[hit]))
        peak = max(peak, top)
    for s, j, values, cells in sorted(tied, key=lambda cell: cell[0]):
        hit = (values >= keep * peak).nonzero()[0]
        if hit.size:
            return grid.point(s, int(j[hit[0]])), complex(cells[hit[0]])


class _WholeRows:
    """An (M, N) field as :func:`maximal_selection` reads a field on demand:
    no row is skipped, and every cell of a row is a candidate."""

    def __init__(self, values, m, n):
        values = np.asarray(values)
        if values.shape != (m, n):
            raise ValueError("field shape %r does not match grid %r" % (values.shape, (m, n)))
        self._values, self._j = values, np.arange(n)
        self.bounds = [np.inf] * m

    def cells(self, s, peak, band):
        return self._j, self._values[s]


def _reduce(g, a, c, scratch):
    """Reduce the remainder `g` in place by the pole `a` and coefficient `c`.

    The kernel's denominator cancels against the Blaschke factor's
    numerator, (G - c e_a)(1 - conj(a) z)/(z - a) =
    (G (1 - conj(a) z) - c sqrt(1 - |a|^2)) / (z - a), so the step needs one
    scratch buffer of g's length and no kernel samples.
    """
    z = _circle(g.shape[0])
    np.multiply(z, -np.conj(a), out=scratch)
    scratch += 1.0
    g *= scratch
    g -= c * np.sqrt(1.0 - abs(a) ** 2)
    np.subtract(z, a, out=scratch)
    g /= scratch
    return g


def remainder_update(g, a, c):
    """One reduction step: strip the atom c e_a, divide by its Blaschke factor.

    out[m] = (G[m] - c e_a(z_m)) * (1 - conj(a) z_m) / (z_m - a). Well defined
    on the sample lattice since |z_m - a| >= 1 - |a| > 0. The same
    arithmetic as each step of :func:`decompose`, bit for bit.
    """
    out = _as_signal(g).copy()
    return _reduce(out, _pole_value(a), complex(c), np.empty_like(out))


class _Spectrum:
    """The remainder's DFT coefficients, carried from step to step as a band.

    A field reads the coefficients c_l only for l below its `width`, the
    longest prefix its rows are cut at (:class:`transform.RowStream`). With
    G' = (G - c e_a)(1 - conj(a) z)/(z - a) and C the DFT of G, the DFT of
    G' follows from C without a transform:

        S = C - c E,  E_l = N sqrt(1 - |a|^2) conj(a)^l / (1 - conj(a)^N);
        T_l = S_l - conj(a) S_{l-1},  T_0 = S_0 - conj(a) S_{N-1};
        O_j = sum_{k<d} a^k T_{j+1+k},  O_{N-1} = sum_{k<d} a^k T_k,

    the last the cyclic solution of O_{j-1} - a O_j = T_j cut after d terms,
    d the first power of two with |a|^d < 2^-64, below the roundoff of the
    coefficients; E_l is cut at l < d as well. The sums are a doubling scan
    (Kogge and Stone, IEEE Trans. Comput. C-22, 1973). So a band C[0:B]
    plus C[N-1] gives the next step's band O[0:B-d] plus O[N-1]: each step
    loses at most D entries, D the depth of the grid's largest radius.

    A field whose width the band does not cover takes its coefficients
    from one DFT of the time-domain remainder instead. The prefix of that
    DFT kept as the band is the field's width plus D for each field that
    may follow, as many as fit below N. On the standard grid a cut row reads about
    256 coefficients, so a 10-term decomposition takes 3 DFTs at
    N = 1024 and 1 from N = 4096 on. The band is zero-padded into one
    length-N buffer; no field reads past its width, so the padding changes
    no field or bound.
    """

    def __init__(self, radii, n):
        self._n = n
        self._depth = _scan_depth(max(radii))
        self._coeffs = None  # length-N buffer: the band, then zeros; None: no band
        self._size = 0       # band width B
        self._last = 0j      # C[N-1]
        self._width = 0      # the last field's width

    def field(self, stream, remainder, energy, later):
        """This step's field of `remainder`, of `energy`, with `later` fields to come."""
        if self._coeffs is not None:
            f = stream.rows(self._coeffs, energy)
            if f.width <= self._size:
                self._width = f.width
                return f
        self._coeffs = None
        c = transform.dft_forward(remainder)
        f = stream.rows(c, energy)
        self._width = f.width
        # One scan depth per later field, as many as fit below N.
        steps = min(later, (self._n - 1 - f.width) // self._depth)
        if steps > 0:
            self._size = f.width + steps * self._depth
            self._last = complex(c[-1])
            c[self._size:] = 0.0
            self._coeffs = c
        return f

    def update(self, a, c):
        """Carry the band through the step with pole a and coefficient c."""
        if self._coeffs is None:
            return
        b, d = self._size, _scan_depth(abs(a))
        # A field's width rarely changes from step to step, so a band
        # narrower than the last one is dropped rather than tried.
        if b - d < self._width:
            self._coeffs = None
            return
        n = self._n
        band = self._coeffs[:b]
        conj_a = np.conj(a)
        scale = c * n * np.sqrt(1.0 - abs(a) ** 2) / (1.0 - conj_a ** n)
        powers = np.full(d, conj_a)
        powers[0] = 1.0
        np.cumprod(powers, out=powers)
        band[:d] -= scale * powers
        last = self._last - scale * conj_a ** (n - 1)
        t = np.empty(b, dtype=np.complex128)
        np.multiply(band[:-1], conj_a, out=t[1:])
        t[0] = conj_a * last
        np.subtract(band, t, out=t)
        # Doubling scan: after the level with stride h, t[i] holds
        # sum_{k<2h} a^k T_{i+k}, valid for the first `valid` entries.
        valid, h, step = b, 1, a
        while h < d:
            np.multiply(t[h:valid], step, out=band[:valid - h])
            t[:valid - h] += band[:valid - h]
            valid -= h
            h *= 2
            step *= step
        self._last = complex(t[0])
        band[:valid - 1] = t[1:valid]
        band[valid - 1:] = 0.0
        self._size = valid - 1


def _scan_depth(r):
    """The first power of two d with r^d < 2^-64."""
    d = 1
    while r ** d >= 2.0 ** -64:
        d *= 2
    return d


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
        Maximum number of atoms, >= 1; an integer (any type with
        ``__index__``), so a float, a string or a bool raises TypeError.
    threshold : float, optional
        Relative-energy stopping level in (0, 1].
    engine : {"fft", "direct"}
        Field evaluator: one weighted inverse transform per radius, or the
        plain quadrature sums. Both select the same poles: maxima that tie
        mathematically, which roundoff splits differently in each engine,
        fall in the selection's tie band (see :func:`maximal_selection`).
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
    max_terms = _term_count(max_terms)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")

    from . import oracle  # runtime import: oracle uses this module's types

    # The remainder is reduced in place in one workspace, and the fft
    # engine's stream and band live for the whole call, so a step allocates
    # no signal-length buffer (but a DFT's, where no band fits) that the
    # allocator could hand back to the system and fault in again.
    remainder = g.copy()
    initial = _energy(remainder)
    if not np.isfinite(initial):
        raise ValueError("signal energy overflows a double")
    if initial == 0.0:
        if np.any(g):
            raise ValueError("signal energy underflows to 0 but samples are nonzero")
        return Decomposition((), grid, g.shape[0], 0.0, engine, remainder=remainder)
    if initial < np.finfo(np.float64).tiny:
        raise ValueError("signal energy %g underflows to a subnormal double; "
                         "scale the signal up" % initial)

    if engine == "fft":
        stream = transform.RowStream(grid.radii, g.shape[0])
        spectrum = _Spectrum(grid.radii, g.shape[0])
    scratch = np.empty_like(remainder)
    steps = []
    residual = initial
    for k in range(max_terms):
        if k == 0 and dc_first:
            point = ParameterPoint(0.0, 0, 0j)
            coeff = complex(np.mean(remainder))
        else:
            if engine == "fft":
                f = spectrum.field(stream, remainder, residual, max_terms - k - 1)
            else:
                f = oracle.field_direct(remainder, grid)
            point, coeff = maximal_selection(f, grid)
        _reduce(remainder, point.value, coeff, scratch)
        residual = _energy(remainder)
        steps.append(DecompositionStep(point, coeff, residual))
        if threshold is not None and residual <= threshold * initial:
            break
        if residual == 0.0:
            break
        if engine == "fft" and k + 1 < max_terms:
            spectrum.update(point.value, coeff)
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
    """Yield the partial sums S_1, S_2, ... over `steps` on n lattice points.

    The term c_k e_{a_k} B_{k-1} and the next Blaschke product B_k share one
    division, q = B_{k-1} / (1 - conj(a_k) z): S_k = S_{k-1} + c_k
    sqrt(1 - |a_k|^2) q and B_k = (z - a_k) q. Everything is computed in
    place in two work buffers besides the running sum, and every yield is
    that one running buffer, which the next step overwrites: a caller uses
    each yield before it asks for the next, or copies it.
    """
    z = _circle(n)
    total = np.zeros(n, dtype=np.complex128)
    prod = np.ones(n, dtype=np.complex128)
    q = np.empty(n, dtype=np.complex128)
    for step in steps:
        a = _pole_value(step.point)
        np.multiply(z, a.conjugate(), out=q)
        np.subtract(1.0, q, out=q)
        np.divide(prod, q, out=q)
        np.subtract(z, a, out=prod)
        prod *= q
        q *= step.coefficient * np.sqrt(1.0 - abs(a) ** 2)
        total += q
        yield total


def reconstruct(decomposition, n_terms):
    """Partial sum S_n over the first n recorded atoms.

    S_n[m] = sum_{k<=n} c_k B_k(z_m) with B_k the basis function for the pole
    prefix a_1..a_k; n = 0 gives the zero signal. `n_terms` must be an
    integer (any type with ``__index__``): a float, a string or a bool
    raises TypeError rather than being truncated. The result is a new array
    on every call; it holds the last running buffer of :func:`_partial_sums`.
    """
    steps = decomposition.steps
    n_terms = _term_count(n_terms)
    if not 0 <= n_terms <= len(steps):
        raise ValueError("term count %d outside 0..%d" % (n_terms, len(steps)))
    if n_terms == 0:
        return np.zeros(decomposition.n_samples, dtype=np.complex128)
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
    here instead of rebuilt per n, and ||G||^2 is computed once. Each
    partial sum is used before the next is asked for, as
    :func:`_partial_sums` requires.
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
