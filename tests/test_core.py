"""Unit tests for the greedy decomposition building blocks.

Closed-form expectations are derived where used. One worth noting: the
discrete norm of the normalized kernel e_a picks up a lattice-aliasing term,
    <e_a, e_a> = 1 + 2 Re(conj(a)^N / (1 - conj(a)^N)),
which for real a = r collapses to (1 + r^N)/(1 - r^N). Tests that rely on
exact unit norms therefore use a = 0, where the kernel is the constant 1.
"""

import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fastafd import core, oracle, signals, transform


def _random_hardy(n, seed):
    return signals.synth_random_hardy(n, seed=seed)


def _grid(n, radii=(0.0, 0.3, 0.6)):
    return core.ParameterGrid(radii, n)


# ---------------------------------------------------------------------------
# grids and ranges


def test_radius_range_examples():
    assert core.radius_range(0.0, 0.1, 0.8) == tuple(k * 0.1 for k in range(9))
    assert core.radius_range(0.5, 0.2, 0.5) == (0.5,)
    # Endpoint included despite accumulated float error in the step.
    assert len(core.radius_range(0.1, 0.1, 0.9)) == 9


def test_radius_range_rejects():
    with pytest.raises(ValueError):
        core.radius_range(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        core.radius_range(0.5, 0.1, 0.2)


def test_grid_constructors():
    g = core.ParameterGrid.experiment_default(64)
    assert g.radii == core.radius_range(0.0, 0.1, 0.8)
    assert g.angular_count == 64
    p = g.point(3, 16)
    assert p.radius == g.radii[3]
    assert p.angle_index == 16
    assert abs(p.value - 0.3 * 1j) < 1e-15


def test_grid_validation():
    with pytest.raises(ValueError):
        core.ParameterGrid((0.5, 0.3), 64)
    with pytest.raises(ValueError):
        core.ParameterGrid((0.5, 1.0), 64)
    with pytest.raises(ValueError):
        core.ParameterGrid((), 64)
    with pytest.raises(ValueError):
        core.ParameterGrid((0.5,), 48)
    with pytest.warns(UserWarning):
        core.ParameterGrid((0.5, 0.97), 64)


def test_parameter_point_validation():
    with pytest.raises(ValueError):
        core.ParameterPoint(1.0, 0, 1.0 + 0j)
    with pytest.raises(ValueError):
        core.ParameterPoint(0.5, 0, 1.2 + 0j)


# ---------------------------------------------------------------------------
# energies, projection, sampled atoms


def test_discrete_energy_examples():
    n = 32
    assert core.discrete_energy(np.ones(n, dtype=np.complex128)) == 1.0
    z = np.exp(2j * np.pi * np.arange(n) / n)
    assert abs(core.discrete_energy(z) - 1.0) < 1e-15
    g = _random_hardy(n, seed=2)
    assert abs(core.discrete_energy(2.0 * g) - 4.0 * core.discrete_energy(g)) \
        < 1e-12 * core.discrete_energy(g)
    ip = oracle.quadrature_inner_product(g, g)
    assert abs(core.discrete_energy(g) - ip.real) < 1e-14 * abs(ip)


def test_analytic_projection_of_cosine():
    # cos t = (e^{it} + e^{-it})/2; folding the negative bin onto the
    # positive one gives exactly e^{it}.
    n = 64
    t = 2.0 * np.pi * np.arange(n) / n
    out = core.analytic_projection(np.cos(t))
    assert np.max(np.abs(out - np.exp(1j * t))) < 1e-12


@given(k=st.integers(min_value=3, max_value=9), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_analytic_projection_preserves_real_part(k, seed):
    n = 2 ** k
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal(n)
    out = core.analytic_projection(x)
    scale = max(np.max(np.abs(x)), 1.0)
    assert np.max(np.abs(out.real - x)) < 1e-11 * scale


def test_analytic_projection_rejects_complex_input():
    with pytest.raises(ValueError):
        core.analytic_projection(np.full(8, 1j))
    # A complex dtype carrying only real values is fine.
    out = core.analytic_projection(np.ones(8, dtype=np.complex128))
    assert np.max(np.abs(out - 1.0)) < 1e-14


def test_kernel_samples_at_origin_is_constant_one():
    assert np.array_equal(core.kernel_samples(0j, 16), np.ones(16))


def test_kernel_discrete_norm_closed_form():
    # (1 + r^N)/(1 - r^N) for a real pole; see the module docstring.
    n = 8
    r = 0.5
    e = core.kernel_samples(r + 0j, n)
    expected = (1.0 + r ** n) / (1.0 - r ** n)
    assert abs(core.discrete_energy(e) - expected) < 1e-13


@given(r=st.floats(0.0, 0.9), frac=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_blaschke_samples_unimodular(r, frac):
    a = r * np.exp(2j * np.pi * frac)
    b = core.blaschke_samples(a, 64)
    assert np.max(np.abs(np.abs(b) - 1.0)) < 1e-14


def test_blaschke_at_origin_is_identity_map():
    z = np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.max(np.abs(core.blaschke_samples(0j, 16) - z)) < 1e-15


def test_pole_outside_disc_rejected():
    for bad in (1.0 + 0j, 1.2j, -2.0 + 0j):
        with pytest.raises(ValueError):
            core.kernel_samples(bad, 16)
        with pytest.raises(ValueError):
            core.blaschke_samples(bad, 16)


def test_spectral_coefficients_match_forward_transform():
    g = _random_hardy(64, seed=9)
    assert np.array_equal(core.spectral_coefficients(g), transform.dft_forward(g))
    with pytest.raises(ValueError):
        core.spectral_coefficients(np.ones(12))


# ---------------------------------------------------------------------------
# field evaluation and selection


def test_field_matches_direct_oracle():
    n = 64
    grid = _grid(n)
    for seed in range(5):
        g = _random_hardy(n, seed=seed)
        fft_field = core.inner_product_field(core.spectral_coefficients(g), grid)
        direct = oracle.field_direct(g, grid)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fft_field - direct)) < 1e-10 * scale


def test_field_rejects_mismatched_grid():
    with pytest.raises(ValueError):
        core.inner_product_field(np.ones(32, dtype=np.complex128), _grid(64))


def test_maximal_selection_constant_signal_picks_origin():
    # For G = 1, |<G, e_a>| = sqrt(1-r^2)/(1-r^N) on every circle, strictly
    # decreasing in r, and radius 0 maps every angle to the same pole; the
    # deterministic tie-break must return angle index 0.
    n = 32
    grid = _grid(n)
    g = np.ones(n, dtype=np.complex128)
    field = core.inner_product_field(core.spectral_coefficients(g), grid)
    point, coeff = core.maximal_selection(field, grid)
    assert point.radius == 0.0
    assert point.angle_index == 0
    assert abs(coeff - 1.0) < 1e-13


def test_maximal_selection_tie_breaks_row_major():
    grid = _grid(8, radii=(0.0, 0.2, 0.4))
    field = np.zeros((3, 8), dtype=np.complex128)
    field[1, 3] = 2.0
    field[2, 0] = -2.0  # same squared magnitude, later row
    point, coeff = core.maximal_selection(field, grid)
    assert (point.radius, point.angle_index) == (0.2, 3)
    assert coeff == 2.0


def test_maximal_selection_rejects_bad_shape():
    with pytest.raises(ValueError):
        core.maximal_selection(np.zeros((2, 8)), _grid(8))


def test_maximal_selection_rejects_a_nan_beside_the_maximum():
    # A NaN gives its row no maximum; the row must not drop out of the
    # selection, leaving a pick of |f| = 1 where the field holds 100.
    field = np.ones((9, 16), dtype=np.complex128)
    field[3, 5], field[3, 6] = 100.0, np.nan
    with pytest.raises(ValueError, match="row 3"):
        core.maximal_selection(field, core.ParameterGrid.experiment_default(16))


def test_maximal_selection_rejects_an_all_nan_field():
    with pytest.raises(ValueError, match="row 0"):
        core.maximal_selection(np.full((9, 16), np.nan),
                               core.ParameterGrid.experiment_default(16))


def _full_pick(c, grid):
    return core.maximal_selection(core.inner_product_field(c, grid), grid)


def _energy(c):
    # The energy of the signal whose DFT is c, by Parseval.
    return float(np.vdot(c, c).real) / c.shape[0] ** 2


def _stream_field(c, grid):
    return transform.RowStream(grid.radii, grid.angular_count).rows(c, _energy(c))


# Largest relative distance allowed between a coefficient picked from a cut
# row and the full-width field's value at the same cell: the scale of
# cli.ERRORS_TOL, far above roundoff and the cut's 2^-60.
COEFF_TOL = 1e-10


def _assert_in_full_band(pick, c, grid):
    # The pick lies in the tie band of the full-width field of c, and its
    # coefficient is that field's value there, to COEFF_TOL.
    field = core.inner_product_field(c, grid)
    magnitude = field.real ** 2 + field.imag ** 2
    point, coeff = pick
    s = grid.radii.index(point.radius)
    assert magnitude[s, point.angle_index] >= (1.0 - core.TIE_BAND) * magnitude.max()
    value = field[s, point.angle_index]
    assert abs(coeff - value) <= COEFF_TOL * abs(value)


def _assert_same_pick(a, b):
    assert a[0] == b[0]
    # Bit-equal coefficients: compare the parts' bits, not their values.
    assert np.array_equal(np.array([a[1]]).view(np.uint64),
                          np.array([b[1]]).view(np.uint64))


@contextlib.contextmanager
def _spied_coefficients():
    """Collect (coefficients, energy, width) of every field decompose selects on.

    decompose hands the stream the coefficients its fields are built from:
    a forward DFT of the remainder, or the spectral band it carries from
    step to step, zero-padded, with the remainder's measured energy. A band
    whose field would read past it is not selected on; a DFT follows.
    """
    seen, made = [], {}
    rows, select = transform.RowStream.rows, core.maximal_selection

    def spy_rows(self, c, energy):
        field = rows(self, c, energy)
        made[id(field)] = (np.array(c), energy, field.width)
        return field

    def spy_select(field, grid):
        seen.append(made.pop(id(field)))
        return select(field, grid)

    transform.RowStream.rows, core.maximal_selection = spy_rows, spy_select
    try:
        yield seen
    finally:
        transform.RowStream.rows, core.maximal_selection = rows, select


def _assert_replayed_picks(d, seen, grid, dc_first):
    # Each field's coefficients, replayed through a fresh stream, give the
    # step's point and coefficient bit for bit; the pick lies in the tie
    # band of the full-width field of the same coefficients.
    adaptive = d.steps[1:] if dc_first else d.steps
    assert len(seen) == len(adaptive)
    stream = transform.RowStream(grid.radii, grid.angular_count)
    for (c, energy, _), step in zip(seen, adaptive):
        streamed = core.maximal_selection(stream.rows(c, energy), grid)
        _assert_same_pick(streamed, (step.point, step.coefficient))
        _assert_in_full_band(streamed, c, grid)


@pytest.mark.parametrize("kind", ["f1", "f2", "random"])
def test_streamed_selection_matches_full_field_every_step(kind, best_first_order):
    # The selection reads the standard grid's rows best bound first, so
    # picks cross rows and most steps skip most of them.
    n = 16384
    grid = core.ParameterGrid.experiment_default(n)
    g = {"f1": signals.synth_f1, "f2": signals.synth_f2,
         "random": lambda n: _random_hardy(n, seed=3)}[kind](n)
    c = core.spectral_coefficients(g)
    field = _FieldOnDemand(_stream_field(c, grid))
    pick = core.maximal_selection(field, grid)
    assert pick[0] == _full_pick(c, grid)[0]
    _assert_in_full_band(pick, c, grid)
    assert field.read == best_first_order(c, grid.radii)[:len(field.read)]
    with _spied_coefficients() as seen:
        d = core.decompose(g, grid, max_terms=10)
    assert len(d) == 10
    # The first field reads the DFT of the signal itself; a band follows.
    assert np.array_equal(seen[0][0], c)
    assert not seen[1][0][-1]
    _assert_replayed_picks(d, seen, grid, dc_first=False)


def test_streamed_selection_keeps_the_exact_tie_of_f2():
    # synth_f2 is odd, G(-z) = -G(z), so after the dc step and one more,
    # |f| at (0.8, 0) and (0.8, N/2) tie mathematically: they are the only
    # cells in the tie band, and the tie-break takes angle 0, the pole
    # sequence the README tables list.
    n = 1024
    grid = core.ParameterGrid.experiment_default(n)
    g = signals.synth_f2(n)
    d = core.decompose(g, grid, max_terms=3, dc_first=True)
    remainder = g
    for step in d.steps[:2]:
        remainder = core.remainder_update(remainder, step.point, step.coefficient)
    c = core.spectral_coefficients(remainder)
    field = core.inner_product_field(c, grid)
    magnitude = field.real ** 2 + field.imag ** 2
    band = np.argwhere(magnitude >= (1.0 - core.TIE_BAND) * magnitude.max())
    assert band.tolist() == [[8, 0], [8, n // 2]]
    streamed = core.maximal_selection(_stream_field(c, grid), grid)
    assert streamed[0] == _full_pick(c, grid)[0]
    _assert_in_full_band(streamed, c, grid)
    assert (streamed[0].radius, streamed[0].angle_index) == (0.8, 0)
    assert d.steps[2].point == streamed[0]


def test_streamed_selection_ties_break_row_major_across_rows():
    grid = _grid(8, radii=(0.0, 0.2, 0.4))
    rows = np.zeros((3, 8), dtype=np.complex128)
    # Equal maxima on two rows: the lower row wins.
    rows[0, 5] = 2.0
    rows[2, 2] = 2.0j
    point, coeff = core.maximal_selection(rows, grid)
    assert (point.radius, point.angle_index, coeff) == (0.0, 5, 2.0)
    # A strictly larger value on a later row wins.
    rows[2, 2] = 3.0j
    point, coeff = core.maximal_selection(rows, grid)
    assert (point.radius, point.angle_index, coeff) == (0.4, 2, 3.0j)
    # Equal maxima at two columns of one row: the smaller j wins.
    rows[1, 6] = 3.0
    rows[1, 4] = -3.0
    point, coeff = core.maximal_selection(rows, grid)
    assert (point.radius, point.angle_index, coeff) == (0.2, 4, -3.0)


class _FieldOnDemand:
    """A field with rows on demand that records which rows are read.

    The cells of row s are those of `rows`, for `rows` a field with rows on
    demand itself, whose `bounds` are then the default; otherwise they are
    the 8 cells of `rows[s]`.
    """

    def __init__(self, rows, bounds=None):
        self._rows, self.read = rows, []
        self.bounds = rows.bounds if bounds is None else bounds

    def cells(self, s, peak, band):
        self.read.append(s)
        if hasattr(self._rows, "cells"):
            return self._rows.cells(s, peak, band)
        return np.arange(8), self._rows[s]


def test_streamed_selection_reads_rows_in_decreasing_bound():
    # Rows of larger bound first, rows of equal bound in row order.
    grid = _grid(8, radii=(0.0, 0.2, 0.4, 0.6))
    rows = np.ones((4, 8), dtype=np.complex128)
    field = _FieldOnDemand(rows, [1.0, 3.0, 2.0, 3.0])
    core.maximal_selection(field, grid)
    assert field.read == [1, 3, 2, 0]


def test_streamed_selection_ties_break_row_major_in_any_order():
    # Equal maxima on rows 0 and 2, then on row 2 and at two angles of row 1:
    # in whatever order the bounds have the rows read, the smallest (s, j)
    # wins.
    grid = _grid(8, radii=(0.0, 0.2, 0.4))
    across = np.zeros((3, 8), dtype=np.complex128)
    across[0, 5] = 2.0
    across[2, 2] = 2.0j
    within = np.zeros((3, 8), dtype=np.complex128)
    within[2, 2] = 2.0j
    within[1, 6] = 2.0j
    within[1, 4] = -2.0
    for rows, pick in ((across, (0.0, 5, 2.0)), (within, (0.2, 4, -2.0))):
        for order in itertools.permutations(range(3)):
            bounds = [0.0] * 3
            for k, s in enumerate(order):
                bounds[s] = 8.0 - k  # above the maximum 4: every row is read
            field = _FieldOnDemand(rows, bounds)
            point, coeff = core.maximal_selection(field, grid)
            assert field.read == list(order)
            assert (point.radius, point.angle_index, coeff) == pick


def test_maximal_selection_accepts_rows_skipped_below_the_maximum():
    grid = _grid(8, radii=(0.0, 0.2, 0.4))
    rows = np.zeros((3, 8), dtype=np.complex128)
    rows[2, 2] = 2.0  # |f|^2 = 4
    field = _FieldOnDemand(rows, [3.9, 4.5, 5.0])
    point, coeff = core.maximal_selection(field, grid)
    assert field.read == [2, 1]
    assert (point.radius, point.angle_index, coeff) == (0.4, 2, 2.0)


def test_maximal_selection_reads_rows_down_to_the_tie_band():
    # A row whose bound reaches the band of the running maximum may hold a
    # tied cell, so it is read; a bound just below the band ends the reading.
    grid = _grid(8, radii=(0.0, 0.2, 0.4))
    rows = np.zeros((3, 8), dtype=np.complex128)
    rows[2, 1] = 2.0  # |f|^2 = 4
    edge = (1.0 - core.TIE_BAND) * 4.0
    field = _FieldOnDemand(rows, [np.nextafter(edge, 0.0), edge, 4.0])
    point, coeff = core.maximal_selection(field, grid)
    assert field.read == [2, 1]
    assert (point.radius, point.angle_index, coeff) == (0.4, 1, 2.0)


@pytest.mark.parametrize("bounds, shapes", [
    ([], [(8,)] * 3),                                  # no rows
    ([1.0] * 2, [(8,)] * 3),                           # too few rows
    ([1.0] * 4, [(8,)] * 3),                           # too many rows
    ([1.0] * 3, [(8,), (4,), (8,)]),                   # a row of the wrong length
    ([1.0] * 3, [(1, 8)] * 3),                         # (1, N) rows, once blocks
    ([1.0] * 3, [(2, 8), (8,), (8,)]),                 # a (2, N) row, once a block
], ids=["no-rows", "too-few-rows", "too-many-rows", "wrong-length", "one-by-n-row",
        "two-by-n-row"])
def test_maximal_selection_rejects_bad_row_stream(bounds, shapes):
    # Rows of ones, so |f|^2 = 1 on every row read, and every bound of 1
    # reaches the band: each row is read.
    rows = [np.ones(shape, dtype=np.complex128) for shape in shapes]
    with pytest.raises(ValueError):
        core.maximal_selection(_FieldOnDemand(rows, bounds), _grid(8))


class _AnyOrderGrid:
    """The polar grid without ParameterGrid's rule that radii increase."""

    point = core.ParameterGrid.point

    def __init__(self, radii, n):
        self.radii, self.angular_count = radii, n


def _real_coefficient(g):
    # The signal whose Taylor coefficients are the real parts of g's: its
    # field is symmetric under j <-> N - j, so its maxima tie in pairs.
    return (g + np.conj(g[(-np.arange(g.shape[0])) % g.shape[0]])) / 2


def _exactness_grid(kind, n):
    if kind == "standard":
        return core.ParameterGrid.experiment_default(n)
    if kind == "zero between":
        return _AnyOrderGrid((0.3, 0.0, 0.5, 0.8), n)
    if kind == "33 radii":
        return core.ParameterGrid(core.radius_range(0.0, 0.025, 0.8), n)
    with pytest.warns(UserWarning, match="exceeds"):
        return core.ParameterGrid(core.radius_range(0.0, 0.05, 0.95), n)


def _exactness_signal(kind, n, seed):
    if kind in ("f1", "f2"):
        return {"f1": signals.synth_f1, "f2": signals.synth_f2}[kind](n)
    g = signals.synth_random_hardy(n, degree=min(n // 4, 256), seed=seed)
    return _real_coefficient(g) if kind == "real coefficient" else g


# The phases of the two properties at N up to 65536: a failing example is
# reported as found, without the shrink phase, whose search over examples
# of that size has no bound on time or memory.
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


@pytest.mark.parametrize("n", [64, 1024, 16384, 65536])
@pytest.mark.parametrize("grid_kind", ["standard", "zero between", "33 radii",
                                       "near the circle"])
@settings(max_examples=2, deadline=None, phases=UNSHRUNK)
@given(kind=st.sampled_from(["random", "real coefficient", "f1", "f2"]),
       seed=st.integers(0, 2 ** 32 - 1), dc_first=st.booleans())
def test_skipping_selection_is_exact(n, grid_kind, kind, seed, dc_first):
    # The selection skips the rows whose bound lies below the band of the
    # running maximum; at every step its pick from the coefficients
    # decompose used must be the full field's, bit for bit.
    grid = _exactness_grid(grid_kind, n)
    g = _exactness_signal(kind, n, seed)
    with _spied_coefficients() as seen:
        d = core.decompose(g, grid, max_terms=10, dc_first=dc_first)
    _assert_replayed_picks(d, seen, grid, dc_first)
    if n <= 1024:
        # Each field reads, up to its width, the DFT of the remainder: bit
        # for bit where the step took a DFT, to BAND_TOL where it carried a
        # band.
        fields = iter(seen)
        scale = np.max(np.abs(transform.dft_forward(g)))
        remainder = g
        for k, step in enumerate(d.steps):
            if k > 0 or not dc_first:
                c, _, width = next(fields)
                exact = core.spectral_coefficients(remainder)
                assert np.max(np.abs(c[:width] - exact[:width])) <= BAND_TOL * scale
                if c[-1]:  # a DFT fills the buffer; a band leaves C[N-1] out
                    assert np.array_equal(c, exact)
            remainder = core.remainder_update(remainder, step.point, step.coefficient)


def _picks_corpus():
    # The scripts/picks.py corpus at N <= 4096, fft engine, and its random
    # signal at N = 65536 on the standard grid.
    grids = (core.radius_range(0.0, 0.1, 0.8), core.radius_range(0.0, 0.025, 0.8))
    for n in [2 ** k for k in range(3, 13)] + [65536]:
        g = signals.synth_random_hardy(n, degree=min(n // 4, 256), seed=7)
        cases = {"random": g} if n == 65536 else {
            "f1": signals.synth_f1(n), "f2": signals.synth_f2(n), "random": g,
            "real coefficient": _real_coefficient(g)}
        for name, signal in cases.items():
            for radii in grids[:1] if n == 65536 else grids:
                for dc_first in (True, False):
                    yield n, name, core.ParameterGrid(radii, n), signal, dc_first


def test_fft_picks_lie_in_the_full_field_tie_band():
    # Every fft pick of the corpus reaches the tie band of the full-width
    # field of the coefficients it was selected from, and its coefficient
    # is that field's value there, to COEFF_TOL.
    for n, name, grid, g, dc_first in _picks_corpus():
        with _spied_coefficients() as seen:
            d = core.decompose(g, grid, max_terms=10, dc_first=dc_first)
        adaptive = d.steps[1:] if dc_first else d.steps
        assert len(seen) == len(adaptive), (n, name)
        for (c, _, _), step in zip(seen, adaptive):
            _assert_in_full_band((step.point, step.coefficient), c, grid)


# Largest distance allowed between the spectral band a decomposition carries
# and the forward DFT of its time-domain remainder, relative to the input's
# largest DFT coefficient. Both carry the roundoff of every step at the
# input's scale, so a remainder that has fallen to that roundoff (f1 after
# about 60 steps) agrees only at that scale.
BAND_TOL = 1e-12


@pytest.mark.parametrize("terms", [10, 100])
@pytest.mark.parametrize("grid_kind", ["standard", "near the circle"])
@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(n=st.sampled_from([8192, 16384, 32768, 65536]),
       kind=st.sampled_from(["random", "real coefficient", "f1", "f2"]),
       seed=st.integers(0, 2 ** 32 - 1), dc_first=st.booleans())
def test_spectral_band_tracks_the_remainder(terms, grid_kind, n, kind, seed, dc_first):
    # Where a field reads them (l below its width), the coefficients
    # decompose passes to the stream stay within BAND_TOL of the DFT of the
    # remainder it carries in the time domain, and the energy it passes is
    # that remainder's.
    grid = _exactness_grid(grid_kind, n)
    g = _exactness_signal(kind, n, seed)
    with _spied_coefficients() as seen:
        d = core.decompose(g, grid, max_terms=terms, dc_first=dc_first)
    scale = np.max(np.abs(transform.dft_forward(g)))
    fields = iter(seen)
    remainder = g
    for k, step in enumerate(d.steps):
        if k > 0 or not dc_first:
            exact = transform.dft_forward(remainder)
            c, energy, width = next(fields)
            assert np.max(np.abs(c[:width] - exact[:width])) <= BAND_TOL * scale
            assert energy == core.discrete_energy(remainder)
        remainder = core.remainder_update(remainder, step.point, step.coefficient)


@pytest.mark.parametrize("n, transforms", [(1024, 3), (4096, 1), (65536, 1)])
def test_decompose_takes_one_forward_dft_at_the_top_size(monkeypatch, n, transforms):
    # A 10-term dc-first decompose evaluates 9 fields. Each reads 256
    # coefficients on the standard grid, and each step costs the band
    # D = 256 more. From N = 4096 on, one DFT of the remainder after the dc
    # step carries a band for all of them; at N = 1024 a band of N - 1
    # entries serves three fields.
    forward = transform.dft_forward
    calls = 0

    def counting(x):
        nonlocal calls
        calls += 1
        return forward(x)

    monkeypatch.setattr(transform, "dft_forward", counting)
    grid = core.ParameterGrid.experiment_default(n)
    core.decompose(signals.synth_random_hardy(n, degree=256, seed=7), grid,
                   max_terms=10, dc_first=True)
    assert calls == transforms


@pytest.mark.parametrize("n", [1024, 4096, 16384, 65536])
def test_decompose_skips_most_rows_at_the_top_size(monkeypatch, n):
    # Best bound first, the first row a step transforms usually holds the
    # maximum, and the bounds rule out the rest. A 10-term dc-first
    # decompose takes its first term without a field and then evaluates 9
    # fields of 8 nonzero radii, 72 rows in all: 9 transforms are one row a
    # field. f2 needs 8, since one of its maxima lies on the r = 0 row,
    # which is written without a transform.
    grid = core.ParameterGrid.experiment_default(n)
    forward, transform_row = transform.dft_forward, transform._transform
    forward_calls = transform_calls = 0

    def counting_forward(x):
        nonlocal forward_calls
        forward_calls += 1
        return forward(x)

    def counting(x, out, leaf, stages, scratch):
        nonlocal transform_calls
        transform_calls += 1
        return transform_row(x, out, leaf, stages, scratch)

    def weighted_calls():  # every transform that is not a dft_forward call
        return transform_calls - forward_calls

    monkeypatch.setattr(transform, "dft_forward", counting_forward)
    monkeypatch.setattr(transform, "_transform", counting)
    for g, most in ((signals.synth_f2(n), 9), (signals.synth_f1(n), 10),
                    (signals.synth_random_hardy(n, degree=min(n // 4, 256), seed=7), 10)):
        forward_calls = transform_calls = 0
        core.inner_product_field(core.spectral_coefficients(g), grid)
        assert weighted_calls() == 8  # the full field transforms every nonzero radius
        forward_calls = transform_calls = 0
        core.decompose(g, grid, max_terms=10, dc_first=True)
        assert 0 < weighted_calls() <= most


@pytest.mark.parametrize("radii", [core.radius_range(0.0, 0.1, 0.8),
                                   core.radius_range(0.0, 0.025, 0.8)])
def test_decompose_working_set_is_independent_of_grid_size(radii):
    # The fft engine reduces the field row by row, so a step holds a few
    # signal-length buffers and one row, not M x N field entries.
    n = 65536
    grid = core.ParameterGrid(radii, n)
    g = signals.synth_random_hardy(n, degree=256, seed=5)
    core.decompose(g, grid, max_terms=3)  # fill the plan and weight caches
    tracemalloc.start()
    try:
        core.decompose(g, grid, max_terms=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * np.dtype(np.complex128).itemsize


# ---------------------------------------------------------------------------
# remainder algebra


def test_remainder_update_kills_single_atom():
    n = 64
    a = 0.4 * np.exp(2j * np.pi * 5 / n)
    c = 1.7 - 0.3j
    g = c * core.kernel_samples(a, n)
    out = core.remainder_update(g, a, c)
    assert np.max(np.abs(out)) < 1e-12


def test_remainder_update_with_zero_coefficient_preserves_modulus():
    n = 64
    g = _random_hardy(n, seed=6)
    out = core.remainder_update(g, 0.3 + 0.2j, 0.0)
    assert np.max(np.abs(np.abs(out) - np.abs(g))) < 1e-12
    assert abs(core.discrete_energy(out) - core.discrete_energy(g)) \
        < 1e-12 * core.discrete_energy(g)


def test_remainder_update_mean_removal_energy_budget():
    # At a = 0 the kernel is exactly unit-norm on the lattice, so removing
    # the mean drops the energy by |mean|^2 exactly (up to roundoff).
    n = 64
    g = _random_hardy(n, seed=8)
    mean = complex(np.mean(g))
    out = core.remainder_update(g, 0j, mean)
    expected = core.discrete_energy(g) - abs(mean) ** 2
    assert abs(core.discrete_energy(out) - expected) < 1e-13 * core.discrete_energy(g)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_recovers_single_atom():
    n = 256
    grid = core.ParameterGrid.experiment_default(n)
    point = grid.point(5, 17)  # radius 0.5
    c = 2.5 * np.exp(0.3j)
    g = c * core.kernel_samples(point, n)
    d = core.decompose(g, grid, max_terms=1)
    step = d.steps[0]
    assert (step.point.radius, step.point.angle_index) == (0.5, 17)
    assert abs(step.coefficient - c) < 1e-12
    assert step.residual_energy < 1e-20 * d.initial_energy


def test_decompose_zero_signal_is_empty():
    n = 32
    d = core.decompose(np.zeros(n, dtype=np.complex128), _grid(n))
    assert len(d) == 0
    assert d.initial_energy == 0.0
    assert np.array_equal(d.remainder, np.zeros(n))


def test_decompose_constant_signal_stops_at_exact_zero():
    # One mean atom annihilates a constant; the loop must stop early even
    # with max_terms much larger.
    n = 32
    d = core.decompose(np.full(n, 2.0 + 1.0j), _grid(n), max_terms=5)
    assert len(d) == 1
    assert d.steps[0].point.value == 0j
    assert d.steps[0].residual_energy == 0.0


def test_decompose_threshold_stops_early():
    g = signals.synth_f1(1024)
    grid = core.ParameterGrid.experiment_default(1024)
    d = core.decompose(g, grid, max_terms=10, threshold=0.05)
    assert 0 < len(d) < 10
    energies = [s.residual_energy for s in d.steps]
    assert energies[-1] <= 0.05 * d.initial_energy
    if len(energies) > 1:
        assert energies[-2] > 0.05 * d.initial_energy


@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_energy_identity(seed):
    n = 128
    g = _random_hardy(n, seed=seed)
    grid = core.ParameterGrid.experiment_default(n)
    d = core.decompose(g, grid, max_terms=8)
    e0 = d.initial_energy
    spent = 0.0
    for step in d.steps:
        spent += abs(step.coefficient) ** 2
        assert abs((e0 - spent) - step.residual_energy) < 1e-10 * e0
    assert abs(core.discrete_energy(d.remainder) - d.steps[-1].residual_energy) \
        < 1e-12 * e0


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_decompose_engines_agree(seed):
    # Signals with complex random coefficients avoid the conjugate-symmetric
    # field ties a real-coefficient signal would produce.
    n = 128
    g = _random_hardy(n, seed=seed)
    grid = core.ParameterGrid.experiment_default(n)
    d_fft = core.decompose(g, grid, max_terms=6, engine="fft")
    d_direct = core.decompose(g, grid, max_terms=6, engine="direct")
    for s_f, s_d in zip(d_fft.steps, d_direct.steps):
        assert s_f.point.radius == s_d.point.radius
        assert s_f.point.angle_index == s_d.point.angle_index
        assert abs(s_f.coefficient - s_d.coefficient) < 1e-9 * abs(s_d.coefficient)
        assert abs(s_f.residual_energy - s_d.residual_energy) < 1e-9 * d_fft.initial_energy


def _odd(g):
    # G(z) - G(-z), halved: only odd powers remain, so |f| is symmetric
    # under a <-> -a, that is j <-> j + N/2.
    return (g - np.roll(g, -g.shape[0] // 2)) / 2


@settings(max_examples=40, deadline=None)
@given(k=st.integers(6, 10), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["real coefficient", "odd", "odd real coefficient"]),
       dc_first=st.booleans())
def test_engines_select_identical_poles_on_tied_maxima(k, seed, kind, dc_first):
    # Real Taylor coefficients (samples with G(conj z) = conj G(z)) tie the
    # field in mirror pairs j <-> N - j, odd signals in pairs j <-> j + N/2.
    # Roundoff splits such a tie differently in each engine; the tie band
    # makes both pick the smaller (s, j).
    n = 2 ** k
    grid = core.ParameterGrid.experiment_default(n)
    g = signals.synth_random_hardy(n, degree=min(n // 4, 256), seed=seed)
    if kind != "real coefficient":
        g = _odd(g)
    if kind != "odd":
        g = _real_coefficient(g)
    poles = [[(s.point.radius, s.point.angle_index) for s in
              core.decompose(g, grid, max_terms=10, engine=engine, dc_first=dc_first).steps]
             for engine in core.ENGINES]
    assert poles[0] == poles[1]


def test_decompose_residuals_non_increasing():
    for seed in range(4):
        g = _random_hardy(64, seed=seed)
        d = core.decompose(g, core.ParameterGrid.experiment_default(64), max_terms=6)
        energies = [d.initial_energy] + [s.residual_energy for s in d.steps]
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1.0 + 1e-12)


def test_decompose_dc_first_pins_mean_atom():
    n = 64
    g = _random_hardy(n, seed=5)
    grid = core.ParameterGrid.experiment_default(n)
    d = core.decompose(g, grid, max_terms=3, dc_first=True)
    first = d.steps[0]
    assert first.point.value == 0j
    assert first.point.radius == 0.0
    assert first.point.angle_index == 0
    assert abs(first.coefficient - np.mean(g)) < 1e-15 * abs(np.mean(g))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 137.0, 1e6])
def test_decompose_selection_is_scale_invariant(scale):
    n = 64
    g = _random_hardy(n, seed=13)
    grid = core.ParameterGrid.experiment_default(n)
    base = core.decompose(g, grid, max_terms=4)
    scaled = core.decompose(scale * g, grid, max_terms=4)
    for s_b, s_s in zip(base.steps, scaled.steps):
        assert s_b.point.value == s_s.point.value
        assert abs(s_s.coefficient - scale * s_b.coefficient) \
            < 1e-12 * scale * abs(s_b.coefficient)


def test_decompose_argument_validation():
    n = 32
    g = _random_hardy(n, seed=0)
    grid = _grid(n)
    with pytest.raises(ValueError):
        core.decompose(g, _grid(64))
    with pytest.raises(ValueError):
        core.decompose(g, grid, max_terms=0)
    with pytest.raises(ValueError):
        core.decompose(g, grid, engine="fastest")
    with pytest.raises(ValueError):
        core.decompose(g, grid, threshold=0.0)
    with pytest.raises(ValueError):
        core.decompose(g, grid, threshold=1.5)
    with pytest.raises(ValueError):
        core.decompose(np.full(n, np.nan + 0j), grid)


def test_decompose_rejects_energy_outside_double_range():
    g = signals.synth_f1(64)
    grid = core.ParameterGrid.experiment_default(64)
    # Samples near 1e160 square past the largest double.
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="overflows"):
            core.decompose(1e160 * g, grid)
    # Samples near 1e-170 square to 0, yet the signal is not zero.
    with pytest.raises(ValueError, match="underflows"):
        core.decompose(1e-170 * g, grid)


def test_decompose_rejects_subnormal_energy():
    g = signals.synth_f1(64)
    grid = core.ParameterGrid.experiment_default(64)
    # Samples near 1e-160 square to a subnormal energy, near 1e-321, whose
    # few significant bits cannot carry the per-step energy bookkeeping.
    assert 0.0 < core.discrete_energy(1e-160 * g) < np.finfo(float).tiny
    with pytest.raises(ValueError, match="subnormal"):
        core.decompose(1e-160 * g, grid)
    # Near 1e-150 the energy is a normal double and selection is unchanged.
    small = core.decompose(1e-150 * g, grid)
    assert [s.point for s in small.steps] == \
        [s.point for s in core.decompose(g, grid).steps]
    assert len(core.decompose(np.zeros(64, dtype=np.complex128), grid)) == 0


# ---------------------------------------------------------------------------
# basis, reconstruction, errors


def test_tm_basis_first_function_is_kernel():
    a = 0.4 + 0.2j
    assert np.array_equal(core.tm_basis_samples([a], 32),
                          core.kernel_samples(a, 32))
    with pytest.raises(ValueError):
        core.tm_basis_samples([], 32)


def test_tm_basis_gram_matrix_near_identity():
    n = 256
    rng = np.random.Generator(np.random.Philox(21))
    poles = rng.uniform(0.0, 0.8, size=6) * np.exp(2j * np.pi * rng.uniform(size=6))
    basis = [core.tm_basis_samples(poles[: k + 1], n) for k in range(len(poles))]
    gram = np.array([[oracle.quadrature_inner_product(bi, bj) for bj in basis]
                     for bi in basis])
    assert np.max(np.abs(gram - np.eye(len(poles)))) < 1e-9


def test_reconstruct_zero_terms_is_zero_signal():
    g = _random_hardy(64, seed=1)
    d = core.decompose(g, core.ParameterGrid.experiment_default(64), max_terms=3)
    assert np.array_equal(core.reconstruct(d, 0), np.zeros(64))
    with pytest.raises(ValueError):
        core.reconstruct(d, len(d.steps) + 1)
    with pytest.raises(ValueError):
        core.reconstruct(d, -1)


def test_term_counts_must_be_integers():
    n = 64
    g = _random_hardy(n, seed=1)
    grid = core.ParameterGrid.experiment_default(n)
    d = core.decompose(g, grid, max_terms=3)
    # A float is not truncated and a string is not parsed.
    for bad in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            core.reconstruct(d, bad)
        with pytest.raises(TypeError):
            core.decompose(g, grid, max_terms=bad)
    # Integer types other than int still pass.
    assert np.array_equal(core.reconstruct(d, np.int64(2)), core.reconstruct(d, 2))
    assert core.decompose(g, grid, max_terms=np.int32(3)).steps == d.steps


def test_reconstruction_plus_remainder_restores_signal():
    # G = S_n + G_{n+1} prod_k B_{a_k} exactly, by construction of the
    # remainder recursion.
    n = 128
    g = _random_hardy(n, seed=17)
    grid = core.ParameterGrid.experiment_default(n)
    d = core.decompose(g, grid, max_terms=6)
    tail = d.remainder.copy()
    for step in d.steps:
        tail *= core.blaschke_samples(step.point, n)
    rebuilt = core.reconstruct(d, len(d.steps)) + tail
    assert np.max(np.abs(rebuilt - g)) < 1e-10 * np.max(np.abs(g))


def test_relative_error_trivial_cases():
    g = _random_hardy(32, seed=2)
    assert core.relative_error(g, g.copy()) == 0.0
    assert abs(core.relative_error(g, np.zeros(32)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        core.relative_error(np.zeros(32), g)
    with pytest.raises(ValueError):
        core.relative_error(g, _random_hardy(64, seed=2))


def test_error_trace_matches_reconstruct_loop():
    n = 128
    g = _random_hardy(n, seed=23)
    grid = core.ParameterGrid.experiment_default(n)
    d = core.decompose(g, grid, max_terms=6)
    trace = core.error_trace(d, g)
    assert len(trace) == len(d.steps)
    rebuilt = [core.relative_error(g, core.reconstruct(d, k))
               for k in range(1, len(d.steps) + 1)]
    assert trace == rebuilt
    with pytest.raises(ValueError):
        core.error_trace(d, _random_hardy(64, seed=23))
