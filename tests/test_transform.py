"""Transform tests against independent summation oracles.

The oracles below never touch the butterfly code path: the naive DFT builds
its twiddle matrix from an integer (m*l mod N) index table, the weighted-sum
oracle is the literal definition, and the split-halves oracle combines the
even/odd half-size sums through one explicit recombination layer. Expected
values frozen as closed forms are derived in the comments next to them.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fastafd import core, oracle, signals, transform


def _random_complex(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# oracles


def naive_dft(x):
    """Matrix DFT with twiddles indexed by the exact (m*l mod N) table."""
    n = x.shape[0]
    table = np.exp(-2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
    return table @ x


def naive_weighted(c, r):
    """Literal weighted sum sqrt(1-r^2)/(N(1-r^N)) sum_l r^l c_l e^{+i2pi m l/N}."""
    n = c.shape[0]
    l = np.arange(n)
    scale = np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n))
    out = np.empty(n, dtype=np.complex128)
    for m in range(n):
        out[m] = scale * np.sum(r ** l * c * np.exp(2j * np.pi * m * l / n))
    return out


def split_halves_weighted(c, r):
    """Weighted sum recombined from explicit even/odd half-size sums.

    With W = e^{-i2pi/N} and S_m = sum_l r^l c_l W^{-ml},
        S_m       = E_m + W^{-m} O_m
        S_{m+N/2} = E_m - W^{-m} O_m
    where E_m sums the even-index weighted coefficients over half the points
    and O_m the odd ones, both with stride-two twiddles W^{-2ml}.
    """
    n = c.shape[0]
    half = n // 2
    m = np.arange(half)
    l = np.arange(half)
    stride_two = np.exp(2j * np.pi * 2.0 * np.outer(m, l) / n)
    even = stride_two @ (r ** (2 * l) * c[0::2])
    odd = stride_two @ (r ** (2 * l + 1) * c[1::2])
    recombine = np.exp(2j * np.pi * m / n) * odd
    scale = np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n))
    out = np.empty(n, dtype=np.complex128)
    out[:half] = scale * (even + recombine)
    out[half:] = scale * (even - recombine)
    return out


# ---------------------------------------------------------------------------
# bit reversal


def test_bit_reversal_small_orders():
    # Hand-computed reversals of 1, 2, 3 bit indices.
    assert list(transform.bit_reverse_permute(np.arange(2))) == [0, 1]
    assert list(transform.bit_reverse_permute(np.arange(4))) == [0, 2, 1, 3]
    assert list(transform.bit_reverse_permute(np.arange(8))) == [0, 4, 2, 6, 1, 5, 3, 7]


@given(k=st.integers(min_value=1, max_value=9), seed=st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_bit_reversal_involution(k, seed):
    x = _random_complex(2 ** k, seed)
    twice = transform.bit_reverse_permute(transform.bit_reverse_permute(x))
    assert np.array_equal(twice, x)


def test_bit_reversal_rejects_bad_shapes():
    with pytest.raises(ValueError):
        transform.bit_reverse_permute(np.arange(3))
    with pytest.raises(ValueError):
        transform.bit_reverse_permute(np.arange(1))
    with pytest.raises(ValueError):
        transform.bit_reverse_permute(np.arange(8).reshape(2, 4))


# ---------------------------------------------------------------------------
# forward / inverse pair


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_forward_matches_naive_dft(n):
    x = _random_complex(n, seed=100 + n)
    expected = naive_dft(x)
    got = transform.dft_forward(x)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_forward_basis_vectors():
    # dft of the unit impulse at position m is the pure phase e^{-i2pi m l/N}.
    n = 16
    for m in range(n):
        x = np.zeros(n, dtype=np.complex128)
        x[m] = 1.0
        expected = np.exp(-2j * np.pi * m * np.arange(n) / n)
        assert np.max(np.abs(transform.dft_forward(x) - expected)) < 1e-13


@pytest.mark.parametrize("n", [2, 8, 64, 512, 4096])
def test_roundtrip_identity(n):
    x = _random_complex(n, seed=n)
    back = transform.dft_inverse(transform.dft_forward(x))
    assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x))


@given(k=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_parseval_identity(k, seed):
    x = _random_complex(2 ** k, seed)
    spectrum = transform.dft_forward(x)
    lhs = np.sum(np.abs(spectrum) ** 2)
    rhs = x.shape[0] * np.sum(np.abs(x) ** 2)
    assert abs(lhs - rhs) < 1e-12 * rhs


@given(k=st.integers(min_value=1, max_value=7), seed=st.integers(0, 2 ** 31),
       alpha_re=st.floats(-10, 10), alpha_im=st.floats(-10, 10))
@settings(max_examples=30, deadline=None)
def test_forward_linearity(k, seed, alpha_re, alpha_im):
    n = 2 ** k
    x = _random_complex(n, seed)
    y = _random_complex(n, seed + 1)
    alpha = complex(alpha_re, alpha_im)
    combined = transform.dft_forward(alpha * x + y)
    separate = alpha * transform.dft_forward(x) + transform.dft_forward(y)
    scale = max(np.max(np.abs(separate)), 1.0)
    assert np.max(np.abs(combined - separate)) < 1e-11 * scale


# ---------------------------------------------------------------------------
# weighted inverse


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9])
def test_weighted_matches_naive(n, r):
    c = transform.dft_forward(_random_complex(n, seed=7 * n))
    expected = naive_weighted(c, r)
    got = transform.weighted_inverse(c, r)
    scale = max(np.max(np.abs(expected)), 1e-30)
    assert np.max(np.abs(got - expected)) < 1e-12 * scale


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_weighted_split_halves_identity(n, r):
    c = transform.dft_forward(_random_complex(n, seed=11 * n))
    expected = split_halves_weighted(c, r)
    got = transform.weighted_inverse(c, r)
    scale = max(np.max(np.abs(expected)), 1e-30)
    assert np.max(np.abs(got - expected)) < 1e-12 * scale


def test_weighted_zero_radius_extracts_mean_bin():
    # Only r^0 survives, so every output entry is (1/N) c_0.
    c = transform.dft_forward(_random_complex(32, seed=5))
    out = transform.weighted_inverse(c, 0.0)
    expected = c[0] / 32.0
    assert np.max(np.abs(out - expected)) < 1e-14 * abs(expected)


def test_weighted_constant_signal_closed_form():
    # For G = 1 the sum collapses to the lattice-aliased geometric series:
    # every entry equals sqrt(1-r^2)/(1-r^N).
    n = 8
    r = 0.5
    c = transform.dft_forward(np.ones(n, dtype=np.complex128))
    expected = np.sqrt(1.0 - r * r) / (1.0 - r ** n)
    out = transform.weighted_inverse(c, r)
    assert np.max(np.abs(out - expected)) < 1e-14


@pytest.mark.parametrize("n, r, l", [
    *(pytest.param(16, 0.6, l, id=str(l)) for l in (0, 1, 5, 15)),
    pytest.param(16384, 0.8, 3000, id="16384-0.8-3000"),
])
def test_weighted_single_mode_closed_form(n, r, l):
    # G = z^l has c = N e_l, so out[m] = sqrt(1-r^2) r^l e^{+i2pi m l/N}/(1-r^N).
    # At l = 3000 the weight 0.8^l ~ 1e-291 is tiny but normal and must
    # survive the flush of underflowed weights; the bound is relative.
    c = np.zeros(n, dtype=np.complex128)
    c[l] = n
    expected = (np.sqrt(1.0 - r * r) * r ** l / (1.0 - r ** n)
                * np.exp(2j * np.pi * (np.arange(n) * l % n) / n))
    out = transform.weighted_inverse(c, r)
    assert np.max(np.abs(out - expected)) < 1e-13 * np.max(np.abs(expected))


def _assert_grid_rows_match_single_radius_calls(n, radii):
    # The batched pass must be arithmetic-identical per row, not just close.
    c = transform.dft_forward(_random_complex(n, seed=3))
    grid_rows = transform.weighted_inverse_grid(c, radii)
    assert grid_rows.shape == (len(radii), n)
    for i, r in enumerate(radii):
        assert np.array_equal(grid_rows[i], transform.weighted_inverse(c, r))


def test_grid_rows_match_single_radius_calls():
    _assert_grid_rows_match_single_radius_calls(64, (0.0, 0.25, 0.5, 0.8))


def _row_strides(radii, n):
    # (row, P) per nonzero-radius row; P = N / Q is the row's pruning stride.
    return [(s, n // row.shape[0])
            for s, row in enumerate(transform._grid_tables(radii, n).rows) if row is not None]


def test_grid_rows_match_single_radius_calls_across_blocks():
    # The r = 0 row is written in closed form, r = 0.1, 0.2 are pruned with
    # P = 32, r = 0.3 ... 0.5 with P = 16, and r = 0.6 ... 0.8 (P = 8 and 4,
    # below the leaf size) are not pruned.
    radii = tuple(k / 10 for k in range(9))
    assert _row_strides(radii, 16384) == [(1, 32), (2, 32), (3, 16), (4, 16), (5, 16),
                                           (6, 1), (7, 1), (8, 1)]
    _assert_grid_rows_match_single_radius_calls(16384, radii)


def test_grid_zero_radius_row_between_others():
    # The r = 0 row is written in closed form, c_0 / N, wherever it sits;
    # the rows around it still match single-radius calls bit for bit.
    n = 32
    c = transform.dft_forward(_random_complex(n, seed=6))
    rows = transform.weighted_inverse_grid(c, (0.3, 0.0, 0.5))
    assert _row_strides((0.3, 0.0, 0.5), n) == [(0, 1), (2, 1)]
    assert np.array_equal(rows[1], np.full(n, c[0] / n))
    assert np.array_equal(rows[0], transform.weighted_inverse(c, 0.3))
    assert np.array_equal(rows[2], transform.weighted_inverse(c, 0.5))


def _energy(c):
    # The energy of the signal whose DFT is c, by Parseval.
    return float(np.vdot(c, c).real) / c.shape[0] ** 2


def _cut_rows(stream, field, c):
    # Every row of the field as the selection's cut sees it, on the whole
    # lattice: an N-point transform of each row's cut prefix.
    n = c.shape[0]
    rows = np.full((len(field.cuts), n), c[0] / n)
    for s, q in enumerate(field.cuts):
        if stream._grid.rows[s] is not None:
            stream._sample(c, s, q, n, rows[s])
    return rows


def _roundoff(c, radii):
    # A transform's roundoff scale per row: log2(N) eps times the row's
    # triangle norm sum_l |w_l c_l| (Higham, ch. 24), times a safety of 8.
    n = c.shape[0]
    rows = transform._grid_tables(tuple(radii), n).rows
    norms = [abs(c[0] / n) if w is None else np.abs(w * c[:w.shape[0]]).sum() for w in rows]
    return 8 * np.log2(n) * np.finfo(np.float64).eps * np.array(norms)


@pytest.mark.parametrize("n, radii", [
    (32, (0.3, 0.0, 0.5)),                           # r = 0 between two rows
    (1024, tuple(k / 10 for k in range(9))),
    (16384, tuple(k / 10 for k in range(9))),        # pruned and unpruned rows
    (65536, tuple(k / 40 for k in range(33))),
])
def test_row_stream_matches_grid_rows(n, radii, best_first_order):
    # One stream serves field after field: each field's bounds put its rows
    # in the best-first order, and each row's cells, read in that order,
    # hold the full-width grid row's values at their angle indices, to the
    # cut and roundoff, the row's largest |f|^2 among them.
    stream = transform.RowStream(radii, n)
    for seed in (21, 22):
        c = transform.dft_forward(_random_complex(n, seed=seed))
        expected = transform.weighted_inverse_grid(c, radii)
        tol = 2.0 ** -60 * np.abs(expected).max() + _roundoff(c, radii)
        field = stream.rows(c, _energy(c))
        order = best_first_order(c, radii)
        assert sorted(range(len(radii)), key=lambda s: -field.bounds[s]) == order
        for s in order:
            j, cells = field.cells(s, -np.inf, core.TIE_BAND)
            assert j.shape == cells.shape and np.all(np.diff(j) > 0)
            assert np.max(np.abs(cells - expected[s, j])) <= tol[s]
            top = np.abs(expected[s]).max()
            assert np.abs(cells).max() >= top - 2 * tol[s]


def _row_maxima(c, radii):
    # Each row's max |f|^2, squared the way the selection step squares it.
    f = transform.weighted_inverse_grid(c, radii)
    return (f.real ** 2 + f.imag ** 2).max(axis=1)


def test_row_stream_computes_rows_on_demand(monkeypatch):
    # rows(c, energy) bounds every row and transforms none; each cells(s)
    # then samples row s alone, with one transform into the stream's
    # buffer. The bounds are floats, one a row, each at least the row's max
    # |f|^2; the r = 0 row's bound is its exact value, and its one cell,
    # angle 0, takes no transform.
    n = 16384
    radii = tuple(k / 10 for k in range(9))
    c = transform.dft_forward(_random_complex(n, seed=23))
    top = _row_maxima(c, radii)
    expected = transform.weighted_inverse_grid(c, radii)
    transform_row = transform._transform
    calls = []

    def counting(*args):
        calls.append(args)
        return transform_row(*args)

    monkeypatch.setattr(transform, "_transform", counting)
    field = transform.RowStream(radii, n).rows(c, _energy(c))
    assert calls == []
    assert [type(bound) for bound in field.bounds] == [float] * len(radii)
    assert all(bound >= t for bound, t in zip(field.bounds, top))
    assert field.bounds[0] == top[0]
    j, cells = field.cells(5, -np.inf, core.TIE_BAND)
    assert len(calls) == 1
    assert np.max(np.abs(cells - expected[5, j])) <= 1e-13 * np.abs(expected[5]).max()
    j, cells = field.cells(0, -np.inf, core.TIE_BAND)
    assert j.tolist() == [0] and cells[0] == expected[0, 0]
    assert len(calls) == 1


def _bound_test_coefficients(kind, n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "top mode":  # z^{N/2 - 1}, all of it in the tail from N = 256 on
        c = np.zeros(n, dtype=np.complex128)
        c[n // 2 - 1] = n * complex(*rng.standard_normal(2))
        return c
    if kind == "f2-like":  # the square wave, turned by a random lattice shift
        return transform.dft_forward(np.roll(signals.synth_f2(n), rng.integers(n)))
    c = transform.dft_forward(_random_complex(n, seed))
    return c.real + 0j if kind == "real coefficient" else c


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 12),
       radii=st.sampled_from([core.radius_range(0.0, 0.1, 0.8),
                              core.radius_range(0.0, 0.05, 0.95), (0.2, 0.5, 0.7, 0.85)]),
       kind=st.sampled_from(["random", "real coefficient", "f2-like", "top mode"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_row_bounds_hold_on_every_row(k, radii, kind, seed):
    # Each row's bound must reach the row's computed maximum |f|^2, wherever
    # on the lattice that maximum lies: on the full-width row, and on the
    # row cut as the selection reads it.
    n = 2 ** k
    c = _bound_test_coefficients(kind, n, seed)
    stream = transform.RowStream(radii, n)
    field = stream.rows(c, _energy(c))
    bounds = field.bounds
    cut = _cut_rows(stream, field, c)
    assert len(bounds) == len(radii)
    for top in (_row_maxima(c, radii), (cut.real ** 2 + cut.imag ** 2).max(axis=1)):
        assert all(bound >= t for bound, t in zip(bounds, top))


# The three input kinds of the cut and arc properties.
_PROPERTY_KINDS = ["random", "real coefficient", "top mode"]


def _property_grid(fine):
    return core.radius_range(0.0, 0.05, 0.95) if fine else core.radius_range(0.0, 0.1, 0.8)


@settings(max_examples=24, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(k=st.integers(3, 16), fine=st.booleans(), kind=st.sampled_from(_PROPERTY_KINDS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cut_rows_stay_within_the_cut_of_the_full_rows(k, fine, kind, seed):
    # Every row, cut where the field cuts it, lies within 2^-60 max |f| of
    # the full-width row on the whole lattice, plus the two transforms'
    # roundoff: the Parseval tail certifies what the cut leaves out.
    n = 2 ** k
    radii = _property_grid(fine)
    c = _bound_test_coefficients(kind, n, seed)
    stream = transform.RowStream(radii, n)
    field = stream.rows(c, _energy(c))
    full = transform.weighted_inverse_grid(c, radii)
    gap = np.abs(_cut_rows(stream, field, c) - full).max(axis=1)
    assert np.all(gap <= 2.0 ** -60 * np.abs(full).max() + _roundoff(c, radii))


@settings(max_examples=12, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(k=st.integers(13, 16), fine=st.booleans(), kind=st.sampled_from(_PROPERTY_KINDS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_arc_bounds_hold_on_every_cell(k, fine, kind, seed):
    # Each arc's bound reaches the |f|^2 of every lattice cell on it, the
    # cells computed as an N-point transform of the cut prefix.
    n = 2 ** k
    radii = _property_grid(fine)
    c = _bound_test_coefficients(kind, n, seed)
    stream = transform.RowStream(radii, n)
    field = stream.rows(c, _energy(c))
    cut = _cut_rows(stream, field, c)
    for s, q in enumerate(field.cuts):
        if stream._grid.rows[s] is None:
            continue
        _, _, reach, _ = stream._arcs(c, s, q)
        cells = (cut[s].real ** 2 + cut[s].imag ** 2).reshape(reach.shape[0], -1)
        assert np.all(cells <= reach[:, None])


def test_row_stream_domain_errors():
    with pytest.raises(ValueError):
        transform.RowStream((0.5,), 48)
    with pytest.raises(ValueError):
        transform.RowStream((), 64)
    with pytest.raises(ValueError):
        transform.RowStream((1.0,), 64)
    with pytest.raises(ValueError):
        transform.RowStream((0.5,), 64).rows(np.ones(32, dtype=np.complex128), 1.0)


def test_grid_tables_hold_no_subnormal_weights():
    # For r > 0.5 the running product r^l underflows into the subnormal
    # range long before l = N; such weights must be stored as exact zeros.
    n = 65536
    radii = tuple(k / 10 for k in range(9))
    grid = transform._grid_tables(radii, n)
    layout = _row_strides(radii, n)
    assert [s for s, _ in layout] == list(range(1, 9))  # r = 0 has no table
    assert all(p == 1 or p >= 16 for _, p in layout)
    tiny = np.finfo(np.float64).tiny
    for weights in list(grid.rows[1:]) + [grid.weights]:
        assert not np.any((weights > 0.0) & (weights < tiny))
        assert np.all(weights >= 0.0)


def test_cached_tables_are_read_only():
    # Cached tables are shared by every later caller, so each must refuse
    # writes; a view taken before its base was made read-only would not.
    n, radii = 8192, (0.0, 0.1, 0.8)
    assert _row_strides(radii, n) == [(1, 16), (2, 1)]  # one pruned row, one not
    rev, stages = transform._plan(n)
    grid = transform._grid_tables(radii, n)
    tables = [rev, *stages, transform._leaf(16, 1), transform._leaf(16, 16),
              grid.nonzero, grid.full, grid.weights, grid.degrees, grid.samples, grid.tails,
              *transform._refine_tables(4096, n, 256), transform._FIRST,
              core._circle(n), oracle._kernel_rows(radii, n)]
    for row, q in zip(grid.rows[1:], grid.full):
        # A row's weights are a view of the grid's one weight matrix.
        assert np.shares_memory(row, grid.weights)
        gather, leaf, stages = transform._sampler(int(q), n)
        tables += [row, gather, leaf, *stages]
    assert [table.flags.writeable for table in tables] == [False] * len(tables)


def _last_weight_index(r, n):
    # Largest l whose scaled weight r^l sqrt(1-r^2)/(N(1-r^N)) is normal.
    (row,) = transform._grid_tables((r,), n).rows
    return int(np.flatnonzero(row).max())


@pytest.mark.parametrize("r", [k / 10 for k in range(1, 9)])
def test_pruned_single_mode_closed_form(r):
    # G = z^l with l the last nonzero weight index of the row: the pruned
    # leaf must carry it exactly (P = 128, 128, 64, 64, 64, 32, 32, 16).
    n = 65536
    assert _row_strides((r,), n)[0][1] >= 16
    l = _last_weight_index(r, n)
    c = np.zeros(n, dtype=np.complex128)
    c[l] = n
    expected = (np.sqrt(1.0 - r * r) * r ** l / (1.0 - r ** n)
                * np.exp(2j * np.pi * (np.arange(n) * l % n) / n))
    out = transform.weighted_inverse(c, r)
    assert np.max(np.abs(out - expected)) < 1e-13 * np.max(np.abs(expected))
    # One index past the prefix the weight is an exact zero: so is the row.
    c[l], c[l + 1] = 0.0, n
    assert not np.any(transform.weighted_inverse(c, r))


def test_pruned_rows_match_direct_field():
    # At N = 8192 the rows r = 0.1 and 0.2 are pruned with P = 16.
    n = 8192
    radii = (0.1, 0.2)
    assert _row_strides(radii, n) == [(0, 16), (1, 16)]
    g = _random_complex(n, seed=12)
    fast = transform.weighted_inverse_grid(transform.dft_forward(g), radii)
    direct = oracle.field_direct(g, core.ParameterGrid(radii, n))
    assert np.max(np.abs(fast - direct)) < 1e-12 * np.max(np.abs(direct))
    assert np.argmax(np.abs(fast)) == np.argmax(np.abs(direct))


@pytest.mark.parametrize("n, p", [(64, 1), (65536, 1), (65536, 16), (65536, 128),
                                  (8192, 512)])
def test_leaf_tiles_match_one_product(n, p):
    # The leaf runs as BLAS tiles of at most 2048 outputs; together they must
    # give each row's one (Q/16, 16) x (16, 16 P) product.
    q = n // p
    leaf = transform._leaf(16, p)
    for seed in (13, 14):
        x = _random_complex(q, seed=seed)
        expected = (x.reshape(-1, 16) @ leaf).reshape(n)
        out = np.empty(n, dtype=np.complex128)
        transform._transform(x, out, leaf, (), np.empty(n, dtype=np.complex128))
        assert np.max(np.abs(out - expected)) < 1e-14 * np.max(np.abs(expected))


def test_pruned_row_flushes_subnormal_weighted_coefficients():
    # A normal weight times a small coefficient can be subnormal. Such a
    # product is set to zero before the pruned leaf, so the row is
    # bit-identical to the row with that coefficient zeroed; left in, its
    # ~1e-316 would move outputs of ~1e-304 by far more than an ulp.
    n, r = 8192, 0.1
    l = _last_weight_index(r, n)
    c = np.zeros(n, dtype=np.complex128)
    c[l] = n
    zeroed = transform.weighted_inverse(c, r)
    c[l - 1] = 1e-10 + 1e-10j
    assert np.array_equal(transform.weighted_inverse(c, r), zeroed)
    assert np.any(zeroed)


def test_weighted_domain_errors():
    c = transform.dft_forward(_random_complex(16, seed=1))
    with pytest.raises(ValueError):
        transform.weighted_inverse(c, 1.0)
    with pytest.raises(ValueError):
        transform.weighted_inverse(c, -0.1)
    with pytest.raises(ValueError):
        transform.weighted_inverse_grid(c, ())
    with pytest.raises(ValueError):
        transform.weighted_inverse(np.arange(3, dtype=np.complex128), 0.5)
