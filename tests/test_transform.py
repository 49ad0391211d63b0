"""Transform tests against independent summation oracles.

The oracles below never touch the butterfly code path: the naive DFT builds
its twiddle matrix from an integer (m*l mod N) index table, the weighted-sum
oracle is the literal definition, and the split-halves oracle combines the
even/odd half-size sums through one explicit recombination layer. Expected
values frozen as closed forms are derived in the comments next to them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastafd import core, oracle, transform


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
    return [(s, n // row.gather.shape[0])
            for s, row in enumerate(transform._radius_tables(radii, n)) if row is not None]


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


@pytest.mark.parametrize("n, radii", [
    (32, (0.3, 0.0, 0.5)),                           # r = 0 between two rows
    (1024, tuple(k / 10 for k in range(9))),
    (16384, tuple(k / 10 for k in range(9))),        # pruned and unpruned rows
    (65536, tuple(k / 40 for k in range(33))),
])
def test_block_stream_matches_grid_rows(n, radii):
    # One stream serves field after field: each field's rows come last row
    # first, and stacked back in row order they are bit-identical to the
    # (M, N) grid of the same coefficients.
    stream = transform.BlockStream(radii, n)
    for seed in (21, 22):
        c = transform.dft_forward(_random_complex(n, seed=seed))
        expected = transform.weighted_inverse_grid(c, radii)
        starts, rows = [], []
        for start, block in stream.blocks(c):
            starts.append(start)
            rows.append(block.copy())
        assert starts == sorted(set(starts), reverse=True)
        assert np.array_equal(np.concatenate(rows[::-1]), expected)


def test_block_stream_skips_runs_whose_bound_is_below_the_floor():
    # Sent an infinite floor, the stream transforms its first row and then
    # skips every other, each with a bound on its |f|^2; the r = 0 row's
    # bound is its exact value. Sent no floor, it skips nothing.
    n = 16384
    radii = tuple(k / 10 for k in range(9))
    c = transform.dft_forward(_random_complex(n, seed=23))
    top = (np.abs(transform.weighted_inverse_grid(c, radii)) ** 2).max(axis=1)
    stream = transform.BlockStream(radii, n)
    blocks = stream.blocks(c)
    start, rows = next(blocks)
    assert (start, rows.shape[0]) == (8, 1)
    skipped = [blocks.send(np.inf) for _ in range(8)]
    with pytest.raises(StopIteration):
        blocks.send(np.inf)
    assert [(s.start, s.stop) for s in skipped] == [(s, s + 1) for s in range(7, -1, -1)]
    for s in skipped:
        assert s.bound >= top[s.start]
    assert skipped[-1].bound == top[0]
    assert all(not isinstance(b, transform.SkippedRows) for b in stream.blocks(c))


def test_block_stream_domain_errors():
    with pytest.raises(ValueError):
        transform.BlockStream((0.5,), 48)
    with pytest.raises(ValueError):
        transform.BlockStream((), 64)
    with pytest.raises(ValueError):
        transform.BlockStream((1.0,), 64)
    with pytest.raises(ValueError):
        transform.BlockStream((0.5,), 64).blocks(np.ones(32, dtype=np.complex128))


def test_radius_tables_hold_no_subnormal_weights():
    # For r > 0.5 the running product r^l underflows into the subnormal
    # range long before l = N; such weights must be stored as exact zeros.
    n = 65536
    radii = tuple(k / 10 for k in range(9))
    tables = transform._radius_tables(radii, n)
    layout = _row_strides(radii, n)
    assert [s for s, _ in layout] == list(range(1, 9))  # r = 0 has no table
    assert all(p == 1 or p >= 16 for _, p in layout)
    tiny = np.finfo(np.float64).tiny
    for row in tables[1:]:
        assert not np.any((row.weights > 0.0) & (row.weights < tiny))
        assert np.all(row.weights >= 0.0)


def _last_weight_index(r, n):
    # Largest l whose scaled weight r^l sqrt(1-r^2)/(N(1-r^N)) is normal.
    (row,) = transform._radius_tables((r,), n)
    return int(row.gather[np.flatnonzero(row.weights)].max())


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
    # The leaf runs as BLAS tiles of at most 2048 outputs; the tiles of two
    # rows together must give each row's one (Q/16, 16) x (16, 16 P) product.
    q = n // p
    leaf = transform._plan(n).inverse[0] if p == 1 else transform._pruned_leaf(p)
    x = np.stack([_random_complex(q, seed=13), _random_complex(q, seed=14)])
    expected = np.stack([(row.reshape(-1, 16) @ leaf).reshape(n) for row in x])
    out = np.empty((2, n), dtype=np.complex128)
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
