"""Numbered acceptance criteria, one test and one printed line per criterion.

Run `pytest -s tests/test_acceptance.py` to watch the lines as they appear;
a summary section repeats them at the end of any full run. Reference
sequences for the two bundled signals are the published per-term relative
errors; all other expectations are closed forms or independent summation
oracles defined in this file.
"""

import time

import numpy as np
import pytest

from fastafd import bench, core, oracle, signals, transform

N_CASE = 1024

CASE1_TARGET = [1.0000, 0.5790, 0.2092, 0.0553, 0.0189,
                0.0052, 0.0017, 0.0005, 0.0002, 0.0002]
CASE2_TARGET = [1.0000, 0.1895, 0.1260, 0.0266, 0.0247,
                0.0199, 0.0183, 0.0129, 0.0120, 0.0106]


@pytest.fixture(scope="module")
def case1():
    g = signals.synth_f1(N_CASE)
    grid = core.ParameterGrid.experiment_default(N_CASE)
    d_fft = core.decompose(g, grid, max_terms=10, engine="fft", dc_first=True)
    d_direct = core.decompose(g, grid, max_terms=10, engine="direct",
                              dc_first=True)
    return {
        "g": g,
        "fft": d_fft,
        "direct": d_direct,
        "trace_fft": core.error_trace(d_fft, g),
        "trace_direct": core.error_trace(d_direct, g),
    }


@pytest.fixture(scope="module")
def case2():
    g = signals.synth_f2(N_CASE)
    grid = core.ParameterGrid.experiment_default(N_CASE)
    d = core.decompose(g, grid, max_terms=10, engine="fft", dc_first=True)
    return {"g": g, "d": d, "trace": core.error_trace(d, g)}


def test_criterion_1_field_engines_equivalent(criterion_report):
    started = time.perf_counter()
    worst = 0.0
    for n in (8, 64, 256, 1024):
        grid = core.ParameterGrid(core.radius_range(0.1, 0.1, 0.9), n)
        for seed in range(20):
            g = signals.synth_random_hardy(n, seed=seed)
            fast = core.inner_product_field(core.spectral_coefficients(g), grid)
            direct = oracle.field_direct(g, grid)
            worst = max(worst, float(np.max(np.abs(fast - direct)
                                            / np.abs(direct))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 30.0
    criterion_report(1, "fast and direct fields agree entrywise", ok,
                     "worst relative difference %.3g, %.1f s" % (worst, elapsed))


def test_criterion_2_energy_identity(criterion_report, case1):
    d = case1["fft"]
    e0 = d.initial_energy
    spent = 0.0
    worst = 0.0
    for step in d.steps:
        spent += abs(step.coefficient) ** 2
        worst = max(worst, abs((e0 - spent) - step.residual_energy))
    ok = worst < 1e-10 * e0
    criterion_report(2, "per-step energy bookkeeping is exact", ok,
                     "worst deviation %.3g of energy %.3g" % (worst, e0))


def test_criterion_3_rational_signal_error_sequence(criterion_report, case1):
    trace_fft = case1["trace_fft"]
    trace_direct = case1["trace_direct"]
    deviations = [abs(t - target) for t, target in zip(trace_fft, CASE1_TARGET)]
    ok = (len(trace_fft) == 10
          and all(dev < 5e-3 for dev in deviations[:9])
          and trace_fft[9] <= 2e-4
          and all(abs(a - b) < 1e-4
                  for a, b in zip(trace_fft, trace_direct)))
    criterion_report(3, "ten-term error sequence for the rational signal", ok,
                     "max deviation %.2e, final error %.2e"
                     % (max(deviations[:9]), trace_fft[9]))


def test_criterion_4_square_wave_error_sequence(criterion_report, case2):
    trace = case2["trace"]
    deviations = [abs(t - target) for t, target in zip(trace, CASE2_TARGET)]
    monotone = all(b <= a for a, b in zip(trace, trace[1:]))
    ok = len(trace) == 10 and all(dev < 0.02 for dev in deviations) and monotone
    criterion_report(4, "ten-term error sequence for the square wave", ok,
                     "max deviation %.2e, monotone %s"
                     % (max(deviations), monotone))


def test_criterion_5_engine_scaling(criterion_report):
    started = time.perf_counter()
    report = bench.run_benchmark([2 ** k for k in range(8, 14)],
                                 terms=10, repeats=3)
    elapsed = time.perf_counter() - started
    direct_slope = bench.fit_scaling(report, "direct")
    fft_slope = bench.fit_scaling(report, "fft")
    ratio = report.medians("direct")[4096] / report.medians("fft")[4096]
    ok = (direct_slope >= 1.8 and fft_slope <= 1.35 and ratio >= 5.0
          and elapsed < 300.0)
    criterion_report(5, "engines scale quadratically vs near-linearly", ok,
                     "slopes %.2f/%.2f, 4096 ratio %.1fx, %.0f s"
                     % (direct_slope, fft_slope, ratio, elapsed))


def test_criterion_6_single_atom_recovery(criterion_report):
    n = 256
    grid = core.ParameterGrid.experiment_default(n)
    target = grid.point(5, 17)  # radius 0.5, on the grid by construction
    g = core.kernel_samples(target, n)
    d = core.decompose(g, grid, max_terms=1)
    step = d.steps[0]
    ok = (step.point.radius == target.radius
          and step.point.angle_index == target.angle_index
          and step.point.value == target.value
          and step.residual_energy < 1e-10 * d.initial_energy)
    criterion_report(6, "a lone dictionary atom is recovered exactly", ok,
                     "picked r=%g j=%d, residual %.3g"
                     % (step.point.radius, step.point.angle_index,
                        step.residual_energy))


def test_criterion_7_reconstruction_identity(criterion_report, case1, case2):
    tested = [(case1["g"], case1["fft"]), (case1["g"], case1["direct"]),
              (case2["g"], case2["d"])]
    for n, seed in ((64, 2), (256, 5)):
        g = signals.synth_random_hardy(n, seed=seed)
        grid = core.ParameterGrid.experiment_default(n)
        tested.append((g, core.decompose(g, grid, max_terms=8)))
    worst = 0.0
    for g, d in tested:
        tail = d.remainder.copy()
        for step in d.steps:
            tail *= core.blaschke_samples(step.point, d.n_samples)
        gap = np.max(np.abs(g - core.reconstruct(d, len(d.steps)) - tail))
        worst = max(worst, float(gap))
    ok = worst < 1e-10
    criterion_report(7, "partial sum plus carried remainder restores G", ok,
                     "worst gap %.3g over %d decompositions"
                     % (worst, len(tested)))


def test_criterion_8_basis_orthonormality(criterion_report, case1):
    d = case1["fft"]
    poles = [step.point.value for step in d.steps]
    basis = [core.tm_basis_samples(poles[: k + 1], N_CASE)
             for k in range(len(poles))]
    gram = np.array([[oracle.quadrature_inner_product(bi, bj) for bj in basis]
                     for bi in basis])
    deviation = float(np.max(np.abs(gram - np.eye(len(poles)))))
    ok = deviation < 1e-9
    criterion_report(8, "selected basis functions are orthonormal", ok,
                     "Gram deviation %.3g for %d poles"
                     % (deviation, len(poles)))


def test_criterion_9_transform_unit_suite(criterion_report):
    rng = np.random.Generator(np.random.Philox(99))
    checks = []

    # Forward/inverse round trip at 1e-12 across sizes.
    for n in (8, 64, 512, 4096):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = transform.dft_inverse(transform.dft_forward(x))
        checks.append(np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x)))

    # Naive-DFT equivalence for N <= 64, twiddles from the (m*l mod N) table.
    for n in (8, 16, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        table = np.exp(-2j * np.pi
                       * (np.outer(np.arange(n), np.arange(n)) % n) / n)
        naive = table @ x
        checks.append(np.max(np.abs(transform.dft_forward(x) - naive))
                      < 1e-12 * np.max(np.abs(naive)))

    # Even/odd split identity of the weighted inverse for N <= 64.
    for n, r in ((8, 0.3), (64, 0.7)):
        c = transform.dft_forward(rng.standard_normal(n)
                                  + 1j * rng.standard_normal(n))
        half = n // 2
        m = np.arange(half)
        l = np.arange(half)
        stride_two = np.exp(2j * np.pi * 2.0 * np.outer(m, l) / n)
        even = stride_two @ (r ** (2 * l) * c[0::2])
        odd = stride_two @ (r ** (2 * l + 1) * c[1::2])
        recombine = np.exp(2j * np.pi * m / n) * odd
        scale = np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n))
        split = scale * np.concatenate([even + recombine, even - recombine])
        got = transform.weighted_inverse(c, r)
        checks.append(np.max(np.abs(got - split))
                      < 1e-12 * max(np.max(np.abs(split)), 1e-30))

    # Bit-reversal involution.
    for n in (2, 16, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        twice = transform.bit_reverse_permute(transform.bit_reverse_permute(x))
        checks.append(bool(np.array_equal(twice, x)))

    ok = all(checks)
    criterion_report(9, "transform unit suite", ok,
                     "%d of %d checks passed" % (sum(checks), len(checks)))
