"""Benchmark harness tests.

Absolute wall times are never asserted. Slope fitting is validated on
synthetic reports with analytically known growth, and the runner itself only
on row bookkeeping.
"""

import numpy as np
import pytest

from fastafd import bench


def _synthetic_report(sizes, law):
    rows = []
    for n in sizes:
        for repeat in range(3):
            rows.append(bench.BenchRow("fft", n, 9, 10, repeat, law(n)))
    return bench.BenchReport(rows, {"cpu": "synthetic"})


def test_run_benchmark_row_bookkeeping():
    report = bench.run_benchmark([64, 128], terms=3, repeats=2)
    assert len(report.rows) == 2 * 2 * 2
    assert report.engines() == ["fft", "direct"]
    for row in report.rows:
        assert row.wall_seconds > 0.0
        assert row.terms == 3
        assert row.radius_count == 9
    medians = report.medians("fft")
    assert sorted(medians) == [64, 128]


def test_run_benchmark_validation():
    with pytest.raises(ValueError):
        bench.run_benchmark([48])
    with pytest.raises(ValueError):
        bench.run_benchmark([])
    with pytest.raises(ValueError):
        bench.run_benchmark([64], repeats=0)
    with pytest.raises(ValueError):
        bench.run_benchmark([64], engines=("warp",))


def test_fit_scaling_quadratic_law():
    report = _synthetic_report([256, 512, 1024, 2048], lambda n: 1e-9 * n * n)
    assert abs(bench.fit_scaling(report, "fft") - 2.0) < 1e-9


def test_fit_scaling_n_log_n_law():
    report = _synthetic_report([256, 512, 1024, 2048, 4096],
                               lambda n: 1e-9 * n * np.log2(n))
    slope = bench.fit_scaling(report, "fft")
    assert 1.0 < slope < 1.3


def test_fit_scaling_needs_three_sizes():
    report = _synthetic_report([256, 512], lambda n: float(n))
    with pytest.raises(ValueError):
        bench.fit_scaling(report, "fft")


def test_medians_over_noisy_repeats():
    rows = [bench.BenchRow("fft", 64, 9, 10, i, t)
            for i, t in enumerate([0.5, 0.1, 0.2])]
    report = bench.BenchReport(rows)
    assert report.medians("fft") == {64: 0.2}


def test_csv_roundtrip(tmp_path):
    report = bench.run_benchmark([64], terms=2, repeats=2)
    path = tmp_path / "rows.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == bench.CSV_HEADER
    assert len(lines) == 1 + len(report.rows)
    for line, row in zip(lines[1:], report.rows):
        assert float(line.split(",")[-1]) == row.wall_seconds


def test_summary_structure():
    report = _synthetic_report([256, 512, 1024], lambda n: 1e-6 * n)
    summary = report.summary()
    assert set(summary) == {"environment", "engines"}
    # Every number ships with the usable core count.
    assert bench._environment()["cores"] >= 1
    info = summary["engines"]["fft"]
    assert set(info["median_seconds"]) == {"256", "512", "1024"}
    assert info["slope"] is not None
    # Too few sizes for a fit turns into a null slope, not an error.
    short = _synthetic_report([256], lambda n: 1e-6 * n)
    assert short.summary()["engines"]["fft"]["slope"] is None
