"""Tests for the bundled generators and the CSV signal format."""

import numpy as np
import pytest

from fastafd import core, signals, transform


def test_f1_boundary_values():
    # Evaluate the defining expression at two lattice points by hand:
    # t = 0 and t = pi, where the exponentials collapse to +-1.
    g = signals.synth_f1(1024)
    at_zero = (0.0247 + 0.355) / (1.0 - 0.3679)
    at_pi = (-0.0247 + 0.355) / (1.0 + 0.3679)
    assert abs(g[0] - at_zero) < 1e-15 * abs(at_zero)
    assert abs(g[512] - at_pi) < 1e-15 * abs(at_pi)


def test_f1_has_no_negative_frequency_energy():
    # The rational form is analytic through the boundary; sampled negative
    # bins carry only the r^l tail aliased from far positive frequencies.
    for n in (64, 1024):
        spectrum = transform.dft_forward(signals.synth_f1(n))
        upper = np.sum(np.abs(spectrum[n // 2 + 1:]) ** 2)
        total = np.sum(np.abs(spectrum) ** 2)
        assert upper < 1e-20 * total


def test_f1_is_zero_mean():
    # Lowest frequency present in the expansion is e^{2it}.
    spectrum = transform.dft_forward(signals.synth_f1(256))
    assert abs(spectrum[0]) < 1e-12 * np.max(np.abs(spectrum))
    assert abs(spectrum[1]) < 1e-12 * np.max(np.abs(spectrum))


def test_f2_real_part_is_square_wave():
    n = 256
    g = signals.synth_f2(n)
    t = 2.0 * np.pi * np.arange(n) / n
    step = np.sign(np.sin(t))
    step[0] = 0.0
    step[n // 2] = 0.0
    assert np.max(np.abs(g.real - step)) < 1e-12
    assert np.max(np.abs(g.imag)) > 0.1  # the conjugate part is not trivial


def test_f2_is_zero_mean_and_one_sided():
    n = 256
    spectrum = transform.dft_forward(signals.synth_f2(n))
    scale = np.max(np.abs(spectrum))
    assert abs(spectrum[0]) < 1e-12 * scale
    assert np.max(np.abs(spectrum[n // 2 + 1:])) < 1e-12 * scale


def test_random_hardy_is_deterministic_per_seed():
    a = signals.synth_random_hardy(64, seed=5)
    b = signals.synth_random_hardy(64, seed=5)
    c = signals.synth_random_hardy(64, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_hardy_degree_bounds_spectrum():
    n = 64
    degree = 5
    g = signals.synth_random_hardy(n, degree=degree, seed=1)
    spectrum = transform.dft_forward(g)
    scale = np.max(np.abs(spectrum))
    assert np.max(np.abs(spectrum[degree + 1:])) < 1e-12 * scale
    assert core.discrete_energy(g) > 0


def test_random_hardy_validation():
    with pytest.raises(ValueError):
        signals.synth_random_hardy(48)
    with pytest.raises(ValueError):
        signals.synth_random_hardy(64, degree=32)
    with pytest.raises(ValueError):
        signals.synth_random_hardy(64, degree=-1)
    # Default degree n//4 stays in bounds.
    g = signals.synth_random_hardy(64)
    assert np.max(np.abs(transform.dft_forward(g)[17:])) \
        < 1e-12 * core.discrete_energy(g) ** 0.5 * 64


@pytest.mark.parametrize("generate", [signals.synth_f1, signals.synth_f2],
                         ids=["f1", "f2"])
@pytest.mark.parametrize("n", [4, 100])
def test_generators_reject_bad_sample_counts(generate, n):
    with pytest.raises(ValueError, match="sample count must be a power of two >= 8"):
        generate(n)


def test_csv_roundtrip_is_bitwise_exact(tmp_path):
    path = tmp_path / "sig.csv"
    g = signals.synth_random_hardy(128, seed=2) * 1e-7
    signals.save_signal_csv(path, g)
    assert np.array_equal(signals.load_signal_csv(path), g)


def test_csv_uses_lf_line_endings(tmp_path):
    path = tmp_path / "sig.csv"
    signals.save_signal_csv(path, np.ones(8, dtype=np.complex128))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"index,real,imag\n")
    assert raw.endswith(b"\n")


def test_csv_load_rejects_malformed_files(tmp_path):
    g = signals.synth_random_hardy(16, seed=0)
    good = tmp_path / "good.csv"
    signals.save_signal_csv(good, g)
    lines = good.read_text().splitlines()

    bad_header = tmp_path / "header.csv"
    bad_header.write_text("\n".join(["i,re,im"] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        signals.load_signal_csv(bad_header)

    bad_count = tmp_path / "count.csv"
    bad_count.write_text("\n".join(lines[:-1]) + "\n")  # 15 rows
    with pytest.raises(ValueError):
        signals.load_signal_csv(bad_count)

    bad_order = tmp_path / "order.csv"
    swapped = [lines[0]] + [lines[2], lines[1]] + lines[3:]
    bad_order.write_text("\n".join(swapped) + "\n")
    with pytest.raises(ValueError):
        signals.load_signal_csv(bad_order)

    bad_value = tmp_path / "nan.csv"
    rows = lines[:]
    rows[3] = "2,nan,0"
    bad_value.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        signals.load_signal_csv(bad_value)

    bad_shape = tmp_path / "cols.csv"
    rows = lines[:]
    rows[4] = "3,0.5"
    bad_shape.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        signals.load_signal_csv(bad_shape)

    # The format has no comments: a '#' row is malformed, not skipped.
    comment = tmp_path / "comment.csv"
    rows = lines[:]
    rows.insert(5, "# 4,0.5,0.5")
    comment.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        signals.load_signal_csv(comment)

    # The index column is an integer; "1.0" is rejected, not rounded.
    float_index = tmp_path / "float_index.csv"
    rows = lines[:]
    rows[2] = "1.0" + rows[2][1:]
    float_index.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="float_index.csv"):
        signals.load_signal_csv(float_index)


def test_csv_load_skips_blank_lines_and_keeps_signed_zeros(tmp_path):
    path = tmp_path / "sig.csv"
    g = signals.synth_random_hardy(8, seed=4)
    g[3] = complex(-0.0, -0.0)
    signals.save_signal_csv(path, g)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", "   "] + lines[3:]) + "\n\n")
    loaded = signals.load_signal_csv(path)
    assert np.array_equal(loaded, g)
    assert np.signbit(loaded[3].real) and np.signbit(loaded[3].imag)


def test_csv_load_header_only_reports_no_samples(tmp_path, recwarn):
    path = tmp_path / "empty.csv"
    path.write_text(signals.CSV_HEADER + "\n\n")
    with pytest.raises(ValueError, match="no samples"):
        signals.load_signal_csv(path)
    assert len(recwarn) == 0


def test_csv_load_whitespace_only_line_changes_nothing(tmp_path):
    # A whitespace-only line sends the reader to its second pass; the array
    # is the one the same file gives without that line.
    g = signals.synth_random_hardy(64, seed=5)
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    signals.save_signal_csv(plain, g)
    lines = plain.read_text().splitlines()
    spaced.write_text("\n".join(lines[:10] + [" \t "] + lines[10:]) + "\n")
    expected = signals.load_signal_csv(plain)
    loaded = signals.load_signal_csv(spaced)
    assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))


def _save_per_line(path, g):
    # The writer as it was: one format per sample over numpy scalars.
    g = np.asarray(g, dtype=np.complex128)
    lines = [signals.CSV_HEADER]
    for m, v in enumerate(g):
        lines.append("%d,%.17g,%.17g" % (m, v.real, v.imag))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def test_csv_save_matches_the_per_line_writer_byte_for_byte(tmp_path):
    tiny = np.finfo(np.float64).tiny
    special = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                        complex(tiny / 8, -tiny / 3), complex(5e-324, -5e-324),
                        complex(1e308, -1e308), complex(-1.7976931348623157e308, 1e-308),
                        complex(0.1, 1.0 / 3.0)])
    for g in (special, signals.synth_random_hardy(1024, seed=9), special[:0]):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        signals.save_signal_csv(fast, g)
        _save_per_line(slow, g)
        assert fast.read_bytes() == slow.read_bytes()
