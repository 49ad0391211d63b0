"""Bundled test signals and CSV signal files.

Two fixed evaluation signals (a rational function already analytic in the
disc, and a square wave pushed through the analytic projection), a seeded
random generator for property tests, and the three-column CSV format used
by the command line.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import core

__all__ = [
    "synth_f1",
    "synth_f2",
    "synth_random_hardy",
    "save_signal_csv",
    "load_signal_csv",
]

CSV_HEADER = "index,real,imag"
_CSV_ROW = np.dtype([("i", np.int64), ("re", np.float64), ("im", np.float64)])


def _sample_times(n):
    n = core._signal_length(int(n))
    return 2.0 * np.pi * np.arange(n) / n


def synth_f1(n):
    """Rational evaluation signal (0.0247 e^{3it} + 0.355 e^{2it}) / (1 - 0.3679 e^{it}).

    The denominator zero sits at |z| ~ 2.72, outside the closed disc, so the
    samples are those of a function analytic through the boundary; its
    spectrum decays like 0.3679^l and carries no negative-frequency energy.
    Constants are fixed as written (0.3679 is not rounded-from-1/e here,
    it is the definition).
    """
    t = _sample_times(n)
    return (0.0247 * np.exp(3j * t) + 0.355 * np.exp(2j * t)) \
        / (1.0 - 0.3679 * np.exp(1j * t))


def synth_f2(n):
    """Square wave sgn(sin t) mapped into the disc by the analytic projection.

    The sign convention puts exact zeros at t = 0 and t = pi; those two
    lattice points are forced explicitly because sin(pi) evaluates to ~1e-16
    rather than 0 in floating point.
    """
    t = _sample_times(n)
    step = np.sign(np.sin(t))
    step[0] = 0.0
    step[t.shape[0] // 2] = 0.0
    return core.analytic_projection(step)


def synth_random_hardy(n, degree=None, seed=0):
    """Random analytic polynomial sum_{l<=d} g_l z^l sampled on the circle.

    Coefficients are independent complex Gaussians from a counter-based
    Philox stream, so a fixed seed always reproduces the same signal.

    Parameters
    ----------
    n : int
        Sample count, power of two >= 8.
    degree : int, optional
        Top polynomial degree d; must satisfy d < n/2. Defaults to n // 4.
    seed : int
        Stream seed.
    """
    n = core._signal_length(int(n))
    if degree is None:
        degree = n // 4
    degree = int(degree)
    if not 0 <= degree < n // 2:
        raise ValueError("degree must satisfy 0 <= d < n/2, got %d" % degree)
    rng = np.random.Generator(np.random.Philox(seed))
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return npoly.polyval(core._circle(n), coeffs)


def save_signal_csv(path, g):
    """Write samples as `index,real,imag` rows, LF endings, 17 significant digits."""
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim != 1:
        raise ValueError("signal must be 1-d")
    n = g.shape[0]
    # One format over the whole body; Python floats print as numpy's do.
    body = ("%d,%.17g,%.17g\n" * n) % tuple(
        itertools.chain.from_iterable(zip(range(n), g.real.tolist(), g.imag.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n" + body)


def load_signal_csv(path):
    """Read a signal written by save_signal_csv, validating shape and finiteness.

    The body holds three comma-separated columns per row, an integer index
    equal to the row number, and blank lines, which are skipped. `#` has no
    special meaning, so a comment row is a malformed row. The body is parsed
    as it stands first; one that parse rejects, such as a body with a
    whitespace-only line or none at all, is read again with such lines
    skipped, and that reading reports any error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != CSV_HEADER:
        raise ValueError("bad signal header %r in %s" % (header, path))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty body warns
            table = np.loadtxt(path, dtype=_CSV_ROW, delimiter=",", comments=None,
                               skiprows=1, ndmin=1, encoding="utf-8")
    except (ValueError, UserWarning):
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            table = _read_rows(fh, path)
    n = core._signal_length(table.shape[0])
    if not np.array_equal(table["i"], np.arange(n)):
        raise ValueError("index column out of order in %s" % path)
    # Columns go in separately: re + 1j * im would turn -0.0 into +0.0.
    g = np.empty(n, dtype=np.complex128)
    g.real = table["re"]
    g.imag = table["im"]
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite samples in %s" % path)
    return g


def _read_rows(fh, path):
    """The rows of the body of `fh`, whitespace-only lines skipped."""
    lines = (line for line in fh if not line.isspace())
    first = next(lines, None)
    if first is None:
        raise ValueError("no samples in %s" % path)
    try:
        return np.loadtxt(itertools.chain([first], lines), dtype=_CSV_ROW,
                          delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError("malformed rows in %s: %s" % (path, exc)) from None
