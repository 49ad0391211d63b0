"""Shared test plumbing.

The acceptance module reports one line per numbered criterion; the terminal
summary hook below replays those lines at the end of the run so they stay
visible under default output capturing. The `best_first_order` fixture
recomputes, from the definitions, the order in which the selection reads
the rows of a row stream's field.
"""

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion_report():
    """Record and assert one pass/fail line for a numbered criterion."""

    def report(number, label, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = "[criterion %d] %s: %s" % (number, status, label)
        if detail:
            line += " (%s)" % detail
        print(line)
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return report


def _row_bounds(c, radii):
    """The bounds U on the rows' |f|^2 from the transform module docstring.

    Built from the literal weights r^l sqrt(1 - r^2) / (N (1 - r^N)), flushed
    to zero below the smallest normal double, the head's L = min(64, N)
    samples by a literal sum, and the Parseval norm of c; no table or
    product of the transform module. Each row is cut at the first power of
    two Q >= L whose tail ||c||_2 ||w_{>=Q}||_2 lies below 2^-60 times the
    lower bound on max |f| that the head samples give, or at its full width.
    """
    n = c.shape[0]
    head = min(64, n)
    tiny = np.finfo(np.float64).tiny
    norm = np.sqrt(np.vdot(c, c).real)
    l = np.arange(n)
    theta = 2.0 * np.pi * np.arange(head) / head
    waves = np.exp(1j * np.outer(theta, l[:head]))
    weights, peaks, low = {}, {}, 0.0
    for r in radii:
        if r == 0.0:
            low = max(low, abs(c[0] / n))
            continue
        w = r ** l * (np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n)))
        w[w < tiny] = 0.0
        weights[r] = w
        peaks[r] = np.max(np.abs(waves @ (w[:head] * c[:head]))) ** 2
        low = max(low, np.sqrt(peaks[r]) - norm * np.sqrt(np.sum(w[head:] ** 2)))
    cuts = [head]
    for w in weights.values():
        full = 16
        while full < np.count_nonzero(w):
            full *= 2
        q = head
        while norm * np.sqrt(np.sum(w[q:] ** 2)) > 2.0 ** -60 * low:
            q *= 2
        cuts.append(min(q, full if n // full >= 16 else n))
    q = max(cuts)
    bounds = []
    for r in radii:
        if r == 0.0:
            bounds.append(abs(c[0] / n) ** 2)
            continue
        w = weights[r]
        a = w * np.abs(c)
        b_head = a[:head].sum()
        tail = a[head:q].sum() + norm * np.sqrt(np.sum(w[q:] ** 2))
        d1, d2 = (l[:head] * a[:head]).sum(), (l[:head] ** 2 * a[:head]).sum()
        margin, total = 1e-9, b_head + tail
        sampled = ((np.sqrt(peaks[r] + (np.pi / head) ** 2 * (d2 * b_head + d1 * d1)) + tail
                    + 2 * head * tiny) ** 2 * (1.0 + margin) + margin * total ** 2)
        bounds.append(min((total * (1.0 + margin)) ** 2, sampled) + tiny)
    return bounds


@pytest.fixture
def best_first_order():
    """Rows of a grid in decreasing bound, ties in row order: the order in
    which core.maximal_selection reads them from transform.RowStream's field
    of the coefficients c, with the energy whose Parseval norm is ||c||_2."""

    def order(c, radii):
        bounds = _row_bounds(np.asarray(c), radii)
        return sorted(range(len(radii)), key=lambda s: -bounds[s])

    return order
