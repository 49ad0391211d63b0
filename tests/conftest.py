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


def _row_bound(c, r):
    """The bound U on a row's |f|^2 from the transform module docstring.

    Built from the literal weights r^l sqrt(1 - r^2) / (N (1 - r^N)), flushed
    to zero below the smallest normal double, and the head's L = min(64, N)
    samples by a literal sum; no table or product of the transform module.
    """
    n = c.shape[0]
    if r == 0.0:
        return abs(c[0] / n) ** 2
    head = min(64, n)
    l = np.arange(n)
    w = r ** l * (np.sqrt(1.0 - r * r) / (n * (1.0 - r ** n)))
    w[w < np.finfo(np.float64).tiny] = 0.0
    a = w * np.abs(c)
    b_head, tail = a[:head].sum(), a[head:].sum()
    d1, d2 = (l[:head] * a[:head]).sum(), (l[:head] ** 2 * a[:head]).sum()
    theta = 2.0 * np.pi * np.arange(head) / head
    samples = np.exp(1j * np.outer(theta, l[:head])) @ (w[:head] * c[:head])
    peak = np.max(np.abs(samples)) ** 2
    margin, tiny, total = 1e-9, np.finfo(np.float64).tiny, b_head + tail
    sampled = ((np.sqrt(peak + (np.pi / head) ** 2 * (d2 * b_head + d1 * d1)) + tail
                + 2 * head * tiny) ** 2 * (1.0 + margin) + margin * total ** 2)
    return min((total * (1.0 + margin)) ** 2, sampled) + tiny


@pytest.fixture
def best_first_order():
    """Rows of a grid in decreasing bound, ties in row order: the order in
    which core.maximal_selection reads them from transform.RowStream's field
    of the coefficients c."""

    def order(c, radii):
        bounds = [_row_bound(np.asarray(c), r) for r in radii]
        return sorted(range(len(radii)), key=lambda s: -bounds[s])

    return order
