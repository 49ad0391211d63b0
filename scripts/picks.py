#!/usr/bin/env python3
"""Print one SHA-256 over the picks corpus: 352 ten-term decompositions.

The corpus runs the signals f1, f2, synth_random_hardy(n, degree=min(n // 4,
256), seed=7) and that signal's real-coefficient part
(g + conj(g[-m mod N])) / 2 at N = 8 ... 65536 (every power of two,
outermost loop), then signal, then grid (the standard 0:0.1:0.8, then
0:0.025:0.8), then dc-first (on, then off), then engine (fft, plus direct at
N <= 1024). Per decomposition the hash takes repr((N, signal name, M,
dc_first, engine)) with signal names 'f1', 'f2', 'random' and 'real
coefficient', then each step packed as struct '<dqddd' (radius, angle
index, coefficient real part, imaginary part, residual energy), then the
bytes of the final remainder. Equal digests mean every pick, coefficient,
energy and remainder is equal bit for bit.

Run from the repository root: `PYTHONPATH=src python scripts/picks.py`.
It takes no options.
"""

import hashlib
import struct

import numpy as np

from fastafd import core, signals

SIZES = tuple(2 ** k for k in range(3, 17))
GRIDS = (core.radius_range(0.0, 0.1, 0.8), core.radius_range(0.0, 0.025, 0.8))


def real_coefficient(g):
    return (g + np.conj(g[-np.arange(g.shape[0]) % g.shape[0]])) / 2


def corpus(sizes=SIZES):
    """Yield (key, steps, remainder bytes) per decomposition, in hash order."""
    for n in sizes:
        random = signals.synth_random_hardy(n, degree=min(n // 4, 256), seed=7)
        cases = {"f1": signals.synth_f1(n), "f2": signals.synth_f2(n),
                 "random": random, "real coefficient": real_coefficient(random)}
        for name, g in cases.items():
            for radii in GRIDS:
                grid = core.ParameterGrid(radii, n)
                for dc_first in (True, False):
                    for engine in ("fft", "direct") if n <= 1024 else ("fft",):
                        d = core.decompose(g, grid, max_terms=10, engine=engine,
                                           dc_first=dc_first)
                        steps = [(s.point.radius, s.point.angle_index,
                                  s.coefficient.real, s.coefficient.imag,
                                  s.residual_energy) for s in d.steps]
                        yield ((n, name, len(radii), dc_first, engine), steps,
                               d.remainder.tobytes())


def digest(sizes=SIZES):
    """Hex SHA-256 of the corpus at the given sizes."""
    m = hashlib.sha256()
    for key, steps, remainder in corpus(sizes):
        m.update(repr(key).encode())
        for step in steps:
            m.update(struct.pack("<dqddd", *step))
        m.update(remainder)
    return m.hexdigest()


def pole_digest(sizes=SIZES):
    """Hex SHA-256 of the corpus's pole sequences at the given sizes.

    Per decomposition it takes repr(key) and each step's (radius, angle
    index) packed as struct '<dq', so it pins the picks but no roundoff
    bits of the coefficients, energies or remainder.
    """
    m = hashlib.sha256()
    for key, steps, _ in corpus(sizes):
        m.update(repr(key).encode())
        for step in steps:
            m.update(struct.pack("<dq", *step[:2]))
    return m.hexdigest()


if __name__ == "__main__":
    print(digest())
