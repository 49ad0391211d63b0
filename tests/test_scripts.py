"""Smoke tests for the scripts under scripts/."""

import re
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_error_tables_prints_both_engines(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["error_tables.py", "--samples", "64",
                                      "--terms", "3"])
    runpy.run_path(str(SCRIPTS / "error_tables.py"), run_name="__main__")
    tables = capsys.readouterr().out.strip().split("\n\n")
    assert len(tables) == 2
    for table in tables:
        lines = table.splitlines()
        assert lines[1].split() == ["n", "fft", "direct"]
        rows = [line.split() for line in lines[2:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        for _, fft, direct in rows:
            assert abs(float(fft) - float(direct)) < 1e-6


def test_picks_digest_is_repeatable():
    # The corpus on its two smallest sizes: 2 sizes x 4 signals x 2 grids x
    # 2 dc-first settings x 2 engines, hashed the same way twice.
    picks = runpy.run_path(str(SCRIPTS / "picks.py"))
    sizes = picks["SIZES"][:2]
    assert sizes == (8, 16)
    assert len(list(picks["corpus"](sizes))) == 64
    first, second = picks["digest"](sizes), picks["digest"](sizes)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert first == second


def test_pole_sequences_are_pinned():
    # The pole sequences of the corpus at N = 8 ... 256: 6 sizes x 4 signals
    # x 2 grids x 2 dc-first settings x 2 engines. A change that moves a pick
    # updates this literal and says why.
    picks = runpy.run_path(str(SCRIPTS / "picks.py"))
    sizes = picks["SIZES"][:6]
    assert sizes == (8, 16, 32, 64, 128, 256)
    assert len(list(picks["corpus"](sizes))) == 192
    assert picks["pole_digest"](sizes) == (
        "0cc67c1fcc0b8dc8937a86d05874cd7c31ed870f761be0d26f145bbd11f65c1f")
