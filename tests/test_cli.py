"""End-to-end command line tests: every call goes through run_command."""

import json

import numpy as np
import pytest

from fastafd import cli, core, signals


def _synth(tmp_path, kind="f1", samples=256, extra=()):
    path = tmp_path / ("%s.csv" % kind)
    code = cli.run_command(["synth", kind, "--samples", str(samples),
                            "--output", str(path), *extra])
    assert code == 0
    return path


def _decompose(tmp_path, signal_path, name="d.json", extra=()):
    path = tmp_path / name
    code = cli.run_command(["decompose", "--input", str(signal_path),
                            "--terms", "10", "--output", str(path), *extra])
    assert code == 0
    return path


def test_synth_decompose_document_shape(tmp_path):
    doc = json.loads(_decompose(tmp_path, _synth(tmp_path)).read_text())
    assert doc["schema_version"] == 1
    assert doc["n_samples"] == 256
    assert doc["engine"] == "fft"
    assert doc["dc_first"] is True
    assert doc["grid"]["radii"][0] == 0.0
    assert len(doc["grid"]["radii"]) == 9
    assert [s["k"] for s in doc["steps"]] == list(range(1, 11))
    assert len(doc["relative_errors"]) == 10
    assert doc["relative_errors"][-1] < 1e-3
    # dc-first pins the opening atom at the origin.
    assert doc["steps"][0]["a_radius"] == 0.0
    assert doc["steps"][0]["a_angle_index"] == 0


def _assert_decompose_is_byte_deterministic(tmp_path, samples):
    sig = _synth(tmp_path, samples=samples)
    first = _decompose(tmp_path, sig, name="a.json")
    second = _decompose(tmp_path, sig, name="b.json")
    assert first.read_bytes() == second.read_bytes()


def test_decompose_output_is_byte_deterministic(tmp_path):
    _assert_decompose_is_byte_deterministic(tmp_path, 256)


def test_decompose_output_is_byte_deterministic_at_the_top_size(tmp_path):
    # At 65536 samples every nonzero radius row is input-pruned.
    _assert_decompose_is_byte_deterministic(tmp_path, 65536)


def test_decompose_errors_are_the_energy_column(tmp_path, monkeypatch):
    # The error column is residual_energy / E_0, computed without the
    # partial sums; it agrees with the measured error of each partial sum.
    sig = _synth(tmp_path, samples=1024)
    measured = core.error_trace
    monkeypatch.setattr(core, "error_trace", None)
    doc = json.loads(_decompose(tmp_path, sig).read_text())
    g = signals.load_signal_csv(sig)
    grid = core.ParameterGrid.experiment_default(1024)
    d = core.decompose(g, grid, max_terms=10, dc_first=True)
    assert doc["relative_errors"] == [s.residual_energy / d.initial_energy
                                      for s in d.steps]
    assert np.max(np.abs(np.array(doc["relative_errors"])
                         - measured(d, g))) < 1e-15


def test_engines_select_identical_poles(tmp_path):
    sig = _synth(tmp_path)
    fft_doc = json.loads(_decompose(tmp_path, sig, name="fft.json",
                                    extra=("--engine", "fft")).read_text())
    direct_doc = json.loads(_decompose(tmp_path, sig, name="direct.json",
                                       extra=("--engine", "direct")).read_text())
    for a, b in zip(fft_doc["steps"], direct_doc["steps"]):
        assert a["a_radius"] == b["a_radius"]
        assert a["a_angle_index"] == b["a_angle_index"]
        assert abs(complex(a["coeff_re"], a["coeff_im"])
                   - complex(b["coeff_re"], b["coeff_im"])) < 1e-9


def test_no_dc_first_flag_changes_first_step(tmp_path):
    sig = _synth(tmp_path)
    pinned = json.loads(_decompose(tmp_path, sig, name="p.json").read_text())
    free = json.loads(_decompose(tmp_path, sig, name="f.json",
                                 extra=("--no-dc-first",)).read_text())
    assert free["dc_first"] is False
    assert (free["steps"][0]["a_radius"], free["steps"][0]["a_angle_index"]) \
        != (pinned["steps"][0]["a_radius"], pinned["steps"][0]["a_angle_index"])


@pytest.mark.parametrize("samples, radii", [(8, None), (64, None), (64, "0:0.1:0.9")])
def test_no_dc_first_documents_round_trip(tmp_path, samples, radii):
    # Off the dc pin the kernel's squared norm on the N-point lattice is
    # (1 + r^N) / (1 - r^N), not 1, so E_0 is not |c_1|^2 + E_1 here; the
    # loader still accepts the document and recovers the initial energy.
    sig = _synth(tmp_path, samples=samples)
    extra = ("--no-dc-first",) + (("--radii", radii) if radii else ())
    doc_path = _decompose(tmp_path, sig, extra=extra)
    d, errors = cli.decomposition_from_document(json.loads(doc_path.read_text()))
    assert d.steps[0].point.radius ** samples > 1e3 * cli.ERRORS_TOL
    assert d.initial_energy == pytest.approx(
        core.discrete_energy(signals.load_signal_csv(sig)), rel=1e-14)
    code = cli.run_command(["reconstruct", "--input", str(doc_path),
                            "--terms", "10", "--output", str(tmp_path / "s.csv")])
    assert code == 0


@pytest.mark.parametrize("kind", ["f1", "f2", "random"])
def test_decompose_writes_no_document_the_loader_rejects(tmp_path, capsys, kind):
    # At N = 8 on 0:0.1:0.9 the first pole has r^N = 0.43 > 1/3, where the
    # lattice norm of e_a exceeds 1 and the residual energy rises at step 2;
    # the loader rejects such a document, so decompose must not write it.
    sig = _synth(tmp_path, kind=kind, samples=8)
    out = tmp_path / "d.json"
    code = cli.run_command(["decompose", "--input", str(sig), "--no-dc-first",
                            "--radii", "0:0.1:0.9", "--output", str(out)])
    assert code == 1
    assert "residual_energy increases at step 2" in capsys.readouterr().err
    assert not out.exists()


def test_threshold_stops_early(tmp_path):
    sig = _synth(tmp_path, samples=1024)
    path = _decompose(tmp_path, sig, extra=("--threshold", "0.2"))
    doc = json.loads(path.read_text())
    assert 0 < len(doc["steps"]) < 10
    assert doc["relative_errors"][-1] <= 0.2


def test_custom_radius_list(tmp_path):
    sig = _synth(tmp_path)
    path = _decompose(tmp_path, sig, extra=("--radii", "0.1,0.5"))
    doc = json.loads(path.read_text())
    assert doc["grid"]["radii"] == [0.1, 0.5]


def test_reconstruct_zero_terms_writes_zero_signal(tmp_path):
    doc_path = _decompose(tmp_path, _synth(tmp_path))
    out = tmp_path / "s0.csv"
    code = cli.run_command(["reconstruct", "--input", str(doc_path),
                            "--terms", "0", "--output", str(out)])
    assert code == 0
    assert np.array_equal(signals.load_signal_csv(out), np.zeros(256))


def test_reconstruct_partial_sum_and_error_csv(tmp_path):
    sig = _synth(tmp_path)
    doc_path = _decompose(tmp_path, sig)
    out = tmp_path / "s4.csv"
    errs = tmp_path / "errs.csv"
    code = cli.run_command(["reconstruct", "--input", str(doc_path),
                            "--terms", "4", "--output", str(out),
                            "--emit-errors", str(errs)])
    assert code == 0

    doc = json.loads(doc_path.read_text())
    d, stored_errors = cli.decomposition_from_document(doc)
    assert np.array_equal(signals.load_signal_csv(out), core.reconstruct(d, 4))

    lines = errs.read_text().splitlines()
    assert lines[0] == "n,relative_error"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        n_str, e_str = line.split(",")
        assert int(n_str) == i + 1
        assert float(e_str) == stored_errors[i]

    # Recomputing the partial-sum error from files reproduces the stored one.
    g = signals.load_signal_csv(sig)
    s4 = signals.load_signal_csv(out)
    assert abs(core.relative_error(g, s4) - stored_errors[3]) < 1e-12


def test_reconstruct_rejects_terms_beyond_stored(tmp_path, capsys):
    doc_path = _decompose(tmp_path, _synth(tmp_path))
    code = cli.run_command(["reconstruct", "--input", str(doc_path),
                            "--terms", "11", "--output",
                            str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_reconstruct_rejects_a_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code = cli.run_command(["reconstruct", "--input", str(path), "--terms", "1",
                            "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_reconstruct_reports_a_signal_too_large_to_hold(tmp_path, capsys, monkeypatch):
    # A document may claim more samples than memory holds; that is an input
    # error, not a crash. The allocation failure is simulated.
    doc_path = _decompose(tmp_path, _synth(tmp_path))

    def out_of_memory(d, terms):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(core, "reconstruct", out_of_memory)
    code = cli.run_command(["reconstruct", "--input", str(doc_path), "--terms", "1",
                            "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: no memory for a signal of 256 samples" in capsys.readouterr().err


def test_document_validation_round_trip(tmp_path):
    doc_path = _decompose(tmp_path, _synth(tmp_path))
    doc = json.loads(doc_path.read_text())
    d, errors = cli.decomposition_from_document(doc)
    rebuilt = cli.document_from_decomposition(d, errors, doc["dc_first"])
    assert cli.dumps_document(rebuilt) == doc_path.read_text()


def test_dc_pin_off_the_grid_round_trips(tmp_path):
    # r = 0 is not a grid radius here; only the dc-first pin may use it.
    doc_path = _decompose(tmp_path, _synth(tmp_path), extra=("--radii", "0.1:0.1:0.8"))
    doc = json.loads(doc_path.read_text())
    assert 0.0 not in doc["grid"]["radii"]
    assert doc["steps"][0]["a_radius"] == 0.0
    d, errors = cli.decomposition_from_document(doc)
    rebuilt = cli.document_from_decomposition(d, errors, doc["dc_first"])
    assert cli.dumps_document(rebuilt) == doc_path.read_text()
    doc["dc_first"] = False
    with pytest.raises(ValueError, match="outside the grid"):
        cli.decomposition_from_document(doc)


def _pole_fields(radius, j, n):
    a = radius * np.exp(2j * np.pi * j / n)
    return {"a_radius": radius, "a_re": a.real, "a_im": a.imag}


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.pop("steps"),
    lambda doc: doc.update(schema_version=99),
    lambda doc: doc["steps"][2].update(k=7),
    lambda doc: doc["steps"][1].update(residual_energy=float("nan")),
    lambda doc: doc["steps"][1].update(a_radius=1.5),
    lambda doc: doc["relative_errors"].pop(),
    lambda doc: doc["grid"].update(angular_count=128),
    # Step 1 is the dc-first pin at r = 0, where any angle gives the same pole.
    lambda doc: doc["steps"][0].update(a_angle_index=10**6),
    lambda doc: doc["steps"][0].update(a_angle_index=-1),
    lambda doc: doc["steps"][3].update(a_re=doc["steps"][3]["a_re"] + 0.01),
    # A consistent pole whose radius is not one of the grid's.
    lambda doc: doc["steps"][3].update(_pole_fields(
        0.55, doc["steps"][3]["a_angle_index"], doc["n_samples"])),
    lambda doc: doc.update(engine="warp"),
    # List entries must be finite JSON numbers (not booleans or strings),
    # and the relative errors non-negative.
    lambda doc: doc["relative_errors"].__setitem__(0, None),
    lambda doc: doc["relative_errors"].__setitem__(0, [0.5]),
    lambda doc: doc["relative_errors"].__setitem__(0, True),
    lambda doc: doc["relative_errors"].__setitem__(0, "0.5"),
    lambda doc: doc["relative_errors"].__setitem__(1, -1.0),
    lambda doc: doc["relative_errors"].__setitem__(2, float("nan")),
    lambda doc: doc["relative_errors"].__setitem__(0, 10**400),
    lambda doc: doc["grid"]["radii"].__setitem__(1, None),
    lambda doc: doc["grid"]["radii"].__setitem__(1, [0.1]),
    lambda doc: doc["grid"]["radii"].__setitem__(0, False),
    lambda doc: doc["grid"]["radii"].__setitem__(2, repr(doc["grid"]["radii"][2])),
    lambda doc: doc["steps"][1].update(coeff_re=10**400),
    # An error that is not residual_energy / E_0.
    lambda doc: doc["relative_errors"].__setitem__(3, doc["relative_errors"][3] * 1.01),
    # One step that leaves no initial energy to divide by.
    lambda doc: doc.update(steps=[dict(doc["steps"][0], coeff_re=0.0, coeff_im=0.0,
                                       residual_energy=0.0)], relative_errors=[1.0]),
])
def test_corrupt_documents_are_rejected(tmp_path, capsys, mutate):
    doc_path = _decompose(tmp_path, _synth(tmp_path))
    doc = json.loads(doc_path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = cli.run_command(["reconstruct", "--input", str(bad),
                            "--terms", "1", "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "true"])
def test_non_object_documents_are_rejected(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = cli.run_command(["reconstruct", "--input", str(bad),
                            "--terms", "1", "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# Written by the earlier hand-rolled encoder: 17-digit floats, `0` for 0.0,
# scalar lists on one line (f1, N = 64, radii 0:0.4:0.8, 3 terms).
EARLIER_DOCUMENT = """{
  "schema_version": 1,
  "n_samples": 64,
  "engine": "fft",
  "dc_first": true,
  "grid": {
    "radii": [0, 0.40000000000000002, 0.80000000000000004],
    "angular_count": 64
  },
  "steps": [
    {
      "k": 1,
      "a_radius": 0,
      "a_angle_index": 0,
      "a_re": 0,
      "a_im": 0,
      "coeff_re": -2.2551405187698492e-17,
      "coeff_im": -1.1709383462843448e-17,
      "residual_energy": 0.15392010108973739
    },
    {
      "k": 2,
      "a_radius": 0.80000000000000004,
      "a_angle_index": 0,
      "a_re": 0.80000000000000004,
      "a_im": 0,
      "coeff_re": 0.25491003417354874,
      "coeff_im": -1.4110088123551583e-17,
      "residual_energy": 0.088941057143545124
    },
    {
      "k": 3,
      "a_radius": 0.40000000000000002,
      "a_angle_index": 32,
      "a_re": -0.40000000000000002,
      "a_im": 4.8985871965894131e-17,
      "coeff_re": 0.23813606954716438,
      "coeff_im": 1.4233145584042098e-18,
      "residual_energy": 0.032232269524173192
    }
  ],
  "relative_errors": [1.0000000000000002, 0.57783912896270351, 0.20940909794089443]
}
"""


def test_earlier_documents_load_and_reserialize_exactly():
    d, errors = cli.decomposition_from_document(json.loads(EARLIER_DOCUMENT))
    text = cli.dumps_document(cli.document_from_decomposition(d, errors, True))
    again, again_errors = cli.decomposition_from_document(json.loads(text))
    assert again.steps == d.steps
    assert again_errors == errors
    assert [s.point.radius for s in d.steps] == [0.0, 0.8, 0.4]


def test_dumps_document_rejects_non_finite_floats():
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            cli.dumps_document({"relative_errors": [value]})


def test_increasing_residual_document_is_rejected(tmp_path, capsys):
    doc_path = _decompose(tmp_path, _synth(tmp_path))
    doc = json.loads(doc_path.read_text())
    doc["steps"][5]["residual_energy"] = 2.0 * doc["steps"][0]["residual_energy"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = cli.run_command(["reconstruct", "--input", str(bad),
                            "--terms", "1", "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "residual_energy" in capsys.readouterr().err


@pytest.mark.parametrize("kind, extra, generate", [
    ("f1", (), signals.synth_f1),
    ("f2", (), signals.synth_f2),
    ("random", ("--seed", "3", "--degree", "5"),
     lambda n: signals.synth_random_hardy(n, degree=5, seed=3)),
], ids=["f1", "f2", "random"])
def test_synth_writes_generator_samples(tmp_path, kind, extra, generate):
    path = _synth(tmp_path, kind=kind, samples=64, extra=extra)
    assert np.array_equal(signals.load_signal_csv(path), generate(64))


def test_random_synth_seed_reproducibility(tmp_path):
    a = _synth(tmp_path, kind="random", samples=64, extra=("--seed", "7"))
    b_path = tmp_path / "b.csv"
    cli.run_command(["synth", "random", "--samples", "64", "--seed", "7",
                     "--output", str(b_path)])
    assert a.read_bytes() == b_path.read_bytes()
    c_path = tmp_path / "c.csv"
    cli.run_command(["synth", "random", "--samples", "64", "--seed", "8",
                     "--output", str(c_path)])
    assert a.read_bytes() != c_path.read_bytes()


@pytest.mark.parametrize("kind", ["f1", "f2"])
def test_synth_rejects_bad_sample_count(tmp_path, capsys, kind):
    out = tmp_path / "s.csv"
    code = cli.run_command(["synth", kind, "--samples", "100", "--output", str(out)])
    assert code == 1
    assert "power of two >= 8" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_signal_reports_error(tmp_path, capsys):
    sig = tmp_path / "huge.csv"
    signals.save_signal_csv(sig, 1e160 * signals.synth_f1(64))
    out = tmp_path / "d.json"
    with np.errstate(over="ignore"):
        code = cli.run_command(["decompose", "--input", str(sig),
                                "--output", str(out)])
    assert code == 1
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_subnormal_energy_signal_reports_error(tmp_path, capsys):
    sig = tmp_path / "tiny.csv"
    signals.save_signal_csv(sig, 1e-160 * signals.synth_f1(64))
    out = tmp_path / "d.json"
    code = cli.run_command(["decompose", "--input", str(sig), "--output", str(out)])
    assert code == 1
    assert "subnormal" in capsys.readouterr().err
    assert not out.exists()


def test_zero_signal_writes_empty_document(tmp_path):
    sig = tmp_path / "zero.csv"
    signals.save_signal_csv(sig, np.zeros(64))
    doc = json.loads(_decompose(tmp_path, sig).read_text())
    assert doc["steps"] == []
    assert doc["relative_errors"] == []


def test_missing_input_file_reports_error(tmp_path, capsys):
    code = cli.run_command(["decompose", "--input", str(tmp_path / "nope.csv"),
                            "--output", str(tmp_path / "d.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_radius_range_reports_error(tmp_path, capsys):
    sig = _synth(tmp_path)
    code = cli.run_command(["decompose", "--input", str(sig),
                            "--radii", "0:0.1",
                            "--output", str(tmp_path / "d.json")])
    assert code == 1
    assert "START:STEP:END" in capsys.readouterr().err


def test_unknown_arguments_exit_nonzero(capsys):
    assert cli.run_command(["decompose", "--frobnicate"]) != 0
    assert cli.run_command(["synth", "f3", "--samples", "8",
                            "--output", "x.csv"]) != 0
    capsys.readouterr()


def test_bench_subcommand_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli.run_command(["bench", "--sizes", "64,128", "--terms", "2",
                            "--repeats", "1", "--output", str(out)])
    assert code == 0
    assert out.read_text().startswith("engine,N,M,terms,repeat,seconds\n")
    summary = json.loads((tmp_path / "rows.summary.json").read_text())
    assert set(summary["engines"]) == {"fft", "direct"}
    printed = capsys.readouterr().out
    assert "fft:" in printed and "direct:" in printed
