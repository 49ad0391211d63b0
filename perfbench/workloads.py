"""The four benchmark workloads: inputs, one item, and the item's output check.

Every workload uses the standard grid (radii 0, 0.1, ..., 0.8), ten terms
and the mean term first (`dc_first`). `prepare` runs in its own process
before anything is timed: it writes the inputs, derived only from the seed,
and the reference values the checks compare against. `load_inputs` is part
of set-up; `load_references` is not. `item(k)` is the timed call on input
k, and `check(k, output)` returns whether that output is right; it runs
outside the timed interval, with no tracing wrappers installed.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from fastafd import cli, core, oracle, signals

RADII = "0:0.1:0.8"
# Polynomial degree of the random inputs: the generator's default N/4 at
# N = 1024. An item's cost depends on N only, and at N = 65536 the default
# degree would take seconds per input to generate.
DEGREE = 256
ENERGY_TOL = 1e-10
FIELD_TOL = 1e-9
TABLE_TOL = 1e-6

# Relative errors of the ten-term decompositions of synth_f1 and synth_f2 at
# N = 1024 on the standard grid with the mean term first, as published in the
# package README.
README_N = 1024
README_TABLES = {
    "f1": (1.000000, 0.577839, 0.209409, 0.055145, 0.018907, 0.005138,
           0.001719, 0.000469, 0.000157, 0.000042),
    "f2": (1.000000, 0.187849, 0.124212, 0.024779, 0.022877, 0.018096,
           0.016471, 0.011104, 0.010221, 0.008822),
}


def random_signal(n, seed, index):
    """Input `index` of a pool: a seeded random Hardy signal."""
    return signals.synth_random_hardy(n, degree=min(DEGREE, n // 4),
                                      seed=seed * 1000 + index)


def real_coefficient(g):
    """The signal whose Taylor coefficients are the real parts of g's.

    Its selection field is conjugate-symmetric in the angle, so field
    maxima come in mathematically tied pairs.
    """
    mirrored = np.conj(g[(-np.arange(g.shape[0])) % g.shape[0]])
    return (g + mirrored) / 2


def energy(g):
    """Discrete energy (1/N) sum |g|^2, computed without the package."""
    return float(np.mean(g.real ** 2 + g.imag ** 2))


def energy_identity_holds(e0, coefficients, residuals):
    """E_{k-1} - |c_k|^2 = E_k at every step, within ENERGY_TOL * E_0."""
    previous = e0
    for c, residual in zip(coefficients, residuals):
        if abs(previous - abs(c) ** 2 - residual) > ENERGY_TOL * e0:
            return False
        previous = residual
    return True


def decomposition_holds(e0, steps, errors, terms):
    """Checks shared by every decomposition output: term count, the energy
    identity and the last error entry equal to residual / initial energy."""
    if len(steps) != terms or len(errors) != terms:
        return False
    if not energy_identity_holds(e0, [s.coefficient for s in steps],
                                 [s.residual_energy for s in steps]):
        return False
    return abs(errors[-1] - steps[-1].residual_energy / e0) <= ENERGY_TOL


def signal_csv_matches(path, expected):
    """Whether the signal CSV at `path` holds exactly the samples `expected`.

    Parsed without the package's reader, in blocks of about 64 KiB, so that
    the check never holds a full-size copy of the text.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        if fh.readline() != signals.CSV_HEADER + "\n":
            return False
        row = 0
        while True:
            lines = fh.readlines(1 << 16)
            if not lines:
                return row == expected.shape[0]
            block = "".join(lines)
            if not block.endswith("\n"):
                return False
            cells = np.fromstring(block.replace("\n", ","), dtype=np.float64, sep=",")
            if cells.shape[0] != 3 * len(lines):
                return False
            rows = cells.reshape(-1, 3)
            stop = row + rows.shape[0]
            if (stop > expected.shape[0]
                    or not np.array_equal(rows[:, 0], np.arange(row, stop))
                    or not np.array_equal(rows[:, 1] + 1j * rows[:, 2],
                                          expected[row:stop])):
                return False
            row = stop


def file_checksum(path):
    """Size and CRC-32 of a file, read in blocks. zlib, unlike hashlib, is
    already loaded with numpy, so the check adds nothing to peak_rss_mib."""
    crc = size = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            crc = zlib.crc32(block, crc)
            size += len(block)
    return size, crc


def step_row(step):
    """A step as a list of exact floats and ints, comparable with ==."""
    p = step.point
    return [p.radius, p.angle_index, p.value.real, p.value.imag,
            step.coefficient.real, step.coefficient.imag, step.residual_energy]


class Workload:
    def __init__(self, params, workdir, seed):
        self.n = params["n"]
        self.pool = params["pool"]
        self.terms = params["terms"]
        self.seed = seed
        self.inputs = os.path.join(workdir, "inputs")
        self.outputs = os.path.join(workdir, "outputs")
        self.grid = core.ParameterGrid.experiment_default(self.n)
        self.mismatches = 0

    @property
    def size(self):
        return self.pool

    def path(self, name):
        return os.path.join(self.inputs, name)

    def load_inputs(self):
        os.makedirs(self.outputs, exist_ok=True)


class PipelineLarge(Workload):
    """`fastafd decompose` on pre-generated signal CSVs."""

    def prepare(self):
        for k in range(self.pool):
            g = random_signal(self.n, self.seed, k)
            csv = self.path("signal-%d.csv" % k)
            signals.save_signal_csv(csv, g)
            d = core.decompose(signals.load_signal_csv(csv), self.grid,
                               max_terms=self.terms, dc_first=True)
            reference = {"e0": energy(g), "steps": [step_row(s) for s in d.steps]}
            with open(self.path("reference-%d.json" % k), "w", encoding="utf-8") as fh:
                json.dump(reference, fh)

    def load_references(self):
        self.references = []
        for k in range(self.pool):
            with open(self.path("reference-%d.json" % k), encoding="utf-8") as fh:
                self.references.append(json.load(fh))

    def item(self, k):
        return cli.run_command([
            "decompose", "--input", self.path("signal-%d.csv" % k),
            "--terms", str(self.terms), "--radii", RADII,
            "--output", os.path.join(self.outputs, "decomposition-%d.json" % k)])

    def check(self, k, code):
        if code != 0:
            return False
        with open(os.path.join(self.outputs, "decomposition-%d.json" % k),
                  encoding="utf-8") as fh:
            d, errors = cli.decomposition_from_document(json.load(fh))
        ref = self.references[k]
        return (decomposition_holds(ref["e0"], d.steps, errors, self.terms)
                and [step_row(s) for s in d.steps] == ref["steps"])


class InMemory(Workload):
    """Inputs kept as one array of signals in signals.npy."""

    def load_inputs(self):
        self.signals = np.load(self.path("signals.npy"))

    def load_references(self):
        self.e0 = [energy(g) for g in self.signals]


class BatchSmall(InMemory):
    """`core.decompose` plus `core.error_trace` on in-memory signals; inputs
    0 and 1 are synth_f1 and synth_f2, the rest seeded random Hardy signals."""

    @property
    def size(self):
        return self.pool + 2

    def prepare(self):
        pool = [signals.synth_f1(self.n), signals.synth_f2(self.n)]
        pool += [random_signal(self.n, self.seed, k) for k in range(self.pool)]
        np.save(self.path("signals.npy"), np.array(pool))

    def item(self, k):
        g = self.signals[k]
        d = core.decompose(g, self.grid, max_terms=self.terms, dc_first=True)
        return d, core.error_trace(d, g)

    def check(self, k, output):
        d, errors = output
        if not decomposition_holds(self.e0[k], d.steps, errors, self.terms):
            return False
        if k < 2 and self.n == README_N and self.terms == len(README_TABLES["f1"]):
            table = README_TABLES["f1" if k == 0 else "f2"]
            return all(abs(e - t) <= TABLE_TOL for e, t in zip(errors, table))
        return True


class ReconstructRoundtrip(Workload):
    """`fastafd reconstruct` on decomposition documents written beforehand."""

    def prepare(self):
        for k in range(self.pool):
            g = random_signal(self.n, self.seed, k)
            d = core.decompose(g, self.grid, max_terms=self.terms, dc_first=True)
            doc = cli.document_from_decomposition(d, core.error_trace(d, g), True)
            text = cli.dumps_document(doc)
            with open(self.path("decomposition-%d.json" % k), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
            loaded, _ = cli.decomposition_from_document(json.loads(text))
            np.save(self.path("expected-%d.npy" % k),
                    core.reconstruct(loaded, self.terms))

    def load_references(self):
        self.expected = [np.load(self.path("expected-%d.npy" % k))
                         for k in range(self.pool)]
        self.verified = {}

    def item(self, k):
        return cli.run_command([
            "reconstruct", "--input", self.path("decomposition-%d.json" % k),
            "--terms", str(self.terms),
            "--output", os.path.join(self.outputs, "partial-%d.csv" % k)])

    def check(self, k, code):
        if code != 0:
            return False
        path = os.path.join(self.outputs, "partial-%d.csv" % k)
        checksum = file_checksum(path)
        # A file with the checksum of an output already parsed and verified
        # for this input is verified too; parsing 65536 rows costs a third of
        # an item.
        if self.verified.get(k) == checksum:
            return True
        if not signal_csv_matches(path, self.expected[k]):
            return False
        self.verified[k] = checksum
        return True


class DirectSmall(InMemory):
    """`core.decompose(engine="direct")`; even inputs have complex Taylor
    coefficients, odd inputs real ones, whose field maxima tie.

    A direct-engine output is correct when every adaptive step picks a
    maximiser of the transform engine's field for the same remainder, with
    the matching coefficient, and the energy identity holds. A different
    pole sequence from the fft engine's is counted in `mismatches`, not as a
    failure: on a tied maximum both choices are maximisers.
    """

    def prepare(self):
        pool = []
        for k in range(self.pool):
            g = random_signal(self.n, self.seed, k)
            pool.append(real_coefficient(g) if k % 2 else g)
        np.save(self.path("signals.npy"), np.array(pool))
        poles, agree = [], []
        for g in pool:
            d = core.decompose(g, self.grid, max_terms=self.terms, dc_first=True)
            poles.append(d.poles())
            agree.append(self._fields_agree(g, d))
        np.save(self.path("fft-poles.npy"), np.array(poles))
        np.save(self.path("fields-agree.npy"), np.array(agree))

    def _fields_agree(self, g, d):
        """Direct and transform fields agree entrywise to FIELD_TOL relative,
        on every remainder of the fft engine's decomposition."""
        remainder = g
        for step in d.steps:
            fast = core.inner_product_field(core.spectral_coefficients(remainder),
                                            self.grid)
            direct = oracle.field_direct(remainder, self.grid)
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = np.max(np.abs(fast - direct) / np.abs(direct))
            if not worst < FIELD_TOL:
                return False
            remainder = core.remainder_update(remainder, step.point, step.coefficient)
        return True

    def load_references(self):
        super().load_references()
        self.fft_poles = np.load(self.path("fft-poles.npy"))
        self.fields_agree = np.load(self.path("fields-agree.npy"))
        self.verified = {}

    def item(self, k):
        return core.decompose(self.signals[k], self.grid, max_terms=self.terms,
                              engine="direct", dc_first=True)

    def check(self, k, d):
        steps = d.steps
        # Steps equal to ones already verified for this input are verified
        # too; the full check costs a tenth of an item.
        if self.verified.get(k) != steps:
            if not self._verify(k, steps):
                return False
            self.verified[k] = steps
        if not np.array_equal(d.poles(), self.fft_poles[k]):
            self.mismatches += 1
        return True

    def _verify(self, k, steps):
        if not self.fields_agree[k] or len(steps) != self.terms:
            return False
        if not energy_identity_holds(self.e0[k], [s.coefficient for s in steps],
                                     [s.residual_energy for s in steps]):
            return False
        remainder = self.signals[k]
        for index, step in enumerate(steps):
            if index > 0 and not self._is_maximiser(remainder, step):
                return False
            remainder = core.remainder_update(remainder, step.point, step.coefficient)
        return True

    def _is_maximiser(self, remainder, step):
        field = core.inner_product_field(core.spectral_coefficients(remainder),
                                         self.grid)
        magnitude = np.abs(field)
        peak = float(magnitude.max())
        s = self.grid.radii.index(step.point.radius)
        value = field[s, step.point.angle_index]
        return (magnitude[s, step.point.angle_index] >= peak * (1 - FIELD_TOL)
                and abs(step.coefficient - value) <= FIELD_TOL * peak)


WORKLOADS = {
    "pipeline_large": PipelineLarge,
    "batch_small": BatchSmall,
    "reconstruct_roundtrip": ReconstructRoundtrip,
    "direct_small": DirectSmall,
}


def make(spec, workdir):
    return WORKLOADS[spec["workload"]](spec["params"], workdir, spec["seed"])
