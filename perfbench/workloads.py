"""The benchmark's workloads: inputs from the seed, one operation, its checks.

Operation k of a run draws its inputs from (seed, k) only, so the same seed
gives the same inputs whatever the run length. The units of a desk_unit run
share one transmitted reference, as the units of one dataset do;
b2b_loading synthesises a fresh reference for every operation. The program
is reached through its public functions, looked up on their modules at call
time so the traced run can wrap them, and through the seeds in the configs
it is given.
"""

import contextlib
import dataclasses
import hashlib
import sys
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.fft

from osnrprobe import estimator, experiment, spectrum, waveform
from osnrprobe.field import SampledField

import checks

LAUNCH_DBM = 6.0
# Propagation runs with one FFT worker, not the program's default of two.
# The two cores of a shared VM are not the benchmark's alone: in the same
# four minutes, alternating units, a desk unit took 3.7-13.8 s with two
# workers and 4.5-7.4 s with one, because two workers wait for whichever
# core a neighbour holds.
FFT_WORKERS = 1
# desk_unit: the desk physics (2^14 symbols, complex64, 0.05 km steps) on
# 5 km spans, tapped after 1 and 2 spans, so one unit is 1000 steps
# (5-6 s on a 2-core VM with one FFT worker) and a run holds several units.
DESK_SPAN_KM = 5.0
DESK_SPANS = (1, 2)
# The paper's axiom needs a full span of nonlinearity: after 10 km the
# +10 dB probe's notch is only ~0.07 dB fuller than the -10 dB probe's,
# against ~0.17 dB of noise per unit. A desk_unit run therefore ends,
# untimed and untraced, with two desk-size units over one 100 km span at
# 1 km steps (2-3 s each, ~0.03 rad per step), where the gap is ~0.88 dB
# with a 0.25 dB spread per unit, and checks the mean gap of the two.
AXIOM_FIBER = {"span_length_km": 100.0, "step_km": 1.0}
AXIOM_UNITS = 2
# b2b_loading: desk-size probes loaded with white ASE at 0 dBm.
B2B_LAUNCH_DBM = 0.0
B2B_LAUNCH_W = checks.undb(B2B_LAUNCH_DBM) * 1e-3
B2B_OSNR_DB = (10.0, 35.0)


def op_seed(seed: int, k: int, tag: int = 0x0B5) -> int:
    """Program seed for operation k of a run with this workload seed."""
    return int(np.random.SeedSequence((seed, k, tag)).generate_state(1)[0])


def tx_seed(seed: int) -> int:
    """Transmitter seed shared by the units of a run."""
    return int(np.random.SeedSequence((seed, 0x7E5)).generate_state(1)[0])


@dataclasses.dataclass
class OpResult:
    rows: list
    timed_s: float
    failures: list
    csv_sha256: Optional[str] = None


def _scenario(tx, launch_w: float, ase_w_per_hz: float) -> checks.Scenario:
    return checks.Scenario(
        launch_w=launch_w, ase_w_per_hz=ase_w_per_hz, baud_rate=tx.baud_rate,
        rolloff=tx.rolloff, nfl_rel_db=tx.nfl_rel_db,
        n_samples=tx.n_symbols * tx.samples_per_symbol,
        sample_rate=tx.baud_rate * tx.samples_per_symbol)


def _warm_up(tx, dtype):
    """Load the lazy imports and FFT plans an operation needs: one
    reference, one measurement, one FFT pair of the propagation shape."""
    ref = waveform.generate_reference(tx)
    spectrum.measure(ref, waveform.default_regions(tx), 0.0)
    mat = ref.as_matrix().astype(dtype)
    scipy.fft.ifft(scipy.fft.fft(mat, axis=1, workers=FFT_WORKERS), axis=1,
                   workers=FFT_WORKERS)


def _load_ase(fld, s_ase: float, rng):
    """Scale a probe to the launch power and add white ASE of density s_ase
    per polarization over the whole sampled band."""
    scale = np.sqrt(B2B_LAUNCH_W / (np.mean(np.abs(fld.samples_x) ** 2)
                                    + np.mean(np.abs(fld.samples_y) ** 2)))
    sigma = np.sqrt(s_ase * fld.sample_rate / 2.0)
    noise = rng.standard_normal((2, 2, len(fld.samples_x)))
    return SampledField(fld.samples_x * scale + sigma * (noise[0, 0] + 1j * noise[0, 1]),
                        fld.samples_y * scale + sigma * (noise[1, 0] + 1j * noise[1, 1]),
                        fld.sample_rate, fld.center_freq)


class UnitWorkload:
    """One ``run_dataset`` call per (power, NF) unit of the desk preset at
    +6 dBm; operation k takes the k-th NF of the preset's grid, cyclically,
    and its own noise seed. The transmitter seed is the run's, shared by all
    its units."""

    min_ops = 3

    def __init__(self, seed: int, out_dir: Path):
        base = experiment.desk_preset()
        self.base = dataclasses.replace(
            base, powers_dbm=(LAUNCH_DBM,), spans=DESK_SPANS,
            fiber=dataclasses.replace(base.fiber, span_length_km=DESK_SPAN_KM),
            tx=dataclasses.replace(base.tx, seed=tx_seed(seed)))
        self.nfs = base.nf_dbs
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def config(self, k: int):
        return dataclasses.replace(self.base, nf_dbs=(self.nfs[k % len(self.nfs)],),
                                   seed=op_seed(self.seed, k))

    def warm_up(self):
        _warm_up(self.base.tx, self.base.dtype)

    def op(self, k: int, tracer=None) -> OpResult:
        return self._run(self.config(k), self.out_dir / f"op{k:04d}.csv")

    def _run(self, cfg, path: Path) -> OpResult:
        path.unlink(missing_ok=True)  # a present file would be resumed, not run
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(sys.stderr):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            rows = experiment.run_dataset(cfg, path, fft_workers=FFT_WORKERS)
            timed = time.perf_counter() - t0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return OpResult(rows, timed, self.check(cfg, rows, caught), digest)

    def check(self, cfg, rows, caught) -> list:
        fails = [f"warning: {w.message}" for w in caught if "nonlinear phase" in str(w.message)]
        got = sorted((r.launch_power_dbm, r.nf_db, r.n_spans) for r in rows)
        want = sorted((p, nf, s) for p in cfg.powers_dbm for nf in cfg.nf_dbs for s in cfg.spans)
        if got != want:
            fails.append(f"rows cover {got}, expected {want}")
        loss_db = cfg.fiber.alpha_db_per_km * cfg.fiber.span_length_km
        for r in rows:
            fails += checks.check_truth(r, checks.link_osnr_db(
                r.launch_power_dbm, r.n_spans, r.nf_db, loss_db))
            ase = 2.0 * r.n_spans * checks.ase_psd_per_pol(r.nf_db, loss_db)
            sc = _scenario(cfg.tx, checks.undb(r.launch_power_dbm) * 1e-3, ase)
            fails += checks.check_ref(r, sc)
            fails += checks.check_notch_floor(r, sc)
        return fails

    def finish(self):
        return 0.0, [], {}

    def verify(self):
        """The axiom check on AXIOM_UNITS extra units, after timing."""
        fails, gaps = [], []
        for j in range(AXIOM_UNITS):
            cfg = dataclasses.replace(
                self.config(j), seed=op_seed(self.seed, j, tag=0xA81), spans=(1,),
                fiber=dataclasses.replace(self.base.fiber, **AXIOM_FIBER))
            res = self._run(cfg, self.out_dir / f"axiom{j}.csv")
            fails += res.failures
            gaps += [r.p_n_db[-1] - r.p_n_db[0] for r in res.rows]
        return fails + checks.check_axiom_mean(gaps), {"axiom_gap_db": gaps}


class LoadingWorkload:
    """Back-to-back noise loading: synthesise a freshly seeded probe set,
    load it with the benchmark's own white ASE at a drawn OSNR (not timed),
    measure every probe and build the feature row. The run ends with a
    cross-validated and a full least-squares fit."""

    min_ops = 40

    def __init__(self, seed: int):
        self.tx = experiment.desk_preset().tx
        self.regions = waveform.default_regions(self.tx)
        self.deltas = estimator.DELTA_GRID_DB
        self.seed = seed
        self.rows = []
        self.residuals = []
        self.diffs = []

    def warm_up(self):
        _warm_up(self.tx, np.complex128)

    def op(self, k: int, tracer=None) -> OpResult:
        s = op_seed(self.seed, k)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, k, 0xA5E)))
        osnr_db = float(rng.uniform(*B2B_OSNR_DB))
        tx = dataclasses.replace(self.tx, seed=s)

        t0 = time.perf_counter()
        ref = waveform.generate_reference(tx)
        probes = []
        for i, delta in enumerate(self.deltas):
            profile = waveform.build_profile(ref, self.regions, delta)
            probes.append(waveform.add_tx_noise_floor(
                waveform.apply_perturbation(ref, profile), tx,
                np.random.SeedSequence((s, 0x0F1, i))))
        t1 = time.perf_counter()

        span = tracer.open("load_ase") if tracer else None
        s_ase = checks.loaded_ase_per_pol(B2B_LAUNCH_W, osnr_db)
        loaded = [_load_ase(p, s_ase, rng) for p in probes]
        if tracer:
            tracer.close(span)

        t2 = time.perf_counter()
        reports = [spectrum.measure(f, self.regions, d) for f, d in zip(loaded, self.deltas)]
        row = estimator.build_feature_row(reports, osnr_db, (B2B_LAUNCH_DBM, 1, 0.0))
        t3 = time.perf_counter()

        sc = _scenario(tx, B2B_LAUNCH_W, 2.0 * s_ase)
        fails = (checks.check_truth(row, osnr_db) + checks.check_ref(row, sc)
                 + checks.check_notch_floor(row, sc))
        self.rows.append(row)
        self.residuals += [v - sc.notch_floor_db() for v in row.p_n_db]
        self.diffs.append(row.p_n_db[-1] - row.p_n_db[0])
        return OpResult([row], (t1 - t0) + (t3 - t2), fails)

    def finish(self):
        t0 = time.perf_counter()
        data = estimator.Dataset(self.rows)
        cv, _ = estimator.cross_validate(data)
        coeffs = estimator.fit_least_squares(data)
        timed = time.perf_counter() - t0
        fails = (checks.check_cv_rmse(cv.rmse_db)
                 + checks.check_b2b_notch_mean(self.residuals)
                 + checks.check_b2b_probe_independence(self.diffs))
        return timed, fails, {"cv_rmse_db": cv.rmse_db, "cv_rows": cv.n_rows,
                              "coefficients": coeffs.as_dict()}

    def verify(self):
        return [], {}


def make(name: str, seed: int, out_dir: Path):
    if name == "desk_unit":
        return UnitWorkload(seed, out_dir)
    if name == "b2b_loading":
        return LoadingWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

