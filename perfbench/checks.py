"""Physics oracles and output checks, computed apart from osnrprobe.

Every expected value here is derived from the scenario's inputs with the
benchmark's own constants and formulas; nothing is read back from the
program except the rows under test. A check returns a list of failure
messages, empty when the row (or run) passes.

Conventions shared with the simulated link (these are the physics being
checked, not program internals):

* EDFA gain G equals the span loss; ASE density per polarization is
  n_sp * h * nu * (G - 1) with n_sp = NF / 2.
* OSNR is launch power over accumulated dual-polarization ASE power in a
  0.1 nm reference bandwidth.
* The transmitter noise floor is white over the bandwidth of interest,
  ``nfl_rel_db`` below the in-band signal PSD; the launch power includes it.
* APSDs are in dB re 1 W/Hz with both polarizations summed; the reference
  region is the bandwidth of interest minus the 2 GHz notch, the notch APSD
  is read over the notch's inner 80 %.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

H_PLANCK = 6.62607015e-34    # J s, exact (SI 2019, CODATA 2018)
C_LIGHT = 299_792_458.0      # m/s, exact
CARRIER_HZ = 193.4e12
REF_BW_NM = 0.1
NOTCH_WIDTH_HZ = 2e9
NOTCH_INNER_FRACTION = 0.8

REF_TOL_DB = 0.1
NOTCH_TOL_DB = 0.3
NOTCH_SIGMAS = 6.0
B2B_NOTCH_MEAN_TOL_DB = 0.3
B2B_PROBE_DIFF_TOL_DB = 0.1
CV_RMSE_LIMIT_DB = 0.5
TRUTH_TOL_DB = 1e-9


def db(x: float) -> float:
    return 10.0 * math.log10(x)


def undb(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def ref_bandwidth_hz() -> float:
    return REF_BW_NM * 1e-9 * CARRIER_HZ**2 / C_LIGHT


def ase_psd_per_pol(nf_db: float, span_loss_db: float) -> float:
    """One amplifier's ASE density per polarization, W/Hz."""
    n_sp = undb(nf_db) / 2.0
    return n_sp * H_PLANCK * CARRIER_HZ * (undb(span_loss_db) - 1.0)


@dataclass(frozen=True)
class Scenario:
    """Inputs that fix the expected APSDs of one received probe set.

    ``ase_w_per_hz`` is the accumulated ASE density with both polarizations
    summed (2 * N * S_ase after N amplifiers). ``n_samples`` and
    ``sample_rate`` set the spectral resolution, hence the statistical
    error of a notch APSD.
    """

    launch_w: float
    ase_w_per_hz: float
    baud_rate: float
    rolloff: float
    nfl_rel_db: Optional[float]
    n_samples: int
    sample_rate: float

    @property
    def boi_hz(self) -> float:
        return (1.0 + self.rolloff) * self.baud_rate

    def ref_apsd_db(self) -> float:
        return db(self.launch_w / (self.boi_hz - NOTCH_WIDTH_HZ) + self.ase_w_per_hz)

    def tx_floor_w_per_hz(self) -> float:
        if self.nfl_rel_db is None:
            return 0.0
        r = undb(self.nfl_rel_db)
        signal_w = self.launch_w / (1.0 + r)
        return r * signal_w / self.boi_hz

    def notch_floor_db(self) -> float:
        return db(self.tx_floor_w_per_hz() + self.ase_w_per_hz)

    def notch_sigma_db(self) -> float:
        """Standard error of one notch APSD: white noise read over the
        inner notch gives one chi-square(2) value per FFT bin and
        polarization, so the relative error is 1/sqrt(bins)."""
        bins = 2.0 * NOTCH_INNER_FRACTION * NOTCH_WIDTH_HZ * self.n_samples / self.sample_rate
        return 10.0 / math.log(10.0) / math.sqrt(bins)

    def notch_tol_db(self) -> float:
        """The 0.3 dB tolerance, widened to 6 standard errors where the
        record is too short for 0.3 dB to hold on every probe. Six, not
        five: a run set checks some 10^4-10^5 probes, and the log of a
        chi-square mean has a heavier low tail than a Gaussian."""
        return max(NOTCH_TOL_DB, NOTCH_SIGMAS * self.notch_sigma_db())


def link_osnr_db(launch_dbm: float, n_spans: int, nf_db: float, span_loss_db: float) -> float:
    """Link-budget OSNR after n_spans amplified spans."""
    launch_w = undb(launch_dbm) * 1e-3
    ase = 2.0 * n_spans * ase_psd_per_pol(nf_db, span_loss_db)
    return db(launch_w / (ase * ref_bandwidth_hz()))


def loaded_ase_per_pol(launch_w: float, osnr_db: float) -> float:
    """ASE density per polarization that sets a back-to-back OSNR."""
    return launch_w / (2.0 * ref_bandwidth_hz() * undb(osnr_db))


def check_truth(row, expected_db: float) -> list:
    err = abs(row.truth_osnr_db - expected_db)
    if not err <= TRUTH_TOL_DB:
        return [f"truth_osnr_db {row.truth_osnr_db!r} != link budget {expected_db!r} "
                f"(|err| {err:.3g} dB > {TRUTH_TOL_DB:g})"]
    return []


def check_ref(row, sc: Scenario) -> list:
    want = sc.ref_apsd_db()
    if not abs(row.p_ref_db - want) <= REF_TOL_DB:
        return [f"p_ref_db {row.p_ref_db:.4f} not within {REF_TOL_DB} dB of "
                f"launch/ref width + ASE = {want:.4f}"]
    return []


def check_notch_floor(row, sc: Scenario) -> list:
    floor = sc.notch_floor_db()
    tol = sc.notch_tol_db()
    return [f"notch APSD {v:.4f} (probe {i}) below tx floor + ASE {floor:.4f} - {tol:.3f} dB"
            for i, v in enumerate(row.p_n_db) if not v >= floor - tol]


def check_axiom_mean(gaps_db: Sequence[float]) -> list:
    """The paper's axiom over a run: nonlinear noise follows the boost, so
    the +10 dB probe fills its notch more than the -10 dB probe on average
    (p_n_db is ordered by ascending boost)."""
    if not gaps_db:
        return ["no notch gaps to check the axiom on"]
    mean = sum(gaps_db) / len(gaps_db)
    if not mean > 0:
        return [f"mean p_n[+10] - p_n[-10] = {mean:+.4f} dB over {len(gaps_db)} units: "
                f"the +10 dB probe does not fill its notch more"]
    return []


def check_b2b_notch_mean(residuals_db: Sequence[float]) -> list:
    """Mean of (notch APSD - (tx floor + loaded ASE)) over a run's probes."""
    mean = sum(residuals_db) / len(residuals_db)
    if not abs(mean) <= B2B_NOTCH_MEAN_TOL_DB:
        return [f"mean notch APSD {mean:+.4f} dB off tx floor + loaded ASE "
                f"(limit {B2B_NOTCH_MEAN_TOL_DB} dB)"]
    return []


def check_b2b_probe_independence(diffs_db: Sequence[float]) -> list:
    """Mean of p_n[+10] - p_n[-10] over a run: ASE ignores the probe."""
    mean = sum(diffs_db) / len(diffs_db)
    if not abs(mean) <= B2B_PROBE_DIFF_TOL_DB:
        return [f"mean p_n[+10] - p_n[-10] = {mean:+.4f} dB without propagation "
                f"(limit +-{B2B_PROBE_DIFF_TOL_DB} dB)"]
    return []


def check_cv_rmse(rmse_db: float) -> list:
    if not rmse_db <= CV_RMSE_LIMIT_DB:
        return [f"cross-validated RMSE {rmse_db:.4f} dB > {CV_RMSE_LIMIT_DB} dB"]
    return []
