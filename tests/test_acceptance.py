"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion. The desk-scale end-to-end criterion needs the full dataset in
data/desk_dataset.csv and fails, naming the missing work units, when the
file misses any desk scenario; `osnrprobe dataset --preset desk --out
data/desk_dataset.csv` regenerates it in about 1 min.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from osnrprobe import estimator, experiment
from osnrprobe.estimator import DELTA_GRID_DB, Dataset, FeatureRow, fit_least_squares
from osnrprobe.field import SampledField
from osnrprobe.fiberlink import (
    REFERENCE_BANDWIDTH_HZ,
    FiberParams,
    LinkConfig,
    analytic_osnr,
    simulate_link,
)
from osnrprobe.margin import perturbed_snr
from osnrprobe.spectrum import PsdTrace, apsd, estimate_psd, measure
from osnrprobe.waveform import (
    REGIONS,
    TxConfig,
    add_tx_noise_floor,
    apply_perturbation,
    build_profile,
    generate_reference,
)

from conftest import H_PLANCK, LINEAR_STEP, one_span

DESK_DATASET = Path(__file__).resolve().parents[1] / "data" / "desk_dataset.csv"


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def ase_only(n, fs, link, ase_seed):
    """The received field of a link launched with all zeros. The fiber maps
    zeros to exact zeros, so its step count changes no byte of the ASE."""
    blank = SampledField(np.zeros(n, complex), np.zeros(n, complex), fs)
    (_, (rx,), _), = simulate_link([blank], link, [ase_seed], [link.n_spans])
    return rx


class TestPhysicsOracles:
    def test_c1_dispersion_only_gaussian(self):
        n, fs, t0_pulse = 8192, 2e12, 10e-12
        t = (np.arange(n) - n // 2) / fs
        fld = SampledField(np.exp(-(t**2) / (2 * t0_pulse**2)).astype(complex),
                           np.zeros(n, complex), fs)
        fiber = FiberParams(dispersion_D=16.7, gamma=0.0, alpha_db_per_km=0.0,
                            span_length_km=25.0, step_km=1.0)
        out = one_span(fld, fiber)

        def rms(x):
            p = np.abs(x) ** 2
            mean = np.sum(t * p) / np.sum(p)
            return math.sqrt(np.sum((t - mean) ** 2 * p) / np.sum(p))

        expected = math.sqrt(1.0 + (fiber.beta2 * 25e3 / t0_pulse**2) ** 2)
        ratio = rms(out.samples_x) / rms(fld.samples_x)
        assert ratio == pytest.approx(expected, rel=0.01)

        mag_in = np.abs(np.fft.fft(fld.samples_x))
        mag_out = np.abs(np.fft.fft(out.samples_x))
        # compare down to -100 dB of the spectral peak; below that the
        # re-measurement FFT's own roundoff dominates the Gaussian tail
        keep = mag_in > 1e-5 * mag_in.max()
        mag_dev = float(np.max(np.abs(mag_out[keep] / mag_in[keep] - 1.0)))
        assert mag_dev <= 1e-9
        report("1 dispersion oracle",
               f"broadening {ratio:.4f} vs {expected:.4f}, |PSD| dev {mag_dev:.1e}")

    def test_c2_spm_only_cw_phase(self):
        power, length = 0.004, 100.0
        cw = SampledField(np.full(2048, math.sqrt(power), complex),
                          np.zeros(2048, complex), 10e9)
        fiber = FiberParams(dispersion_D=0.0, gamma=1.3, alpha_db_per_km=0.0,
                            span_length_km=length, step_km=0.1)
        out = one_span(cw, fiber)
        expected = -(8.0 / 9.0) * 1.3 * power * length
        measured = float(np.angle(out.samples_x[0] / cw.samples_x[0]))
        assert measured == pytest.approx(expected, rel=0.005)
        report("2 SPM oracle", f"phase {measured:.6f} vs (8/9)gPL {expected:.6f} rad")

    def test_c3_lossless_noiseless_power_conservation(self):
        rng = np.random.default_rng(4)
        n = 3072
        fld = SampledField(0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                           0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                           40e9)
        fiber = FiberParams(alpha_db_per_km=0.0, span_length_km=10.0, step_km=0.5)
        out = one_span(fld, fiber)
        rel = abs(out.total_power() - fld.total_power()) / fld.total_power()
        assert rel <= 1e-9
        report("3 lossless span", f"relative power change {rel:.2e}")

    def test_c4_ase_density_and_osnr_ground_truth(self):
        expected = (10**0.45 / 2) * H_PLANCK * 193.4e12 * 99.0  # NF 4.5 dB, G = 100
        zero = SampledField(np.zeros(2**16, complex), np.zeros(2**16, complex), 170.4e9)
        noise = one_span(zero, LINEAR_STEP, 4.5, 42)
        dev_db = []
        for pol in (noise.samples_x, noise.samples_y):
            measured = np.mean(np.abs(pol) ** 2) / 170.4e9
            dev_db.append(10 * math.log10(measured / expected))
        assert max(abs(d) for d in dev_db) <= 0.1

        cfg = TxConfig(n_symbols=2**14, seed=7, nfl_rel_db=None)
        ref = generate_reference(cfg)
        fiber = FiberParams(step_km=0.5)
        link = LinkConfig(fiber, 2, 2.0, 4.5)
        ase_rx = ase_only(len(ref), ref.sample_rate, link, 99)
        ase_psd = 10 ** (apsd(estimate_psd(ase_rx), [(-5e9, 5e9)]) / 10)
        (_, (sig_rx,), _), = simulate_link([ref], LinkConfig(fiber, 2, 2.0, None), [0], [2])
        osnr_meas = 10 * math.log10(
            sig_rx.total_power() / (ase_psd * REFERENCE_BANDWIDTH_HZ))
        assert osnr_meas == pytest.approx(analytic_osnr(link), abs=0.1)
        report("4 ASE density + OSNR truth",
               f"S_ASE dev {max(abs(d) for d in dev_db):.3f} dB, "
               f"OSNR {osnr_meas:.2f} vs {analytic_osnr(link):.2f} dB")


class TestMethodProperties:
    def test_c5_power_conservation_on_probe_grid(self):
        cfg = TxConfig(n_symbols=2**14, seed=7)
        ref = generate_reference(cfg)
        worst = 0.0
        for delta_db in DELTA_GRID_DB:
            out = apply_perturbation(ref, build_profile(ref, REGIONS, delta_db))
            worst = max(worst, abs(out.total_power() - ref.total_power())
                        / ref.total_power())
        assert worst <= 1e-6
        report("5 probe power conservation", f"worst relative deviation {worst:.1e}")

    def test_c6_ase_independence_and_nln_monotonicity(self):
        # (a) ASE path never sees the probe: identical seeds give identical
        # notch APSDs, independent seeds agree within the statistical budget.
        cfg = TxConfig(seed=7)
        grid_len = cfg.n_symbols * cfg.samples_per_symbol
        fs = cfg.sample_rate
        link = LinkConfig(LINEAR_STEP, 1, 2.0, 4.5)

        same_seed_levels = []
        for _delta_idx in range(2):
            rx = ase_only(grid_len, fs, link, 1000)
            same_seed_levels.append(apsd(estimate_psd(rx), REGIONS.f_n, 0.8))
        assert same_seed_levels[0] == same_seed_levels[1]

        n_avg = 12
        levels = []
        for idelta in range(len(DELTA_GRID_DB)):
            acc = None
            for real in range(n_avg):
                seed = int(np.random.SeedSequence((77, idelta, real)).generate_state(1)[0])
                rx = ase_only(grid_len, fs, link, seed)
                trace = estimate_psd(rx)
                acc = trace.psd if acc is None else acc + trace.psd
            avg = PsdTrace(trace.freqs, acc / n_avg)
            levels.append(apsd(avg, REGIONS.f_n, 0.8))
        spread = max(levels) - min(levels)
        assert spread <= 0.05

        # (b) noise-free notch APSD climbs with both launch power and spans
        cfg14 = TxConfig(n_symbols=2**14, seed=7, nfl_rel_db=None)
        ref = generate_reference(cfg14)
        pert = apply_perturbation(ref, build_profile(ref, REGIONS, 10.0))
        fiber14 = FiberParams()  # the converged default step
        span_list = (1, 5, 10)
        powers = (-2.0, 2.0, 6.0)
        notch = {}
        for power in powers:
            link = LinkConfig(fiber14, max(span_list), power, None)
            for k, (rx,), _ in simulate_link([pert], link, [0], span_list):
                notch[(power, k)] = measure(rx, REGIONS, 10.0).p_n_db
        for power in (-2.0, 2.0, 6.0):
            seq = [notch[(power, k)] for k in span_list]
            assert seq[0] < seq[1] < seq[2]
        for k in span_list:
            seq = [notch[(p, k)] for p in (-2.0, 2.0, 6.0)]
            assert seq[0] < seq[1] < seq[2]
        report("6 ASE independence + NLN growth",
               f"ASE notch spread {spread:.3f} dB; notch APSD strictly "
               f"increasing over powers and spans")

    def test_c7_back_to_back_notch_floor(self):
        cfg = TxConfig(n_symbols=2**15, seed=7)
        ref = generate_reference(cfg)
        pert = apply_perturbation(ref, build_profile(ref, REGIONS, 10.0))
        noisy = add_tx_noise_floor(pert, cfg, 123)
        in_band = apsd(estimate_psd(ref), [REGIONS.f_boi])
        floor = apsd(estimate_psd(noisy), REGIONS.f_n, 0.8)
        assert floor - in_band == pytest.approx(-22.5, abs=0.2)
        report("7 notch floor", f"notch at {floor - in_band:+.3f} dB vs -22.5 dB target")


class TestEstimatorCriteria:
    def test_c9_exact_model_recovery(self):
        rng = np.random.default_rng(12)
        true_k = np.array([37.0, 1.1, -0.6, 0.25, -0.3, 0.2, 0.4])
        rows = []
        for i in range(50):
            feats = np.array([1.0, -135 + rng.normal(0, 2), *(-152 + rng.normal(0, 3, 5))])
            rows.append(FeatureRow(feats[1], tuple(feats[2:]), float(feats @ true_k),
                                   float(i % 5), 1 + i % 7, 4.5))
        coeffs = fit_least_squares(Dataset(rows))
        rel = np.max(np.abs(coeffs.values - true_k) / np.abs(true_k))
        assert rel <= 1e-8
        report("9 exact-model recovery", f"max relative coefficient error {rel:.1e}")

    def test_c10_margin_identity(self):
        baud = 56.8e9
        rng = np.random.default_rng(3)
        snrs = 10 ** (rng.uniform(-2.0, 3.0, size=1000))
        fracs = rng.uniform(0.0, 0.9, size=1000)
        worst = 0.0
        for snr, frac in zip(snrs, fracs):
            snr_prime = perturbed_snr(snr, frac * baud)
            full = baud * math.log2(1.0 + snr)
            reduced = (baud - frac * baud) * math.log2(1.0 + snr_prime)
            worst = max(worst, abs(reduced - full) / full)
        assert worst <= 1e-12
        assert perturbed_snr(0.0, 5e9) == 0.0
        assert perturbed_snr(4.2, 0.0) == 4.2
        report("10 margin identity", f"worst capacity mismatch {worst:.1e} over 1000 queries")


class TestDeskScaleReproduction:
    def test_c8_desk_scale_rmse(self):
        cfg = experiment.desk_preset()
        expected = {(p, nf, s) for p in cfg.powers_dbm for nf in cfg.nf_dbs
                    for s in cfg.spans}
        have = set()
        if DESK_DATASET.exists():
            have = {r.key for r in estimator.load_rows(DESK_DATASET)}
        missing = expected - have

        if missing:
            units = ", ".join(f"({p:+g} dBm, NF {nf:g} dB)"
                              for p, nf in sorted({(p, nf) for p, nf, _ in missing}))
            pytest.fail(
                f"desk dataset lacks {len(missing)} of {len(expected)} scenarios, "
                f"the (power, NF) units {units}; generate with `osnrprobe dataset "
                "--preset desk --out data/desk_dataset.csv` (about 1 min)")

        dataset = Dataset(estimator.load_rows(DESK_DATASET))
        pooled, _ = estimator.cross_validate(dataset)
        assert pooled.rmse_db <= 0.5
        per_power = ", ".join(f"{p:+g}dBm {v:.3f}" for p, v in
                              pooled.per_power_rmse_db.items())
        report("8 desk-scale reproduction",
               f"held-out RMSE {pooled.rmse_db:.3f} dB over {pooled.n_rows} rows "
               f"(per-power: {per_power})")
