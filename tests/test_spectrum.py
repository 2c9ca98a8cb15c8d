import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import welch

from osnrprobe.field import SampledField
from osnrprobe.fiberlink import FiberParams, LinkConfig, simulate_link
from osnrprobe.spectrum import (
    ApsdReport,
    PsdTrace,
    apsd,
    estimate_psd,
    measure,
    supergaussian_kernel,
    welch_psd,
)
from osnrprobe.waveform import (REGIONS, TxConfig, apply_perturbation, build_profile,
                                generate_reference)


def flat_trace(level=1e-15, n=2001, span=100e9):
    freqs = np.linspace(-span / 2, span / 2, n)
    return PsdTrace(freqs, np.full(n, level))


class TestEstimatePsd:
    def test_white_noise_flat_at_known_density(self):
        s0, fs = 1e-17, 170.4e9
        rng = np.random.default_rng(42)
        sigma = math.sqrt(s0 * fs / 2)
        n = 2**22
        fld = SampledField(sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                           sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                           fs)
        trace = estimate_psd(fld)
        expected = 10 * math.log10(2 * s0)  # both polarizations summed
        for center in (-60e9, -20e9, 0.0, 20e9, 60e9):
            level = apsd(trace, [(center - 0.5e9, center + 0.5e9)])
            assert level == pytest.approx(expected, abs=0.05)

    def test_rrc_in_band_matches_analytic(self, reference, tx_cfg):
        trace = estimate_psd(reference)
        analytic = 10 * math.log10(1.0 / tx_cfg.baud_rate)
        assert apsd(trace, [(-20e9, -16e9)]) == pytest.approx(analytic, abs=0.2)

    def test_boost_band_level_and_notch(self, reference, regions):
        pert = apply_perturbation(reference, build_profile(reference, regions, 10.0))
        tr_ref = estimate_psd(reference)
        tr_pert = estimate_psd(pert)
        # away from the OSA-smeared band edges the boost is exact
        boost = apsd(tr_pert, regions.f_a, 0.8) - apsd(tr_ref, regions.f_a, 0.8)
        assert boost == pytest.approx(10.0, abs=0.1)
        rel_notch = apsd(tr_pert, regions.f_n, 0.8) - apsd(tr_ref, [regions.f_boi])
        assert rel_notch < -40.0

    def test_native_bin_set_by_duration(self):
        # the OSA's resolution is a property of the record, not of the
        # sample rate: 2^14 symbols give the same native bin at 2, 3 and 4
        # samples/symbol
        bins = set()
        for sps in (2, 3, 4):
            fld = generate_reference(TxConfig(n_symbols=2**14, seed=7,
                                              samples_per_symbol=sps))
            freqs = estimate_psd(fld).freqs
            bins.add(round(float(freqs[1] - freqs[0])))
        assert bins == {round(56.8e9 / 2**11)}

    @pytest.mark.parametrize("n, fs, nperseg", [
        (2**15, 113.6e9, 2**12),      # desk record: 15 segments
        (3 * 2**14, 170.4e9, 3 * 2**11),  # 3 samples/symbol
        (3**10, 170.4e9, 3**10),      # one segment of odd length
        (2**18, 113.6e9, 2**12),      # paper record: 127 segments
    ])
    def test_welch_matches_scipy_bit_for_bit(self, n, fs, nperseg):
        rng = np.random.default_rng(n)
        fld = SampledField(*(rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))), fs)
        freqs, pxx = welch_psd(fld, nperseg)
        for samples, row in zip((fld.samples_x, fld.samples_y), pxx):
            f_ref, p_ref = welch(samples, fs=fs, window="hann", nperseg=nperseg,
                                 noverlap=nperseg // 2, detrend=False,
                                 return_onesided=False, scaling="density")
            assert np.array_equal(freqs, f_ref)
            assert np.array_equal(row, p_ref)
        # estimate_psd picks this segment for this record
        assert np.array_equal(estimate_psd(fld).freqs, np.sort(freqs))

    def test_rejects_short_field(self):
        short = SampledField(np.zeros(4096, complex), np.zeros(4096, complex), 170.4e9)
        with pytest.raises(ValueError, match="too short"):
            estimate_psd(short)

    def test_parseval(self, reference):
        trace = estimate_psd(reference)
        assert trace.total_power() == pytest.approx(reference.total_power(), rel=0.01)

    def test_kernel_preserves_flat_levels(self):
        kernel = supergaussian_kernel(df=20.8e6)
        flat = np.full(4096, 3.7e-16)
        smoothed = np.convolve(flat, kernel, mode="same")
        margin = len(kernel)
        interior = smoothed[margin:-margin]
        dev_db = 10 * np.log10(interior / 3.7e-16)
        assert np.max(np.abs(dev_db)) <= 0.01

    def test_kernel_width(self):
        # value at +-75 MHz off center must be half the peak (3 dB full width)
        df = 1e6
        kernel = supergaussian_kernel(df=df)
        center = len(kernel) // 2
        assert kernel[center + 75] / kernel[center] == pytest.approx(0.5, rel=1e-6)


class TestApsd:
    def test_flat_trace_exact(self):
        trace = flat_trace(level=2.5e-16)
        expected = 10 * math.log10(2.5e-16)
        assert apsd(trace, [(-10e9, 5e9)]) == pytest.approx(expected, abs=1e-12)
        assert apsd(trace, [(-10e9, -5e9), (5e9, 30e9)], 0.8) == pytest.approx(
            expected, abs=1e-12)

    def test_region_outside_support(self):
        trace = flat_trace(span=10e9)
        with pytest.raises(ValueError, match="outside the trace"):
            apsd(trace, [(4e9, 6e9)])

    def test_bad_inner_fraction(self):
        trace = flat_trace()
        with pytest.raises(ValueError, match="inner_fraction"):
            apsd(trace, [(0.0, 1e9)], 0.0)

    def test_empty_region(self):
        trace = flat_trace()
        with pytest.raises(ValueError, match="empty region"):
            apsd(trace, [])

    @settings(max_examples=30, deadline=None)
    @given(level_exp=st.floats(min_value=-20.0, max_value=-10.0),
           lo=st.floats(min_value=-45e9, max_value=40e9),
           width=st.floats(min_value=1e8, max_value=5e9),
           frac=st.floats(min_value=0.1, max_value=1.0))
    def test_flat_trace_any_region(self, level_exp, lo, width, frac):
        level = 10.0**level_exp
        trace = flat_trace(level=level)
        got = apsd(trace, [(lo, lo + width)], frac)
        assert got == pytest.approx(10 * math.log10(level), abs=1e-9)


class TestMeasure:
    def test_linear_link_floor_exceeds_40db(self):
        cfg = TxConfig(n_symbols=2**13, seed=7, nfl_rel_db=None)
        ref = generate_reference(cfg)
        pert = apply_perturbation(ref, build_profile(ref, REGIONS, 10.0))
        link = LinkConfig(FiberParams(gamma=0.0, step_km=10.0), 2, 2.0, None)
        (_, (rx,), _), = simulate_link([pert], link, [0], [2])
        report = measure(rx, REGIONS, 10.0)
        assert report.p_ref_db - report.p_n_db >= 40.0

    def test_contrast_shrinks_with_span_count(self, regions):
        # notch fills with nonlinear noise span after span
        cfg = TxConfig(n_symbols=2**14, seed=7, nfl_rel_db=None)
        ref = generate_reference(cfg)
        pert = apply_perturbation(ref, build_profile(ref, regions, 10.0))
        link = LinkConfig(FiberParams(), 6, 2.0, None)  # the converged default step
        # one noiseless 6-span run read at 1, 3 and 6 spans
        contrasts = []
        for _, (rx,), _ in simulate_link([pert], link, [0], (1, 3, 6)):
            rep = measure(rx, regions, 10.0)
            contrasts.append(rep.p_ref_db - rep.p_n_db)
        assert contrasts[0] > contrasts[1] > contrasts[2]


class TestTypes:
    def test_trace_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            PsdTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="increasing"):
            PsdTrace(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_trace_csv(self, tmp_path):
        trace = flat_trace(n=11)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,psd_w_per_hz"
        assert len(lines) == 12

    def test_report_sanity_bound(self):
        with pytest.raises(ValueError, match="implausibly"):
            ApsdReport(p_ref_db=-200.0, p_n_db=-100.0, delta_a_db=0.0)
