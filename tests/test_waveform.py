import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osnrprobe.field import SampledField
from osnrprobe.spectrum import apsd, estimate_psd
from osnrprobe.waveform import (
    REGIONS,
    InfeasiblePerturbationError,
    PerturbationProfile,
    RegionSet,
    TxConfig,
    add_tx_noise_floor,
    apply_perturbation,
    build_profile,
    default_regions,
    delta_b_for,
    generate_reference,
    power_fractions,
    rrc_spectrum,
)

def analytic_region_fraction(intervals):
    """Oracle: quadrature of the analytic raised-cosine spectrum, independent
    of any FFT code path."""
    grid = np.linspace(*REGIONS.f_boi, 400001)
    shape = rrc_spectrum(grid)
    total = np.trapezoid(shape, grid)
    part = 0.0
    for lo, hi in intervals:
        sub = np.linspace(lo, hi, 40001)
        part += np.trapezoid(rrc_spectrum(sub), sub)
    return part / total


class TestGenerateReference:
    def test_unit_power(self, reference):
        assert abs(reference.total_power() - 1.0) <= 1e-12

    def test_deterministic(self, tx_cfg):
        a = generate_reference(tx_cfg)
        b = generate_reference(tx_cfg)
        np.testing.assert_array_equal(a.samples_x, b.samples_x)
        np.testing.assert_array_equal(a.samples_y, b.samples_y)

    def test_seeds_differ(self, tx_cfg, reference):
        other = generate_reference(TxConfig(n_symbols=tx_cfg.n_symbols, seed=8))
        assert not np.array_equal(other.samples_x, reference.samples_x)

    def test_sample_rate(self, reference):
        assert reference.sample_rate == pytest.approx(2 * 56.8e9)

    def test_rejects_rough_grid_length(self):
        with pytest.raises(ValueError, match="smooth"):
            TxConfig(n_symbols=7)

    def test_spectrum_matches_analytic_rrc(self):
        # 2^17 symbols push the estimator noise well under the 0.2 dB budget.
        cfg = TxConfig(n_symbols=2**17, seed=3)
        trace = estimate_psd(generate_reference(cfg))
        flat_edge = 0.5 * (1 - cfg.rolloff) * cfg.baud_rate
        analytic_db = 10 * math.log10(1.0 / cfg.baud_rate)
        centers = np.arange(-flat_edge + 0.5e9, flat_edge - 0.5e9, 100e6)
        devs = [apsd(trace, [(c - 50e6, c + 50e6)]) - analytic_db for c in centers]
        assert math.sqrt(np.mean(np.square(devs))) <= 0.2


class TestPowerFractions:
    def test_full_band_region(self, reference):
        full = RegionSet(f_a=(REGIONS.f_boi,), f_b=(), f_n=(), f_boi=REGIONS.f_boi)
        k_a, k_b, k_n = power_fractions(reference, full)
        assert k_a == pytest.approx(1.0, abs=1e-12)
        assert k_b == k_n == 0.0

    def test_default_geometry_matches_quadrature(self, reference, regions):
        k_a, k_b, k_n = power_fractions(reference, regions)
        # both boost bands sit in the flat part: analytic value is 2/56.8
        k_a_oracle = analytic_region_fraction(regions.f_a)
        k_n_oracle = analytic_region_fraction(regions.f_n)
        assert k_a_oracle == pytest.approx(2.0 / 56.8, rel=1e-4)
        assert k_a == pytest.approx(k_a_oracle, rel=0.10)
        assert k_n == pytest.approx(k_n_oracle, rel=0.10)
        assert k_a + k_b + k_n == pytest.approx(1.0, abs=1e-9)


class TestDeltaB:
    def test_zero_boost_sends_power_to_b(self):
        assert delta_b_for(0.0, 0.1, 0.5) == pytest.approx(2.0)

    def test_matches_paper_scale_numbers(self):
        assert delta_b_for(10.0, 0.0352, 0.9296) == pytest.approx(0.697, abs=1e-3)

    def test_boundary_is_infeasible(self):
        with pytest.raises(InfeasiblePerturbationError):
            delta_b_for(10.0, 0.1, 0.5)

    def test_empty_region_b(self):
        with pytest.raises(InfeasiblePerturbationError):
            delta_b_for(1.0, 0.5, 0.0)


class TestApplyPerturbation:
    def test_identity_profile_roundtrip(self, reference):
        lo, hi = REGIONS.f_boi
        no_notch = RegionSet(
            f_a=((11e9, 12e9), (14e9, 15e9)),
            f_n=(),
            f_b=((lo, 11e9), (12e9, 14e9), (15e9, hi)),
            f_boi=(lo, hi),
        )
        k_a, k_b, _ = power_fractions(reference, no_notch)
        profile = PerturbationProfile(1.0, 1.0, no_notch, k_a, k_b)
        out = apply_perturbation(reference, profile)
        scale = np.max(np.abs(reference.samples_x))
        assert np.max(np.abs(out.samples_x - reference.samples_x)) <= 1e-12 * scale
        assert np.max(np.abs(out.samples_y - reference.samples_y)) <= 1e-12 * scale

    def test_notch_spectrally_zeroed(self, reference, regions):
        pert = apply_perturbation(reference, build_profile(reference, regions, 10.0))
        p_boi_ref = apsd(estimate_psd(reference), [regions.f_boi])
        p_notch = apsd(estimate_psd(pert), regions.f_n, 0.8)
        assert p_notch < p_boi_ref - 60.0

    def test_out_of_band_bins_untouched(self, tx_cfg, regions):
        # needs a field with genuine out-of-band content, unlike the shaped
        # reference whose spectrum is zero there
        rng = np.random.default_rng(2)
        n = tx_cfg.n_symbols * tx_cfg.samples_per_symbol
        fld = SampledField(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           tx_cfg.sample_rate)
        out = apply_perturbation(fld, build_profile(fld, regions, 10.0))
        freqs = np.fft.fftfreq(len(fld), 1 / fld.sample_rate)
        outside = (freqs < regions.f_boi[0]) | (freqs >= regions.f_boi[1])
        before = np.fft.fft(fld.samples_x)[outside]
        after = np.fft.fft(out.samples_x)[outside]
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))

    def test_profile_invariant_enforced(self, regions):
        with pytest.raises(InfeasiblePerturbationError, match="not conserved"):
            PerturbationProfile(10.0, 1.0, regions, 0.0352, 0.9296)


class TestNoiseFloor:
    def test_disabled_is_identity(self, reference):
        cfg = TxConfig(n_symbols=2**14, nfl_rel_db=None)
        out = add_tx_noise_floor(reference, cfg, 1)
        np.testing.assert_array_equal(out.samples_x, reference.samples_x)
        # None is the only way to say "off"
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="nfl_rel_db"):
                TxConfig(n_symbols=2**14, nfl_rel_db=bad)

    def test_two_seeds_same_power_different_noise(self, reference, tx_cfg):
        a = add_tx_noise_floor(reference, tx_cfg, 1)
        b = add_tx_noise_floor(reference, tx_cfg, 2)
        assert not np.array_equal(a.samples_x, b.samples_x)
        # compare the injected noise alone; a power difference of totals would
        # be swamped by the signal-noise beat term
        pa = np.mean(np.abs(a.samples_x - reference.samples_x) ** 2) + np.mean(
            np.abs(a.samples_y - reference.samples_y) ** 2)
        pb = np.mean(np.abs(b.samples_x - reference.samples_x) ** 2) + np.mean(
            np.abs(b.samples_y - reference.samples_y) ** 2)
        assert abs(10 * math.log10(pa / pb)) <= 0.1


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(delta_db=st.floats(min_value=-10.0, max_value=10.0))
    def test_conservation_any_boost(self, delta_db):
        cfg = TxConfig(n_symbols=2**10, seed=5)
        ref = generate_reference(cfg)
        out = apply_perturbation(ref, build_profile(ref, REGIONS, delta_db))
        assert out.total_power() == pytest.approx(ref.total_power(), rel=1e-9)


class TestRegions:
    def test_tiles_band_of_interest(self, reference):
        # the one probe geometry covers the occupied band, 1.07 x 56.8 GHz,
        # edge to edge with no gap and no overlap: every in-band bin of an
        # FFT grid falls in exactly one of A, B and N
        lo, hi = REGIONS.f_boi
        assert (lo, hi) == pytest.approx((-30.388e9, 30.388e9), rel=1e-12)
        ivs = sorted([*REGIONS.f_a, *REGIONS.f_b, *REGIONS.f_n])
        assert all(a < b for a, b in ivs)
        assert ivs[0][0] == lo and ivs[-1][1] == hi
        assert all(prev_hi == next_lo for (_, prev_hi), (next_lo, _) in zip(ivs, ivs[1:]))
        freqs = np.fft.fftfreq(len(reference), 1 / reference.sample_rate)
        m_a, m_b, m_n, m_boi = REGIONS.masks(freqs)
        np.testing.assert_array_equal(m_a.astype(int) + m_b + m_n, m_boi)
        assert default_regions(TxConfig()) is REGIONS
