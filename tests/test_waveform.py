import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from hypothesis import given, settings, strategies as st

from osnrprobe.field import SampledField
from osnrprobe.spectrum import apsd, estimate_psd
from osnrprobe.waveform import (
    InfeasiblePerturbationError,
    PerturbationProfile,
    RegionError,
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

DELTA_GRID_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)


def analytic_region_fraction(intervals, cfg):
    """Oracle: quadrature of the analytic raised-cosine spectrum, independent
    of any FFT code path."""
    grid = np.linspace(-cfg.boi_halfwidth, cfg.boi_halfwidth, 400001)
    shape = rrc_spectrum(grid, cfg.baud_rate, cfg.rolloff)
    total = trapezoid(shape, grid)
    part = 0.0
    for lo, hi in intervals:
        sub = np.linspace(lo, hi, 40001)
        part += trapezoid(rrc_spectrum(sub, cfg.baud_rate, cfg.rolloff), sub)
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
    def test_full_band_region(self, reference, tx_cfg):
        half = tx_cfg.boi_halfwidth
        full = RegionSet(f_a=[(-half, half)], f_b=[], f_n=[], f_boi=(-half, half))
        k_a, k_b, k_n = power_fractions(reference, full)
        assert k_a == pytest.approx(1.0, abs=1e-12)
        assert k_b == k_n == 0.0

    def test_default_geometry_matches_quadrature(self, reference, regions, tx_cfg):
        k_a, k_b, k_n = power_fractions(reference, regions)
        # both boost bands sit in the flat part: analytic value is 2/56.8
        k_a_oracle = analytic_region_fraction(regions.f_a, tx_cfg)
        k_n_oracle = analytic_region_fraction(regions.f_n, tx_cfg)
        assert k_a_oracle == pytest.approx(2.0 / 56.8, rel=1e-4)
        assert k_a == pytest.approx(k_a_oracle, rel=0.10)
        assert k_n == pytest.approx(k_n_oracle, rel=0.10)
        assert k_a + k_b + k_n == pytest.approx(1.0, abs=1e-9)

    def test_region_outside_band_rejected(self, reference):
        wild = RegionSet(f_a=[(-100e9, 100e9)], f_b=[], f_n=[], f_boi=(-100e9, 100e9))
        with pytest.raises(RegionError, match="beyond the sampled band"):
            power_fractions(reference, wild)


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
    def test_identity_profile_roundtrip(self, reference, tx_cfg):
        half = tx_cfg.boi_halfwidth
        no_notch = RegionSet(
            f_a=[(11e9, 12e9), (14e9, 15e9)],
            f_n=[],
            f_b=[(-half, 11e9), (12e9, 14e9), (15e9, half)],
            f_boi=(-half, half),
        )
        k_a, k_b, k_n = power_fractions(reference, no_notch)
        profile = PerturbationProfile(1.0, 1.0, 1.0, no_notch, k_a, k_b, k_n)
        out = apply_perturbation(reference, profile)
        scale = np.max(np.abs(reference.samples_x))
        assert np.max(np.abs(out.samples_x - reference.samples_x)) <= 1e-12 * scale
        assert np.max(np.abs(out.samples_y - reference.samples_y)) <= 1e-12 * scale

    @pytest.mark.parametrize("delta_db", DELTA_GRID_DB)
    def test_power_conserved(self, reference, regions, delta_db):
        out = apply_perturbation(reference, build_profile(reference, regions, delta_db))
        assert out.total_power() == pytest.approx(reference.total_power(), rel=1e-6)

    def test_notch_spectrally_zeroed(self, reference, regions):
        pert = apply_perturbation(reference, build_profile(reference, regions, 10.0))
        p_boi_ref = apsd(estimate_psd(reference), [regions.f_boi])
        p_notch = apsd(estimate_psd(pert), regions.f_n, 0.8)
        assert p_notch < p_boi_ref - 60.0

    def test_out_of_band_bins_untouched(self, tx_cfg):
        # needs a field with genuine out-of-band content, unlike the shaped
        # reference whose spectrum is zero there
        rng = np.random.default_rng(2)
        n = tx_cfg.n_symbols * tx_cfg.samples_per_symbol
        fld = SampledField(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           tx_cfg.sample_rate)
        regions = default_regions(tx_cfg)
        out = apply_perturbation(fld, build_profile(fld, regions, 10.0))
        freqs = fld.freqs()
        outside = (freqs < regions.f_boi[0]) | (freqs >= regions.f_boi[1])
        before = np.fft.fft(fld.samples_x)[outside]
        after = np.fft.fft(out.samples_x)[outside]
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))

    def test_profile_invariant_enforced(self, regions):
        with pytest.raises(InfeasiblePerturbationError, match="not conserved"):
            PerturbationProfile(10.0, 1.0, 0.0, regions, 0.0352, 0.9296, 0.0352)


class TestNoiseFloor:
    def test_disabled_is_identity(self, reference):
        cfg = TxConfig(n_symbols=2**14, nfl_rel_db=None)
        out = add_tx_noise_floor(reference, cfg, 1)
        np.testing.assert_array_equal(out.samples_x, reference.samples_x)

    def test_notch_floor_level(self):
        # back-to-back: the notch contains only the transmitter noise floor
        cfg = TxConfig(n_symbols=2**15, seed=7)
        ref = generate_reference(cfg)
        regions = default_regions(cfg)
        pert = apply_perturbation(ref, build_profile(ref, regions, 10.0))
        noisy = add_tx_noise_floor(pert, cfg, 123)
        in_band = apsd(estimate_psd(ref), [regions.f_boi])
        floor = apsd(estimate_psd(noisy), regions.f_n, 0.8)
        assert floor - in_band == pytest.approx(-22.5, abs=0.2)

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


@st.composite
def three_band_geometry(draw):
    """Random disjoint A/N bands in the positive flat region, B covers the rest."""
    half = TxConfig().boi_halfwidth
    edges = sorted(draw(st.lists(
        st.floats(min_value=1e9, max_value=25e9), min_size=4, max_size=4,
        unique=True)))
    a0, a1, n0, n1 = edges
    if a1 - a0 < 1e8 or n1 - n0 < 1e8 or n0 - a1 < 1e8:
        # keep bands wide enough to hold a few FFT bins
        a1, n0, n1 = a0 + 5e8, a0 + 1e9, a0 + 2e9
    return RegionSet(
        f_a=[(a0, a1)],
        f_n=[(n0, n1)],
        f_b=[(-half, a0), (a1, n0), (n1, half)],
        f_boi=(-half, half),
    )


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(delta_db=st.floats(min_value=-10.0, max_value=10.0))
    def test_conservation_any_boost(self, delta_db):
        cfg = TxConfig(n_symbols=2**10, seed=5)
        ref = generate_reference(cfg)
        regions = default_regions(cfg)
        out = apply_perturbation(ref, build_profile(ref, regions, delta_db))
        assert out.total_power() == pytest.approx(ref.total_power(), rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(geometry=three_band_geometry())
    def test_partition_sums_to_one(self, geometry):
        cfg = TxConfig(n_symbols=2**10, seed=5)
        ref = generate_reference(cfg)
        k_a, k_b, k_n = power_fractions(ref, geometry)
        assert k_a + k_b + k_n == pytest.approx(1.0, abs=1e-9)


class TestRegionSet:
    def test_rejects_overlap(self):
        with pytest.raises(RegionError, match="overlap"):
            RegionSet(f_a=[(0.0, 2e9)], f_n=[(1e9, 3e9)], f_b=[(-4e9, 0.0), (3e9, 4e9)],
                      f_boi=(-4e9, 4e9))

    def test_rejects_gap(self):
        with pytest.raises(RegionError, match="gap|span"):
            RegionSet(f_a=[(0.0, 1e9)], f_n=[(2e9, 3e9)], f_b=[(-4e9, 0.0), (3e9, 4e9)],
                      f_boi=(-4e9, 4e9))

    def test_rejects_empty_interval(self):
        with pytest.raises(RegionError, match="empty"):
            RegionSet(f_a=[(1e9, 1e9)], f_n=[], f_b=[(-4e9, 1e9), (1e9, 4e9)],
                      f_boi=(-4e9, 4e9))
