import math

import pytest
from hypothesis import given, settings, strategies as st

from osnrprobe.margin import (
    DEFAULT_PROBE_BANDWIDTHS_HZ,
    margin_curve,
    perturbed_snr,
    save_margin_csv,
)

BAUD = 56.8e9


class TestPerturbedSnr:
    def test_ten_percent_probe_at_10db(self):
        # frozen oracle: 11^(1/0.9) - 1 evaluated independently
        expected = math.exp(math.log(11.0) / 0.9) - 1.0
        got = perturbed_snr(10.0, 5.68e9)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(13.357, abs=2e-3)
        penalty = 10 * math.log10(got) - 10.0
        assert penalty == pytest.approx(1.258, abs=2e-3)

    def test_rejects_probe_wider_than_band(self):
        with pytest.raises(ValueError, match="probe bandwidth"):
            perturbed_snr(1.0, BAUD)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError, match="snr"):
            perturbed_snr(-0.5, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(snr_db=st.floats(min_value=-20.0, max_value=30.0),
           frac=st.floats(min_value=0.0, max_value=0.9))
    def test_capacity_equivalence(self, snr_db, frac):
        snr = 10.0 ** (snr_db / 10.0)
        bwd = frac * BAUD
        snr_prime = perturbed_snr(snr, bwd)
        full = BAUD * math.log2(1.0 + snr)
        reduced = (BAUD - bwd) * math.log2(1.0 + snr_prime)
        assert reduced == pytest.approx(full, rel=1e-12)


class TestMarginCurve:
    def test_zero_bandwidth_zero_penalty(self):
        for snr_db in (0.0, 10.0, 20.0):
            snr = 10.0 ** (snr_db / 10.0)
            penalty = 10 * math.log10(perturbed_snr(snr, 0.0)) - snr_db
            assert penalty == pytest.approx(0.0, abs=1e-12)

    def test_penalty_grows_with_bandwidth(self):
        penalties = [p for snr_db, _, p in margin_curve() if snr_db == 15.0]
        assert len(penalties) == len(DEFAULT_PROBE_BANDWIDTHS_HZ)
        assert penalties == sorted(penalties)
        assert penalties[0] < penalties[-1]

    def test_penalty_grows_with_snr(self):
        penalties = [p for snr_db, bwd, p in margin_curve() if bwd == 5.68e9 and snr_db >= 1]
        assert len(penalties) == 30
        assert all(b > a for a, b in zip(penalties, penalties[1:]))

    def test_csv_export(self, tmp_path):
        path = tmp_path / "margin.csv"
        save_margin_csv(margin_curve(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,bwd_pert_hz,penalty_db"
        assert len(lines) == 1 + len(DEFAULT_PROBE_BANDWIDTHS_HZ) * 31
