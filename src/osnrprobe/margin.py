"""SNR margin required when part of the symbol rate is spent on probing.

Giving up a slice of bandwidth while holding capacity constant forces the
remaining band to run at a higher SNR; the mapping follows from equating the
Shannon capacities of the full and reduced bands.
"""

import csv
import math

from .waveform import TxConfig

DEFAULT_PROBE_BANDWIDTHS_HZ = (0.5e9, 1e9, 2e9, 4e9, 5.68e9)
SNR_GRID_DB = tuple(range(0, 31))  # 0..30 dB in 1 dB steps


def perturbed_snr(snr_linear: float, probe_bandwidth: float) -> float:
    """Linear SNR that keeps capacity unchanged when probe_bandwidth (Hz) of
    the one signal's baud rate B is given up: (1 + SNR)^(B / (B - bwd)) - 1."""
    baud_rate = TxConfig.baud_rate
    if snr_linear < 0:
        raise ValueError("snr_linear must be >= 0")
    if not 0 <= probe_bandwidth < baud_rate:
        raise ValueError(f"probe bandwidth must satisfy 0 <= bwd < baud rate {baud_rate:g} Hz, "
                         f"got {probe_bandwidth:g} Hz")
    return (1.0 + snr_linear) ** (baud_rate / (baud_rate - probe_bandwidth)) - 1.0


def margin_curve() -> list:
    """The penalty table (snr_db, bwd_pert_hz, penalty_db) for plotting:
    every DEFAULT_PROBE_BANDWIDTHS_HZ against every SNR_GRID_DB value, 155
    rows.

    penalty_db is the dB difference between the capacity-equivalent SNR on
    the reduced band and the unperturbed SNR.
    """
    rows = []
    for bwd in DEFAULT_PROBE_BANDWIDTHS_HZ:
        for snr_db in SNR_GRID_DB:
            snr = 10.0 ** (snr_db / 10.0)
            snr_prime = perturbed_snr(snr, bwd)
            penalty = 10.0 * math.log10(snr_prime) - 10.0 * math.log10(snr)
            rows.append((float(snr_db), float(bwd), penalty))
    return rows


def save_margin_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "bwd_pert_hz", "penalty_db"])
        for snr_db, bwd, penalty in rows:
            writer.writerow([repr(snr_db), repr(bwd), repr(penalty)])
