"""Perturbation-probe OSNR estimation toolkit.

Synthesizes spectrally perturbed DP-QPSK waveforms, propagates them over
amplified multi-span fiber links, measures average PSDs through an emulated
OSA, and recovers OSNR by least-squares regression, exploiting that
nonlinear noise tracks the perturbation while ASE ignores it.
"""

from .field import SampledField
from .waveform import (
    TxConfig,
    RegionSet,
    PerturbationProfile,
    InfeasiblePerturbationError,
    RegionError,
    default_regions,
    generate_reference,
    power_fractions,
    delta_b_for,
    build_profile,
    apply_perturbation,
    add_tx_noise_floor,
)
from .fiberlink import (
    FiberParams,
    LinkConfig,
    propagate,
    simulate_link,
    analytic_osnr,
    REFERENCE_BANDWIDTH_HZ,
)
from .spectrum import PsdTrace, ApsdReport, estimate_psd, apsd, measure
from .estimator import (
    DELTA_GRID_DB,
    FeatureRow,
    FitCoefficients,
    Dataset,
    RankDeficientError,
    build_feature_row,
    fit_least_squares,
    predict_osnr,
    evaluate,
    cross_validate,
)
from .margin import perturbed_snr, margin_curve
from .experiment import ExperimentConfig, desk_preset, paper_preset, run_dataset

__version__ = "0.1.0"
