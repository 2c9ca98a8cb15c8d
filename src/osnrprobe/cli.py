"""Command-line driver: dataset generation, fitting, scoring, and exports."""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import estimator, margin
from .experiment import PRESETS, ExperimentConfig, run_dataset
from .fiberlink import LinkConfig, simulate_link
from .spectrum import estimate_psd
from .waveform import add_tx_noise_floor, apply_perturbation, build_profile, generate_reference


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = PRESETS[args.preset]()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.tx.seed = args.seed
    return cfg


def cmd_dataset(args) -> int:
    cfg = _load_config(args)
    rows = run_dataset(cfg, args.out, workers=args.workers, fft_workers=args.fft_workers)
    try:
        report, _ = estimator.cross_validate(estimator.Dataset(rows, cfg.osnr_cap_db))
    except ValueError as exc:  # too few rows under the cap, or a degenerate grid
        print(f"no cross-validated summary: {exc}")
        return 0
    print(f"cross-validated RMSE: {report.rmse_db:.3f} dB over {report.n_rows} rows "
          f"(bias {report.bias_db:+.3f} dB, max |err| {report.max_abs_error_db:.3f} dB)")
    for power, rmse in report.per_power_rmse_db.items():
        print(f"  launch {power:+g} dBm: RMSE {rmse:.3f} dB")
    return 0


def cmd_fit(args) -> int:
    dataset = estimator.Dataset.from_csv(args.dataset, args.osnr_cap_db)
    if args.mode == "cv":
        report, folds = estimator.cross_validate(dataset, args.folds)
        coeffs = estimator.fit_least_squares(dataset)  # final model on all rows
    else:
        coeffs = estimator.fit_least_squares(dataset)
        report = estimator.evaluate(dataset, coeffs)
    coeffs.save(args.coeffs)
    summary = {"mode": args.mode, **report.as_dict(), "coefficients": coeffs.as_dict()}
    print(json.dumps(summary, indent=2))
    if args.report:
        report.save_csv(args.report)
    return 0


def cmd_eval(args) -> int:
    dataset = estimator.Dataset.from_csv(args.dataset, args.osnr_cap_db)
    coeffs = estimator.FitCoefficients.load(args.coeffs)
    report = estimator.evaluate(dataset, coeffs)
    print(json.dumps(report.as_dict(), indent=2))
    if args.report:
        report.save_csv(args.report)
    return 0


def cmd_margin(args) -> int:
    snr_grid = np.arange(args.snr_min_db, args.snr_max_db + 1e-9, args.snr_step_db)
    rows = margin.margin_curve(
        args.baud_rate,
        [b * 1e9 for b in args.bwd_ghz],
        [float(s) for s in snr_grid],
    )
    margin.save_margin_csv(rows, args.out)
    print(f"wrote {len(rows)} margin points to {args.out}")
    return 0


def cmd_psd(args) -> int:
    cfg = _load_config(args)
    regions = cfg.region_set()
    ref = generate_reference(cfg.tx)
    profile = build_profile(ref, regions, args.delta_db)
    tx = add_tx_noise_floor(apply_perturbation(ref, profile), cfg.tx,
                            np.random.SeedSequence((cfg.seed, 0x0F1, 0, 0, 0)))
    nf = None if args.no_ase else args.nf_db
    link = LinkConfig(cfg.fiber, args.spans, args.power_dbm, nf, ase_seed=cfg.seed)
    rx = simulate_link(tx, link, dtype=cfg.dtype)
    estimate_psd(rx).save_csv(args.out)
    print(f"wrote received PSD trace to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osnrprobe",
        description="Perturbation-probe OSNR estimation over simulated fiber links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", default="desk", choices=sorted(PRESETS))
    common.add_argument("--config", help="JSON experiment config (overrides --preset)")
    common.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("dataset", parents=[common],
                       help="simulate the scenario grid into a feature CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1, help="work units run in parallel")
    p.add_argument("--fft-workers", type=int, default=2, help="threads per FFT call")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("fit", help="fit OSNR coefficients from a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--coeffs", required=True, help="output coefficients JSON")
    p.add_argument("--mode", choices=("cv", "fit-all"), default="cv")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--osnr-cap-db", type=float, default=estimator.DEFAULT_OSNR_CAP_DB)
    p.add_argument("--report", help="optional per-row predictions CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score saved coefficients against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--osnr-cap-db", type=float, default=estimator.DEFAULT_OSNR_CAP_DB)
    p.add_argument("--report", help="optional per-row predictions CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("margin", help="export the probe-bandwidth SNR penalty table")
    p.add_argument("--out", required=True)
    p.add_argument("--baud-rate", type=float, default=56.8e9)
    p.add_argument("--bwd-ghz", type=float, nargs="+",
                   default=[b / 1e9 for b in margin.DEFAULT_PROBE_BANDWIDTHS_HZ])
    p.add_argument("--snr-min-db", type=float, default=0.0)
    p.add_argument("--snr-max-db", type=float, default=30.0)
    p.add_argument("--snr-step-db", type=float, default=1.0)
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("psd", parents=[common],
                       help="export one received PSD trace as CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--power-dbm", type=float, default=2.0)
    p.add_argument("--spans", type=int, default=30)
    p.add_argument("--nf-db", type=float, default=4.5)
    p.add_argument("--no-ase", action="store_true",
                   help="disable amplifier noise (noise-free spectra)")
    p.add_argument("--delta-db", type=float, default=10.0)
    p.set_defaults(func=cmd_psd)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
