"""Command-line driver: dataset generation, fitting, scoring, and exports."""

import argparse
import dataclasses
import json
import sys

from . import estimator, margin
from .experiment import PRESETS, ExperimentConfig, _nfl_seed, run_dataset
from .fiberlink import LinkConfig, simulate_link
from .spectrum import estimate_psd
from .waveform import (REGIONS, add_tx_noise_floor, apply_perturbation, build_profile,
                       generate_reference)


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else PRESETS[args.preset]()
    if args.seed is not None:  # through the constructors, so their checks see it
        cfg = dataclasses.replace(cfg, seed=args.seed,
                                  tx=dataclasses.replace(cfg.tx, seed=args.seed))
    return cfg


def cmd_dataset(args) -> int:
    cfg = _load_config(args)
    rows = run_dataset(cfg, args.out, workers=args.workers, fft_workers=args.fft_workers)
    try:
        report, _ = estimator.cross_validate(estimator.Dataset(rows))
    except ValueError as exc:  # too few rows under the cap, or a degenerate grid
        print(f"no cross-validated summary: {exc}")
        return 0
    print(f"cross-validated RMSE: {report.rmse_db:.3f} dB over {report.n_rows} rows "
          f"(bias {report.bias_db:+.3f} dB, max |err| {report.max_abs_error_db:.3f} dB)")
    for power, rmse in report.per_power_rmse_db.items():
        print(f"  launch {power:+g} dBm: RMSE {rmse:.3f} dB")
    return 0


def cmd_fit(args) -> int:
    dataset = estimator.Dataset(estimator.load_rows(args.dataset))
    report, _ = estimator.cross_validate(dataset)
    coeffs = estimator.fit_least_squares(dataset)  # final model on all rows
    coeffs.save(args.coeffs)
    summary = {**report.as_dict(), "coefficients": coeffs.as_dict()}
    print(json.dumps(summary, indent=2))
    if args.report:
        report.save_csv(args.report)
    return 0


def cmd_eval(args) -> int:
    dataset = estimator.Dataset(estimator.load_rows(args.dataset))
    coeffs = estimator.FitCoefficients.load(args.coeffs)
    report = estimator.evaluate(dataset, coeffs)
    print(json.dumps(report.as_dict(), indent=2))
    if args.report:
        report.save_csv(args.report)
    return 0


def cmd_margin(args) -> int:
    rows = margin.margin_curve()
    margin.save_margin_csv(rows, args.out)
    print(f"wrote {len(rows)} margin points to {args.out}")
    return 0


def cmd_psd(args) -> int:
    cfg = _load_config(args)
    ref = generate_reference(cfg.tx)
    profile = build_profile(ref, REGIONS, args.delta_db)
    tx = add_tx_noise_floor(apply_perturbation(ref, profile), cfg.tx, _nfl_seed(cfg, 0, 0, 0))
    link = LinkConfig(cfg.fiber, args.spans, args.power_dbm, None if args.no_ase else args.nf_db)
    (_, (rx,), _), = simulate_link([tx], link, [cfg.seed], [args.spans])
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
    p.add_argument("--report", help="optional per-row held-out predictions CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score saved coefficients against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--report", help="optional per-row predictions CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("margin", help="export the probe-bandwidth SNR penalty table")
    p.add_argument("--out", required=True)
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
