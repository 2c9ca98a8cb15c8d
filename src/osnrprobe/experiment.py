"""Experiment configuration, presets, and the scenario-grid dataset runner.

A dataset run sweeps the (launch power, span count, noise figure) grid; for
every scenario the five probe spectra are synthesized, propagated, and
measured, producing one feature row. The reference waveform and the five
probe profiles (one per boost of `estimator.DELTA_GRID_DB`) are built once
per run, before any propagation, so an infeasible boost fails in
milliseconds. Scenarios sharing launch power and NF differ only in span
count, so each (power, NF) work unit writes its five probes into one
(10, N) stack and drives `fiberlink.propagate` once up to the largest span
count, measuring every probe at each requested intermediate count.
Per-probe, per-span ASE seeding makes this bit-identical to simulating
each probe and span count separately.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import estimator
from .estimator import DELTA_GRID_DB, build_feature_row
from .field import SampledField
from .fiberlink import FiberParams, LinkConfig, analytic_osnr, propagate
from .spectrum import measure
from .waveform import (InfeasiblePerturbationError, RegionSet, TxConfig,
                       add_tx_noise_floor, apply_perturbation, build_profile,
                       default_regions, generate_reference)

SCHEMA_VERSION = 2


@dataclass
class ExperimentConfig:
    """Everything a dataset run needs, JSON round-trippable. Every field
    changes the simulated rows; the probe grid is `DELTA_GRID_DB` and the
    OSNR cap is the estimator's, set when fitting."""

    tx: TxConfig = field(default_factory=TxConfig)
    fiber: FiberParams = field(default_factory=FiberParams)
    powers_dbm: tuple = (-2.0, 0.0, 2.0, 4.0, 6.0)
    spans: tuple = tuple(range(1, 31))
    nf_dbs: tuple = (4.5, 5.5, 6.5, 7.5)
    regions: Optional[RegionSet] = None   # default probe geometry when None
    seed: int = 1234
    precision: str = "double"             # propagation dtype: "single" | "double"

    def __post_init__(self):
        self.powers_dbm = tuple(float(p) for p in self.powers_dbm)
        self.spans = tuple(int(s) for s in self.spans)
        self.nf_dbs = tuple(float(v) for v in self.nf_dbs)
        if not (self.powers_dbm and self.spans and self.nf_dbs):
            raise ValueError("all scenario grids must be non-empty")
        if min(self.spans) < 1:
            raise ValueError("span counts must be >= 1")
        if self.precision not in ("single", "double"):
            raise ValueError("precision must be 'single' or 'double'")

    @property
    def dtype(self):
        return np.complex64 if self.precision == "single" else np.complex128

    def region_set(self) -> RegionSet:
        return self.regions if self.regions is not None else default_regions(self.tx)

    def to_json(self, path=None) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tx": asdict(self.tx),
            "fiber": asdict(self.fiber),
            "powers_dbm": list(self.powers_dbm),
            "spans": list(self.spans),
            "nf_dbs": list(self.nf_dbs),
            "regions": asdict(self.regions) if self.regions is not None else None,
            "seed": self.seed,
            "precision": self.precision,
        }
        text = json.dumps(doc, indent=2) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        """Load from a path, or from JSON text (anything starting with '{')."""
        text = str(source)
        if isinstance(source, os.PathLike) or not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        doc = json.loads(text)
        version = doc.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema_version {version!r}")
        doc["tx"] = TxConfig(**doc["tx"])
        doc["fiber"] = FiberParams(**doc["fiber"])
        if doc.get("regions") is not None:
            doc["regions"] = RegionSet(**doc["regions"])
        return cls(**doc)


def desk_preset() -> ExperimentConfig:
    """Reduced grid that a workstation can turn around: 2^14 symbols at the
    default 2 samples/symbol (N = 2^15), the default 0.5 km step (200 per
    span), seven span counts, single-precision propagation. The 140
    scenarios took 8.6 min on a shared 2-core machine with two worker
    processes and one FFT thread each."""
    return ExperimentConfig(
        tx=TxConfig(n_symbols=2**14, seed=1234),
        spans=(1, 5, 10, 15, 20, 25, 30),
        precision="single",
    )


def paper_preset() -> ExperimentConfig:
    """Full-scale grid: 2^17 symbols at the default 2 samples/symbol
    (N = 2^18), the default 0.5 km step (200 per span), spans 1..30, single
    precision. One span of a work unit's (10, N) stack took 18 s with one
    FFT thread on a shared 2-core machine, so the 20 units are about 3 h
    serial."""
    return ExperimentConfig(
        tx=TxConfig(n_symbols=2**17, seed=1234),
        spans=tuple(range(1, 31)),
        precision="single",
    )


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def _nfl_seed(cfg: ExperimentConfig, ip: int, inf_: int, idelta: int):
    return np.random.SeedSequence((cfg.seed, 0x0F1, ip, inf_, idelta))


def _chain_ase_seed(cfg: ExperimentConfig, ip: int, inf_: int, idelta: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, 0xACE, ip, inf_, idelta)).generate_state(1)[0])


def _scenario_key(power: float, nf: float, spans: int):
    return (repr(float(power)), repr(float(nf)), int(spans))


def _probe_profiles(cfg: ExperimentConfig, ref: SampledField) -> list:
    """One profile per boost of DELTA_GRID_DB; raises before any propagation
    if a boost is infeasible for the configured regions."""
    regions = cfg.region_set()
    profiles = []
    for delta_db in DELTA_GRID_DB:
        try:
            profiles.append(build_profile(ref, regions, delta_db))
        except InfeasiblePerturbationError as exc:
            raise InfeasiblePerturbationError(
                f"every scenario (power={list(cfg.powers_dbm)} dBm, "
                f"nf={list(cfg.nf_dbs)} dB) delta_A={delta_db:+g} dB: {exc}") from exc
    return profiles


def _run_unit(cfg: ExperimentConfig, ip: int, inf_: int, ref: SampledField,
              profiles: list, fft_workers: int):
    """Simulate all probes of one (power, NF) pair as one stack; return its
    rows and the largest nonlinear phase of any split step (rad)."""
    power = cfg.powers_dbm[ip]
    nf = cfg.nf_dbs[inf_]
    regions = cfg.region_set()
    link = LinkConfig(cfg.fiber, max(cfg.spans), power, nf)
    stack = np.empty((2 * len(profiles), len(ref)), cfg.dtype)
    for idelta, profile in enumerate(profiles):
        tx = add_tx_noise_floor(apply_perturbation(ref, profile), cfg.tx,
                                _nfl_seed(cfg, ip, inf_, idelta))
        pair = stack[2 * idelta:2 * idelta + 2]
        pair[0], pair[1] = tx.samples_x, tx.samples_y
        pair *= pair.real.dtype.type(math.sqrt(link.launch_power_w / tx.total_power()))
    ase_seeds = [_chain_ase_seed(cfg, ip, inf_, idelta) for idelta in range(len(profiles))]
    reports = {spans: [] for spans in cfg.spans}
    for k, _, max_phi in propagate(stack, ref.sample_rate, cfg.spans, fiber=cfg.fiber,
                                   amp=link.amp, ase_seeds=ase_seeds,
                                   carrier_hz=link.center_freq, workers=fft_workers):
        for idelta, delta_db in enumerate(DELTA_GRID_DB):
            fld = SampledField(stack[2 * idelta].astype(complex),
                               stack[2 * idelta + 1].astype(complex),
                               ref.sample_rate, link.center_freq)
            reports[k].append(measure(fld, regions, delta_db,
                                      scenario=f"p{power:+g}dBm_nf{nf:g}dB_{k}spans"))
    rows = []
    for spans in cfg.spans:
        truth = analytic_osnr(LinkConfig(cfg.fiber, spans, power, nf))
        rows.append(build_feature_row(reports[spans], truth, (power, spans, nf)))
    return rows, max_phi


def run_dataset(cfg: ExperimentConfig, out_path, workers: int = 1,
                fft_workers: int = 2, log=print) -> list:
    """Run the scenario grid and persist feature rows as CSV.

    Resumable: rows already present in out_path are kept and their (power,
    NF) work units skipped, so interrupting and rerunning converges to the
    identical file an uninterrupted run would have produced.
    """
    out_path = Path(out_path)
    ref = generate_reference(cfg.tx)
    profiles = _probe_profiles(cfg, ref)
    grid_keys = {_scenario_key(p, nf, s) for p in cfg.powers_dbm
                 for nf in cfg.nf_dbs for s in cfg.spans}
    rows_by_key = {}
    dropped = 0
    if out_path.exists():
        for row in estimator.load_rows(out_path):
            key = _scenario_key(row.launch_power_dbm, row.nf_db, row.n_spans)
            if key in grid_keys:
                rows_by_key[key] = row
            else:
                dropped += 1
        if rows_by_key:
            log(f"resuming: {len(rows_by_key)} rows already in {out_path}")
        if dropped:
            log(f"dropping {dropped} rows outside the configured grid")

    units = []
    for ip, power in enumerate(cfg.powers_dbm):
        for inf_, nf in enumerate(cfg.nf_dbs):
            have_all = all(_scenario_key(power, nf, s) in rows_by_key for s in cfg.spans)
            if not have_all:
                units.append((ip, inf_))

    def store(unit_rows=()):
        for row in unit_rows:
            rows_by_key[_scenario_key(row.launch_power_dbm, row.nf_db, row.n_spans)] = row
        out_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = out_path.with_suffix(out_path.suffix + ".tmp")
        estimator.save_rows(list(rows_by_key.values()), tmp)
        os.replace(tmp, out_path)

    if not units:
        if dropped:
            store()
        log("dataset already complete; no simulations to run")
        return list(rows_by_key.values())

    def unit_done(n, ip, inf_, max_phi, what):
        log(f"[{n}/{len(units)}] power={cfg.powers_dbm[ip]:+g} dBm "
            f"nf={cfg.nf_dbs[inf_]:g} dB {what}; {cfg.fiber.steps_per_span} "
            f"steps/span, max nonlinear phase {max_phi:.3g} rad/step")

    started = time.monotonic()
    if workers <= 1:
        for n, (ip, inf_) in enumerate(units, 1):
            t0 = time.monotonic()
            unit_rows, max_phi = _run_unit(cfg, ip, inf_, ref, profiles, fft_workers)
            store(unit_rows)
            unit_done(n, ip, inf_, max_phi, f"done in {time.monotonic() - t0:.1f}s")
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_unit, cfg, ip, inf_, ref, profiles,
                                   fft_workers): (ip, inf_)
                       for ip, inf_ in units}
            for n, fut in enumerate(as_completed(futures), 1):
                ip, inf_ = futures[fut]
                unit_rows, max_phi = fut.result()
                store(unit_rows)
                unit_done(n, ip, inf_, max_phi, "collected")
    log(f"dataset complete: {len(rows_by_key)} rows in {time.monotonic() - started:.0f}s")
    return list(rows_by_key.values())
