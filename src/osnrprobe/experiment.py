"""Experiment configuration, presets, and the scenario-grid dataset runner.

A dataset run sweeps the (launch power, span count, noise figure) grid; for
every scenario the five probe spectra are synthesized, propagated, and
measured, producing one feature row. The reference waveform and the five
probe profiles (one per boost of `estimator.DELTA_GRID_DB`, on the one
probe geometry `waveform.REGIONS`) are built once per run, before
any propagation. Scenarios sharing launch power and NF differ only in span
count, so each (power, NF) work unit launches its five probes as one
(10, N) stack through `fiberlink.simulate_link` once up to the largest span
count, measuring every probe at each requested intermediate count.
Per-probe, per-span ASE seeding makes this bit-identical to simulating
each probe and span count separately.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import estimator
from .estimator import DELTA_GRID_DB, build_feature_row
from .field import SampledField
from .fiberlink import FiberParams, LinkConfig, analytic_osnr, simulate_link
from .spectrum import MIN_FIELD_SAMPLES, measure
from .waveform import (REGIONS, TxConfig, add_tx_noise_floor, apply_perturbation,
                       build_profile, generate_reference)

SCHEMA_VERSION = 4


@dataclass
class ExperimentConfig:
    """Everything a dataset run needs, JSON round-trippable. Every field
    changes the simulated rows; the signal, the probe geometry, the probe
    grid and the OSNR cap are constants. A record too short to measure, a
    lossless fiber or a grid that repeats a value is rejected here, before
    anything propagates."""

    tx: TxConfig = field(default_factory=TxConfig)
    fiber: FiberParams = field(default_factory=FiberParams)
    powers_dbm: tuple = (-2.0, 0.0, 2.0, 4.0, 6.0)
    spans: tuple = tuple(range(1, 31))
    nf_dbs: tuple = (4.5, 5.5, 6.5, 7.5)
    seed: int = 1234

    def __post_init__(self):
        self.powers_dbm = tuple(float(p) for p in self.powers_dbm)
        self.spans = tuple(int(s) for s in self.spans)
        self.nf_dbs = tuple(float(v) for v in self.nf_dbs)
        if not (self.powers_dbm and self.spans and self.nf_dbs):
            raise ValueError("all scenario grids must be non-empty")
        for name in ("powers_dbm", "spans", "nf_dbs"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        if min(self.spans) < 1:
            raise ValueError("span counts must be >= 1")
        if not all(math.isfinite(p) for p in self.powers_dbm):
            raise ValueError(f"launch powers must be finite, got {list(self.powers_dbm)} dBm")
        if not self.fiber.span_loss_db > 0:
            raise ValueError(f"span loss must be positive, got {self.fiber.span_loss_db:g} dB: "
                             "each EDFA restores it, so a lossless span adds no ASE")
        for nf in self.nf_dbs:
            LinkConfig(self.fiber, 1, 0.0, nf)  # rejects a noise figure under the quantum limit
        n = self.tx.n_symbols * self.tx.samples_per_symbol
        if n < MIN_FIELD_SAMPLES:
            raise ValueError(f"record of {n} samples too short for PSD estimation "
                             f"(needs >= {MIN_FIELD_SAMPLES})")

    dtype = np.complex64  # not a field: perfbench reads it; simulate_link always runs complex64

    def to_json(self, path=None) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tx": asdict(self.tx),
            "fiber": asdict(self.fiber),
            "powers_dbm": list(self.powers_dbm),
            "spans": list(self.spans),
            "nf_dbs": list(self.nf_dbs),
            "seed": self.seed,
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
        doc["tx"] = TxConfig(**_known_keys(TxConfig, doc["tx"], "tx"))
        doc["fiber"] = FiberParams(**_known_keys(FiberParams, doc["fiber"], "fiber"))
        return cls(**_known_keys(cls, doc, "config"))


def _known_keys(kind, doc: dict, where: str) -> dict:
    """doc, once it is an object and every key in it is a field of the
    dataclass `kind`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(doc)}")
    unknown = sorted(set(doc) - {f.name for f in fields(kind)})
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown} for schema_version "
                         f"{SCHEMA_VERSION}")
    return doc


def desk_preset() -> ExperimentConfig:
    """Reduced grid that a workstation can turn around: 2^14 symbols at the
    default 2 samples/symbol (N = 2^15), the default 0.5 km step (200 per
    span), seven span counts. The 140 scenarios took 8.6 min on a shared
    2-core machine with two worker processes and one FFT thread each."""
    return ExperimentConfig(
        tx=TxConfig(n_symbols=2**14, seed=1234),
        spans=(1, 5, 10, 15, 20, 25, 30),
    )


def paper_preset() -> ExperimentConfig:
    """Full-scale grid: 2^17 symbols at the default 2 samples/symbol
    (N = 2^18), the default 0.5 km step (200 per span), spans 1..30. One
    span of a work unit's (10, N) stack took 18 s with one FFT thread on a
    shared 2-core machine, so the 20 units are about 3 h serial."""
    return ExperimentConfig(
        tx=TxConfig(n_symbols=2**17, seed=1234),
        spans=tuple(range(1, 31)),
    )


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def _nfl_seed(cfg: ExperimentConfig, ip: int, inf_: int, idelta: int):
    return np.random.SeedSequence((cfg.seed, 0x0F1, ip, inf_, idelta))


def _chain_ase_seed(cfg: ExperimentConfig, ip: int, inf_: int, idelta: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, 0xACE, ip, inf_, idelta)).generate_state(1)[0])


def _scenario_key(power: float, nf: float, spans: int):
    return (repr(float(power)), repr(float(nf)), int(spans))


def _run_unit(cfg: ExperimentConfig, ip: int, inf_: int, ref: SampledField,
              profiles: list, fft_workers: int):
    """Simulate all probes of one (power, NF) pair as one stack; return its
    rows, the largest nonlinear phase of any split step (rad) and its wall
    time (s)."""
    started = time.monotonic()
    power = cfg.powers_dbm[ip]
    nf = cfg.nf_dbs[inf_]
    link = LinkConfig(cfg.fiber, max(cfg.spans), power, nf)
    probes = (add_tx_noise_floor(apply_perturbation(ref, profile), cfg.tx,
                                 _nfl_seed(cfg, ip, inf_, idelta))
              for idelta, profile in enumerate(profiles))
    ase_seeds = [_chain_ase_seed(cfg, ip, inf_, idelta) for idelta in range(len(profiles))]
    reports = {spans: [] for spans in cfg.spans}
    for k, received, max_phi in simulate_link(probes, link, ase_seeds, cfg.spans,
                                              workers=fft_workers):
        for fld, delta_db in zip(received, DELTA_GRID_DB):
            reports[k].append(measure(fld, REGIONS, delta_db))
    rows = []
    for spans in cfg.spans:
        truth = analytic_osnr(LinkConfig(cfg.fiber, spans, power, nf))
        rows.append(build_feature_row(reports[spans], truth, (power, spans, nf)))
    return rows, max_phi, time.monotonic() - started


def run_dataset(cfg: ExperimentConfig, out_path, workers: int = 1,
                fft_workers: int = 2, log=print) -> list:
    """Run the scenario grid and persist feature rows as CSV.

    Resumable: rows already present in out_path are kept and their (power,
    NF) work units skipped, so interrupting and rerunning converges to the
    identical file an uninterrupted run would have produced.
    """
    out_path = Path(out_path)
    ref = generate_reference(cfg.tx)
    profiles = [build_profile(ref, REGIONS, delta_db) for delta_db in DELTA_GRID_DB]
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
        return estimator.in_file_order(rows_by_key.values())

    def results():
        """_run_unit's result per unit, in the order the units finish."""
        if workers <= 1:
            for ip, inf_ in units:
                yield _run_unit(cfg, ip, inf_, ref, profiles, fft_workers)
            return
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_unit, cfg, ip, inf_, ref, profiles, fft_workers)
                       for ip, inf_ in units]
            for fut in as_completed(futures):
                yield fut.result()

    started = time.monotonic()
    for n, (unit_rows, max_phi, seconds) in enumerate(results(), 1):
        store(unit_rows)
        log(f"[{n}/{len(units)}] power={unit_rows[0].launch_power_dbm:+g} dBm "
            f"nf={unit_rows[0].nf_db:g} dB done in {seconds:.1f}s; "
            f"{cfg.fiber.steps_per_span} steps/span, max nonlinear phase "
            f"{max_phi:.3g} rad/step")
    log(f"dataset complete: {len(rows_by_key)} rows in {time.monotonic() - started:.0f}s")
    return estimator.in_file_order(rows_by_key.values())
