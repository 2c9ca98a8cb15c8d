"""The benchmark's workloads still run against the program.

`perfbench/workloads.py` reaches the program through names the program
otherwise has no use for: `waveform.default_regions(tx)`,
`SampledField(..., center_freq)`, `ExperimentConfig.dtype` and
`run_dataset(..., fft_workers=)`. One operation of each workload, imported
as the benchmark imports it, turns a change to those names into a test
failure rather than a failed benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["b2b_loading", "desk_unit"])
def test_workload_runs_one_operation(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    work = workloads.make(name, 1, tmp_path)
    work.warm_up()
    result = work.op(0)
    assert result.rows
    assert result.failures == []
