"""Every config file the benchmark's workloads write loads through
``ExperimentConfig``, at both sizes, so retiring a config key that a
workload still names fails here, not only in the benchmark's own suite."""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from graphsynth import ExperimentConfig

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_every_workload_config_loads(tmp_path, workloads, size):
    loaded = []
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        workload.prepare(str(work), 3, size)
        for path in sorted(work.glob("*.json")):
            # a key retired with a warning still loads
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                loaded.append(ExperimentConfig.from_file(str(path)).experiment)
    assert sorted(loaded) == ["real", "real", "real", "s1", "s3"]
