"""Self-test of the benchmark: ``python -m pytest bench/``.

Each workload runs at a tiny size, passed as an argument, so the whole
file takes about a minute. The checks are the benchmark's own contract:
every metric of ``BENCHMARK.json`` is emitted with its unit, the
deterministic outputs repeat exactly for one seed, and another seed gives
other inputs.
"""

import json
import shutil
import subprocess
import sys

import pytest

from repro.analysis.validation import validate_model
from repro.config import MASTER_SEED, SimulationSettings
from repro.core.dataset import collect_training_dataset
from repro.core.estimation import ModelEstimator
from repro.core.perf_estimation import PerformanceEstimator
from repro.driver.session import ProfilingSession
from repro.experiments.common import DEVICE_NAMES
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import gpu_spec_by_name
from repro.microbench import build_suite
from repro.workloads import all_workloads

from bench import campaign, cluster, run, serve
from bench.common import HARDWARE_SEEDS
from bench.spans import breakdown

SEED = 20180224
OTHER_SEED = 7
SECONDS = 1.0

TINY = {
    "campaign": campaign.CampaignSize(kernels=12, configs=8, workloads=4),
    "serve-hot": serve.ServeSize(kernels=12, configs=8, stream=2000, warmup_s=0.1),
    "serve-cold": serve.ServeSize(kernels=12, configs=8, stream=2000, warmup_s=0.1),
    "cluster": cluster.ClusterSize(nodes=20, jobs=240, traces=2, kernels=8),
}

#: Outputs that are a pure function of the seed and the input size.
DETERMINISTIC = {
    "campaign": (
        "campaign.mae_pct.titan_xp",
        "campaign.mae_pct.gtx_titan_x",
        "campaign.mae_pct.tesla_k40c",
        "campaign.rows",
        "core.estimation.iterations",
    ),
    "serve-hot": ("serving.cache.hit_ratio",),
    "serve-cold": ("serving.cache.hit_ratio",),
    "cluster": (
        "cluster.fleet_energy_kj",
        "cluster.miss_rate",
        "cluster.node_failures",
        "cluster.rescheduled",
    ),
}

WORKLOADS = tuple(TINY)


@pytest.fixture(scope="module")
def runs():
    """Memoized tiny runs, keyed by (workload, seed, traced)."""
    done = {}

    def get(workload, seed, traced):
        key = (workload, seed, traced)
        if key not in done:
            done[key] = run.run_workload(
                workload, seed, SECONDS, traced, TINY[workload]
            )[0]
        return done[key]

    return get


def test_benchmark_lists_these_workloads():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload, traced):
    result = runs(workload, SEED, traced)
    line = run.result_line(result, traced)
    catalogue = run.load_spec()["per_layer" if traced else "end_to_end"]
    assert list(line["metrics"]) == [metric["name"] for metric in catalogue]
    for metric in catalogue:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert line["correct"], result.checks
    assert line["attempted"] >= 1 and line["failed"] == 0
    if not traced:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line)


def test_every_layer_metric_is_measured_somewhere(runs):
    """A catalogue name no workload produces would read 0 forever."""
    measured = set()
    for workload in WORKLOADS:
        measured |= {
            name for name, value in runs(workload, SEED, True).metrics.items() if value
        }
    names = {metric["name"] for metric in run.load_spec()["per_layer"]}
    expected_zero = {
        # Zero whenever the server keeps up.
        "serving.server.rejections",
        "serving.server.timeouts",
        # Needs a repeated vector in flight: hot traffic only hits the
        # cache, cold traffic never repeats.
        "serving.server.coalesced",
        # The tiny windows never fill the 4096-entry LRU.
        "serving.cache.evictions",
    }
    assert names - measured == expected_zero


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_time_is_attributed(runs, workload):
    result = runs(workload, SEED, True)
    assert result.metrics["trace.unattributed_pct"] <= 5.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_for_one_seed(runs, workload):
    plain = runs(workload, SEED, False)
    traced = runs(workload, SEED, True)
    for name in DETERMINISTIC[workload]:
        assert plain.metrics[name] == traced.metrics[name], name
    inputs = "stream_head" if workload.startswith("serve") else "outputs"
    assert plain.detail[inputs] == traced.detail[inputs]


def test_hot_traffic_only_hits_and_cold_traffic_only_misses(runs):
    assert runs("serve-hot", SEED, False).metrics["serving.cache.hit_ratio"] == 1.0
    assert runs("serve-cold", SEED, False).metrics["serving.cache.hit_ratio"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_differ_under_another_seed(runs, workload):
    one = runs(workload, SEED, False)
    other = runs(workload, OTHER_SEED, False)
    if workload.startswith("serve"):
        assert one.detail["stream_head"] != other.detail["stream_head"]
    else:
        assert one.detail["hardware_seed"] != other.detail["hardware_seed"]
        assert one.detail["outputs"] != other.detail["outputs"]


@pytest.mark.parametrize("hw_seed", (MASTER_SEED,) + HARDWARE_SEEDS)
def test_every_hardware_seed_runs_the_full_pipeline(hw_seed):
    """What the workloads fit at full size — the power model, its
    validation and the cluster oracles' runtime model — raises nowhere."""
    settings = SimulationSettings(master_seed=hw_seed)
    suite, workloads = build_suite(), all_workloads()
    for device in DEVICE_NAMES:
        session = ProfilingSession(
            SimulatedGPU(gpu_spec_by_name(device), settings=settings)
        )
        dataset = collect_training_dataset(session, suite)
        model, _ = ModelEstimator(dataset).estimate()
        validation = validate_model(model, session, workloads)
        assert validation.mean_absolute_error_percent < campaign.BROKEN_FIT_MAE
        PerformanceEstimator(dataset, session, workloads).estimate()


def test_breakdown_subtracts_children_from_self_time():
    spans = [
        [0, None, "outer", 0, 100, None],
        [1, 0, "inner", 10, 40, None],
        [2, 0, "inner", 50, 60, None],
        [3, None, "late", 90, 200, None],
    ]
    layers = breakdown(spans, 0, 150)
    assert layers["outer"]["self_s"] == pytest.approx(60e-9)
    assert layers["inner"] == {"calls": 2, "total_s": 40e-9, "self_s": 40e-9}
    assert "late" not in layers


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
