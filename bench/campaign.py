"""``campaign``: the paper's pipeline, closed loop, on all three devices.

One operation is one pass: for each paper device on a fresh
``SimulatedGPU``, collect the 83 kernels over the full V-F grid, fit the
model and validate it on the Table-III workloads. Every model user pays
this once per device; the 4-configuration Tesla K40c adds a case where the
fixed per-campaign costs dominate. Serving and cluster code stay idle.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.analysis.validation import validate_model
from repro.config import MASTER_SEED, SimulationSettings
from repro.core.dataset import collect_training_dataset
from repro.core.estimation import ModelEstimator
from repro.driver.session import ProfilingSession
from repro.experiments.common import DEVICE_NAMES
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import gpu_spec_by_name
from repro.microbench import build_suite
from repro.workloads import all_workloads

from bench.common import (
    SETUP_REPEATS,
    WorkloadRun,
    closed_loop,
    device_slug,
    hardware_seed,
    median_pass,
    peak_rss_mb,
    summary,
)
from bench.hostspeed import HostSpeed
from bench.spans import SessionProxy, Tracer

#: At the paper's seed and full size: (training rows, estimator iterations)
#: per device, and the Table-III MAE ceiling (%) each fit must stay under.
PAPER_SEED_COUNTS = {
    "Titan Xp": (3652, 44),
    "GTX Titan X": (5312, 29),
    "Tesla K40c": (332, 2),
}
TABLE3_MAE_CEILING = {"Titan Xp": 6.9, "GTX Titan X": 6.0, "Tesla K40c": 12.4}

#: At any seed, a fit whose validation MAE reaches this is broken.
BROKEN_FIT_MAE = 20.0

#: What a fresh process does before its first campaign: import the
#: pipeline and build the kernel suite and the Table-III workloads. It
#: prints that work's wall time and its time at the reference speed; the
#: reference loop runs only after it, as importing it imports NumPy.
_SETUP_CODE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = [{src!r}, {root!r}]
from repro.analysis.validation import validate_model
from repro.core.dataset import collect_training_dataset
from repro.core.estimation import ModelEstimator
from repro.hardware.gpu import SimulatedGPU
from repro.microbench import build_suite
from repro.workloads import all_workloads
build_suite(); all_workloads()
wall = time.perf_counter() - started
from bench.hostspeed import reference_s, scaled
after = reference_s()
print(wall, scaled(wall, after, after))
"""


@dataclass(frozen=True)
class CampaignSize:
    """How much of the suite, the grids and the Table-III set a pass
    covers (``None``: all of it)."""

    kernels: Optional[int] = None
    configs: Optional[int] = None
    workloads: Optional[int] = None


def grid(spec, count: Optional[int]):
    """The device's full grid, or ``count`` configurations spanning it
    (always including the reference, which the estimator needs)."""
    configs = spec.all_configurations()
    if count is None:
        return list(configs)
    chosen = [spec.reference]
    stride = max(1, len(configs) // count)
    for config in configs[::stride]:
        if config != spec.reference and len(chosen) < count:
            chosen.append(config)
    return chosen


def setup_seconds(root: Path) -> Tuple[float, float]:
    """One set-up sample, timed inside a fresh interpreter: its wall time
    and its time at the reference speed."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            _SETUP_CODE.format(src=str(root / "src"), root=str(root)),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    wall, at_reference = done.stdout.split()[-2:]
    return float(wall), float(at_reference)


def run(
    seed: int,
    seconds: float,
    traced: bool,
    root: Path,
    size: CampaignSize = CampaignSize(),
):
    result = WorkloadRun()
    tracer = Tracer()
    hw_seed = hardware_seed(seed)
    settings = SimulationSettings(master_seed=hw_seed)
    kernels = tuple(build_suite())[: size.kernels]
    workloads = tuple(all_workloads())[: size.workloads]
    grids = {d: grid(gpu_spec_by_name(d), size.configs) for d in DEVICE_NAMES}
    expected_rows = {d: len(kernels) * len(grids[d]) for d in DEVICE_NAMES}
    full = size == CampaignSize()
    outputs = {}

    def check(device, rows, iterations, mae) -> bool:
        first = outputs.setdefault(device, (rows, iterations, mae))
        ok = result.check(
            (rows, iterations, mae) == first,
            f"{device}: {rows} rows / {iterations} iterations / MAE {mae!r}, "
            f"the first pass gave {first}",
        )
        ok &= result.check(
            rows == expected_rows[device],
            f"{device}: {rows} rows, expected {expected_rows[device]}",
        )
        if full:
            # A fit on a fraction of the suite and grid may be poor.
            ok &= result.check(
                mae < BROKEN_FIT_MAE, f"{device}: MAE {mae:.2f}% is a broken fit"
            )
        if full and hw_seed == MASTER_SEED:
            ok &= result.check(
                (rows, iterations) == PAPER_SEED_COUNTS[device],
                f"{device}: {rows} rows / {iterations} iterations at the "
                f"paper's seed, expected {PAPER_SEED_COUNTS[device]}",
            )
            ok &= result.check(
                mae <= TABLE3_MAE_CEILING[device],
                f"{device}: MAE {mae:.2f}% above its Table-III band "
                f"({TABLE3_MAE_CEILING[device]}%)",
            )
        return ok

    def one_pass(traced_pass: bool, speed: HostSpeed) -> None:
        for device in DEVICE_NAMES:
            with tracer.span(f"campaign.device.{device_slug(device)}"):
                with tracer.span("hardware.gpu.build"):
                    session = ProfilingSession(
                        SimulatedGPU(gpu_spec_by_name(device), settings=settings)
                    )
                driver = SessionProxy(session, tracer) if traced_pass else session
                with tracer.span("core.dataset.collect"):
                    dataset = collect_training_dataset(
                        driver, kernels, grids[device], workers=0
                    )
                speed.lap()
                with tracer.span("core.estimation.estimate"):
                    model, report = ModelEstimator(dataset).estimate()
                speed.lap()
                with tracer.span("analysis.validation.validate"):
                    validation = validate_model(
                        model, driver, workloads, grids[device]
                    )
                speed.lap()
            result.attempted += 1
            if not check(
                device,
                dataset.row_count(),
                report.iterations,
                validation.mean_absolute_error_percent,
            ):
                result.failed += 1

    setups = [] if traced else [setup_seconds(root) for _ in range(SETUP_REPEATS)]
    walls, parts = closed_loop(result, seconds, one_pass, tracer, traced)

    cells = sum(expected_rows.values()) + len(workloads) * sum(
        len(configs) for configs in grids.values()
    )
    metrics = result.metrics
    if traced:
        layers = result.detail["layers"]
        metrics["core.dataset.cells_per_s"] = (
            sum(expected_rows.values())
            * len(walls)
            / layers["core.dataset.collect"]["total_s"]
        )
        for device in DEVICE_NAMES:
            slug = device_slug(device)
            metrics[f"campaign.device_s.{slug}"] = (
                layers[f"campaign.device.{slug}"]["total_s"] / len(walls)
            )
    else:
        setup_walls, setup_scaled = zip(*setups)
        pass_s = median_pass(parts)
        metrics.update(
            setup_s=statistics.median(setup_scaled),
            latency_p50_ms=1e3 * pass_s,
            throughput_per_s=cells / pass_s,
            peak_rss_mb=peak_rss_mb(),
        )
        result.detail.update(
            setup_s=summary(setup_scaled),
            setup_wall_s=summary(setup_walls),
            pass_s=summary([sum(part) for part in parts]),
            pass_wall_s=summary(walls),
        )
    metrics["campaign.rows"] = sum(rows for rows, _, _ in outputs.values())
    metrics["core.estimation.iterations"] = sum(it for _, it, _ in outputs.values())
    for device, (_, _, mae) in outputs.items():
        metrics[f"campaign.mae_pct.{device_slug(device)}"] = mae
    result.detail.update(
        hardware_seed=hw_seed,
        size=asdict(size),
        cells_per_pass=cells,
        outputs={
            device: {"rows": rows, "iterations": it, "mae_pct": mae}
            for device, (rows, it, mae) in outputs.items()
        },
    )
    return result, tracer
