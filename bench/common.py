"""Helpers shared by the workloads: seeds, statistics, the run record and
the closed-loop driver."""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.config import MASTER_SEED

from bench.hostspeed import HostSpeed
from bench.spans import Tracer, breakdown

#: How many times each workload sets up per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Simulated-hardware master seeds a benchmark seed maps to. Some master
#: seeds make the pipeline raise: of the master seeds 0-99, 13 drive a
#: Tesla K40c kernel's ``active_cycles`` to zero or below through counter
#: noise (``MetricError``), and seed 8 runs the estimator's NNLS step out of
#: iterations (``EstimationError``). These were drawn in order as
#: ``derive_seed("bench-hardware", k)`` for k = 1..69 and kept when every
#: workload ran without error and all three fits converged within 3
#: iterations of the paper seed's (44 / 29 / 2), so that a pass does about
#: the same work whatever the seed.
HARDWARE_SEEDS = (
    6499833212008975161,
    1686008528263573925,
    4654751026316198153,
    1081100772610243279,
    128934893607812339,
    8876175269975105346,
    1778843137428833062,
    1031318184134957263,
    3081085912913139007,
    8026651293675050822,
    5825330754345959885,
    3494844476090979017,
    7726694461351809256,
)

#: Spans the benchmark opens to group work; their self time is no layer's.
GLUE_PREFIXES = ("bench.", "campaign.device.")

#: A traced run fails when more of its wall time than this is in no layer.
MAX_UNATTRIBUTED_PCT = 5.0


def device_slug(device: str) -> str:
    return device.lower().replace(" ", "_")


def hardware_seed(seed: int) -> int:
    """The simulated hardware's master seed for a benchmark seed: the
    paper's seed runs the paper's hardware, any other seed one of
    :data:`HARDWARE_SEEDS`."""
    if seed == MASTER_SEED:
        return MASTER_SEED
    return HARDWARE_SEEDS[seed % len(HARDWARE_SEEDS)]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, p99 and sample count of one timing."""
    q1, q3, p99 = np.percentile(values, (25, 75, 99))
    return {
        "median": statistics.median(values),
        "q1": float(q1),
        "q3": float(q3),
        "p99": float(p99),
        "n": len(values),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class WorkloadRun:
    """What one workload run measured and checked.

    ``metrics`` maps metric names to values (units live in
    ``BENCHMARK.json``); ``detail`` keeps the rest — timing summaries,
    exact outputs, layer tables — for ``results.json``.
    """

    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Record ``message`` as a failed output check unless ``ok``."""
        if not ok:
            self.checks.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.checks and self.failed == 0


def record_breakdown(
    run: WorkloadRun, layers: Dict[str, Dict[str, float]], wall_s: float, ops: int
) -> None:
    """Self time and calls per operation of every layer, plus the share of
    ``wall_s`` no layer's self time covers."""
    attributed = 0.0
    for name, entry in layers.items():
        if name.startswith(GLUE_PREFIXES):
            continue
        attributed += entry["self_s"]
        run.metrics[f"{name}.self_ms"] = 1e3 * entry["self_s"] / ops
        run.metrics[f"{name}.calls"] = entry["calls"] / ops
    unattributed = 100.0 * (wall_s - attributed) / wall_s
    run.metrics["trace.unattributed_pct"] = unattributed
    run.check(
        unattributed <= MAX_UNATTRIBUTED_PCT,
        f"{unattributed:.1f}% of the traced wall time is in no layer "
        f"(limit {MAX_UNATTRIBUTED_PCT}%)",
    )
    run.detail["layers"] = layers
    run.detail["traced_wall_s"] = wall_s
    run.detail["traced_ops"] = ops


@contextmanager
def traced_setup(run: WorkloadRun, tracer: Tracer):
    """Trace the set-up done inside the block; record each layer's time
    in it."""
    tracer.recording = True
    start = time.perf_counter_ns()
    yield
    end = time.perf_counter_ns()
    tracer.recording = False
    layers = breakdown(tracer.spans, start, end)
    for name, entry in layers.items():
        run.metrics[f"{name}.setup_s"] = entry["total_s"]
    run.detail["setup_layers"] = layers
    run.detail["setup_wall_s"] = (end - start) / 1e9


def closed_loop(
    run: WorkloadRun,
    seconds: float,
    step: Callable[[bool, HostSpeed], None],
    tracer: Tracer,
    traced: bool,
) -> Tuple[List[float], List[List[float]]]:
    """Repeat ``step`` (one pass) for ``seconds``, and at least twice.

    ``step(traced_pass, speed)`` calls ``speed.lap()`` after each part of
    its pass, cutting it into samples for :class:`HostSpeed`; the loop
    closes the pass's last sample itself.

    Untraced: every pass counts; returns each pass's wall time and the
    reference-speed seconds of its parts (reference loops excluded).
    Traced: no reference loops run; the first half of the time runs plain,
    the second half traced, and the layers' breakdown of the traced half
    and the tracing overhead (CPU seconds per pass, traced against plain)
    land in ``run``. Returns the traced passes' wall times and no parts.
    """
    if not traced:
        speed = HostSpeed()
        walls, parts = [], []
        started = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - started < seconds:
            wall, first = speed.wall_s, len(speed.laps)
            step(False, speed)
            speed.lap()
            walls.append(speed.wall_s - wall)
            parts.append(speed.laps[first:])
        return walls, parts

    untimed = HostSpeed(enabled=False)

    def passes(budget: float, record: bool):
        walls, cpus = [], []
        started = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - started < budget:
            wall, cpu = time.perf_counter(), time.process_time()
            with tracer.span("bench.pass"):
                step(record, untimed)
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
        return walls, cpus

    _, plain_cpu = passes(seconds / 2, False)
    tracer.recording = True
    start = time.perf_counter_ns()
    walls, traced_cpu = passes(seconds / 2, True)
    end = time.perf_counter_ns()
    tracer.recording = False
    record_breakdown(run, breakdown(tracer.spans, start, end), (end - start) / 1e9, len(walls))
    run.metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_cpu) / statistics.median(plain_cpu) - 1.0
    )
    return walls, []


def median_pass(parts: Sequence[Sequence[float]]) -> float:
    """A pass assembled from its parts' medians: the sum, over the parts
    of a pass, of each part's median across passes."""
    return sum(statistics.median(part) for part in zip(*parts))
