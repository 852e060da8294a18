"""``cluster``: the EDF fleet simulator under node churn, closed loop.

One operation is one pass: ``ClusterSimulator.run`` with the
deadline-aware EDF scheduler over a 40/40/20 Titan Xp / GTX Titan X /
Tesla K40c fleet, once for each of a few seeded ``burst`` job traces, each
with its own seeded node churn (``NodeFailurePlan``, MTBF 0.5 s, MTTR
0.1 s). The load covers the event loop, EDF dispatch and the oracles'
frontier queries; churn adds fail, recover and reschedule events beside
arrivals and completions.

The fleet keeps the jobs per node of the 2048-node / 12k-job sweep of
``cluster_savings``. A pass covers several traces because one trace's
bursts and outages set how much work a pass does: over one set of
oracles, six trace seeds' pass times ranged over 11 %.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from typing import Optional

from repro.cluster.faults import NodeFailurePlan
from repro.cluster.jobs import fleet_reference_seconds, generate_job_trace
from repro.cluster.node import DeviceOracle, build_fleet
from repro.cluster.schedulers import DeadlineAwareEdfScheduler
from repro.cluster.simulator import ClusterSimulator
from repro.config import SimulationSettings, derive_seed
from repro.experiments.cluster_savings import (
    CHAOS_MTBF_S,
    CHAOS_MTTR_S,
    HORIZON_S,
    default_mix,
)
from repro.experiments.common import DEVICE_NAMES, Lab
from repro.workloads import all_workloads

from bench.common import (
    SETUP_REPEATS,
    WorkloadRun,
    closed_loop,
    hardware_seed,
    median_pass,
    peak_rss_mb,
    summary,
    traced_setup,
)
from bench.hostspeed import HostSpeed
from bench.spans import OracleProxy, SchedulerProxy, Tracer

SHAPE = "burst"

#: ``sum(energy_by_device)`` adds the same charges as
#: ``fleet_energy_joules`` in another order; allow that rounding only.
ENERGY_REL_TOL = 1e-9


@dataclass(frozen=True)
class ClusterSize:
    nodes: int = 512
    #: Jobs per trace.
    jobs: int = 3000
    #: Traces (each with its own failure plan) simulated per pass.
    traces: int = 3
    #: Table-III workloads in the job pool (``None``: all of them).
    kernels: Optional[int] = None


def trace_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th job trace and failure plan of a run."""
    return derive_seed("bench-cluster-trace", index, master_seed=seed)


def _set_up(hw_seed: int, seed: int, size: ClusterSize, tracer: Tracer):
    """Fit one oracle per device, draw the job traces, build the fleet."""
    kernels = tuple(all_workloads())[: size.kernels]
    with tracer.span("cluster.node.oracle_fit"):
        lab = Lab(SimulationSettings(master_seed=hw_seed))
        oracles = {
            device: DeviceOracle.fit(device, kernels, lab=lab)
            for device in DEVICE_NAMES
        }
    with tracer.span("cluster.jobs.trace"):
        references = fleet_reference_seconds(
            [oracles[device] for device in sorted(oracles)], kernels
        )
        traces = [
            generate_job_trace(
                SHAPE,
                size.jobs,
                trace_seed(seed, index),
                kernels,
                references,
                horizon_s=HORIZON_S,
            )
            for index in range(size.traces)
        ]
    with tracer.span("cluster.node.build_fleet"):
        fleet = build_fleet(oracles, default_mix(size.nodes))
    return oracles, traces, fleet


def run(
    seed: int,
    seconds: float,
    traced: bool,
    size: ClusterSize = ClusterSize(),
):
    result = WorkloadRun()
    tracer = Tracer()
    hw_seed = hardware_seed(seed)
    if traced:
        with traced_setup(result, tracer):
            oracles, traces, fleet = _set_up(hw_seed, seed, size, tracer)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            speed = HostSpeed()
            oracles, traces, fleet = _set_up(hw_seed, seed, size, tracer)
            speed.lap()
            setups.append(speed.scaled_s)
    failure_plans = [
        NodeFailurePlan(
            mtbf_s=CHAOS_MTBF_S, mttr_s=CHAOS_MTTR_S, seed=trace_seed(seed, index)
        )
        for index in range(size.traces)
    ]
    mix = default_mix(size.nodes)
    traced_fleet = build_fleet(
        {device: OracleProxy(oracle, tracer) for device, oracle in oracles.items()},
        mix,
    )
    jobs_per_pass = sum(len(trace) for trace in traces)
    first_reports = []

    def one_pass(traced_pass: bool, speed: HostSpeed) -> None:
        reports = []
        for trace, failure_plan in zip(traces, failure_plans):
            scheduler = DeadlineAwareEdfScheduler()
            if traced_pass:
                scheduler = SchedulerProxy(scheduler, tracer)
            simulator = ClusterSimulator(
                traced_fleet if traced_pass else fleet,
                scheduler,
                failure_plan=failure_plan,
            )
            with tracer.span("cluster.simulator.run"):
                reports.append(simulator.run(trace))
            speed.lap()
        first = first_reports or reports
        result.attempted += jobs_per_pass
        ok = True
        for trace, report, expected in zip(traces, reports, first):
            missing = len(trace) - report.n_jobs
            energy = sum(joules for _, joules in report.energy_by_device)
            ok &= result.check(
                missing == 0, f"{missing} of {len(trace)} jobs never completed"
            )
            ok &= result.check(
                math.isclose(
                    energy, report.fleet_energy_joules, rel_tol=ENERGY_REL_TOL
                ),
                f"energy by device sums to {energy!r} J, the fleet to "
                f"{report.fleet_energy_joules!r} J",
            )
            ok &= result.check(
                (report.fleet_energy_joules, report.miss_rate, report.node_failures)
                == (
                    expected.fleet_energy_joules,
                    expected.miss_rate,
                    expected.node_failures,
                ),
                "a pass of the same trace and fleet gave another report",
            )
        if not ok:
            result.failed += jobs_per_pass
        if not first_reports:
            first_reports.extend(reports)

    # Untimed: fills the oracles' memoized tables.
    one_pass(False, HostSpeed(enabled=False))
    walls, parts = closed_loop(result, seconds, one_pass, tracer, traced)

    reports = first_reports
    misses = sum(report.deadline_misses for report in reports)
    failures = sum(report.node_failures for report in reports)
    rescheduled = sum(report.rescheduled for report in reports)
    metrics = result.metrics
    if traced:
        # Events the loop handles per pass: every arrival, every completion
        # (a rescheduled run leaves one stale completion behind), and one
        # failure plus one recovery per outage.
        events = 2 * jobs_per_pass + rescheduled + 2 * failures
        run_s = result.detail["layers"]["cluster.simulator.run"]["total_s"]
        metrics["cluster.simulator.events_per_s"] = events * len(walls) / run_s
    else:
        pass_s = median_pass(parts)
        metrics.update(
            setup_s=statistics.median(setups),
            latency_p50_ms=1e3 * pass_s,
            throughput_per_s=jobs_per_pass / pass_s,
            peak_rss_mb=peak_rss_mb(),
        )
        result.detail.update(
            setup_s=summary(setups),
            pass_s=summary([sum(part) for part in parts]),
            pass_wall_s=summary(walls),
        )
    metrics.update(
        {
            "cluster.fleet_energy_kj": sum(
                report.fleet_energy_joules for report in reports
            )
            / 1e3,
            "cluster.miss_rate": misses / jobs_per_pass,
            "cluster.node_failures": failures,
            "cluster.rescheduled": rescheduled,
        }
    )
    result.detail.update(
        hardware_seed=hw_seed,
        size=asdict(size),
        mix=mix,
        outputs=[
            {
                "trace_seed": trace_seed(seed, index),
                "jobs": report.n_jobs,
                "fleet_energy_joules": report.fleet_energy_joules,
                "energy_by_device": dict(report.energy_by_device),
                "deadline_misses": report.deadline_misses,
                "node_failures": report.node_failures,
                "rescheduled": report.rescheduled,
                "first_arrival_s": trace.jobs[0].arrival_s,
            }
            for index, (trace, report) in enumerate(zip(traces, reports))
        ],
    )
    return result, tracer
