"""``serve-hot`` and ``serve-cold``: traffic into one ``PredictionServer``.

Requests come from :func:`repro.serving.loadgen.build_stream`:

* ``serve-hot`` — ``perturb_fraction=0``: the 27 Table-III vectors,
  repeated. A governor re-querying known apps at steady state: after the
  warm-up every request is a cache hit, so admission and the cache do the
  work and the engine stays idle.
* ``serve-cold`` — ``perturb_fraction=1``: every vector jittered and
  unique, a working set far beyond the 4096-entry LRU, as from noisy
  sensors. Every request misses, queues, is batched into an engine pass
  and evicts on insert; a cache speed-up must cost nothing here.

Latency is measured in an open loop: one asyncio coroutine in the
benchmark process sends request ``i`` when it is due, at ``t0 + i /
rate``, whether or not earlier requests have been answered, and each
latency is timed from that due time, so a stall also charges the requests
queued behind it. Throughput is measured in a closed loop of
:data:`CALLERS` callers, each sending its next request as soon as its
last one is answered: the rate the server sustains when it is never idle.
A cache hit is answered without suspending its caller, so on
``serve-hot`` one caller at a time runs back to back until the slice
ends. In an untraced run both phases are cut into :data:`SLICE_S` slices
with the reference loop of :mod:`bench.hostspeed` run between them, and
the latencies and slice throughputs are scaled to its reference speed.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.config import SimulationSettings
from repro.core.estimation import fit_power_model
from repro.driver.session import ProfilingSession
from repro.errors import RequestTimeoutError, ServerOverloadedError
from repro.hardware.components import ALL_COMPONENTS
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import gpu_spec_by_name
from repro.microbench import build_suite
from repro.serving.cache import PredictionCache
from repro.serving.engine import PredictionEngine
from repro.serving.loadgen import LoadTestPlan, build_stream
from repro.serving.registry import ModelRegistry
from repro.serving.server import PredictionServer, ServerConfig
from repro.telemetry import TraceRecorder

from bench.campaign import grid
from bench.common import (
    SETUP_REPEATS,
    WorkloadRun,
    hardware_seed,
    peak_rss_mb,
    record_breakdown,
    summary,
    traced_setup,
)
from bench.hostspeed import HostSpeed, reference_s, scaled
from bench.spans import TimedCoroutine, TracedEventLoop, Tracer, breakdown

DEVICE = "Titan Xp"
MODEL_NAME = "titan-xp"

#: Offered rate (requests/s) of the latency window, per workload.
FIXED_RATE = {"serve-hot": 4000.0, "serve-cold": 2000.0}
PERTURB_FRACTION = {"serve-hot": 0.0, "serve-cold": 1.0}

#: Share of a run's seconds spent in the fixed-rate latency window; the
#: rest goes to the closed-loop throughput phase.
LATENCY_SHARE = 0.5
#: Callers of the throughput phase: twice ``max_batch`` (32), so that a
#: batch fills while the previous one is answered, and far below the
#: 256-deep admission queue, so that none is refused.
CALLERS = 64
#: Both phases of an untraced run are cut into slices this long, with the
#: reference loop of :mod:`bench.hostspeed` run between slices. The
#: throughput is the median slice's, so one host stall costs one slice,
#: not the phase.
SLICE_S = 0.25
#: Every Nth response of a latency window is checked against an engine.
CHECK_EVERY = 25

_COMPONENT_NAMES = tuple(component.value for component in ALL_COMPONENTS)


@dataclass(frozen=True)
class ServeSize:
    """Model-fit and stream sizes (``None``: full suite and grid)."""

    kernels: Optional[int] = None
    configs: Optional[int] = None
    #: Distinct stream rows. Cold traffic wraps around only long after
    #: every earlier vector has been evicted from the LRU.
    stream: int = 20000
    #: Untimed traffic at the fixed rate before the latency window.
    warmup_s: float = 0.25


class Window:
    """``n`` open-loop requests at ``rate``, reading rows from ``cursor``."""

    def __init__(self, server, rows, rate, seconds, cursor, tracer, sample):
        self.server = server
        self.rows = rows
        self.rate = rate
        self.n = max(1, int(rate * seconds))
        self.cursor = cursor
        self.tracer = tracer
        self.sample = sample
        #: Per answered request, from its due time and from when the
        #: generator sent it: the second is the server's share, the rest
        #: the generator's lag.
        self.latencies = []
        self.service = []
        #: The latencies with the server's share at the reference speed
        #: (scaled windows only).
        self.at_reference = []
        self.lags = []
        self.depths = []
        self.failures = 0
        self.checked = []
        self.start_ns = self.end_ns = 0

    def join(self, later: "Window") -> None:
        """Take in the requests of a window run right after this one."""
        self.n += later.n
        self.failures += later.failures
        for name in (
            "latencies", "service", "at_reference", "lags", "depths", "checked"
        ):
            getattr(self, name).extend(getattr(later, name))
        self.end_ns = later.end_ns

    async def _one(self, index: int, due: float, sent: float) -> None:
        position = (self.cursor + index) % len(self.rows)
        try:
            response = await self.server.predict(self.rows[position])
        except (ServerOverloadedError, RequestTimeoutError):
            self.failures += 1
            return
        answered = time.perf_counter()
        self.latencies.append(answered - due)
        self.service.append(answered - sent)
        if self.sample and index % CHECK_EVERY == 0:
            self.checked.append((position, response.watts))

    async def _generate(self) -> None:
        loop = asyncio.get_running_loop()
        tracer = self.tracer
        tasks = []
        self.start_ns = time.perf_counter_ns()
        start = self.start_ns / 1e9
        index = 0
        while index < self.n:
            now = time.perf_counter()
            due = start + index / self.rate
            if due > now:
                await asyncio.sleep(due - now)
                continue
            while index < self.n and due <= now:
                coro = self._one(index, due, now)
                if tracer.recording:
                    coro = TimedCoroutine(
                        coro, tracer, "serving.server.predict", index
                    )
                    self.depths.append(self.server.queue_depth)
                tasks.append(loop.create_task(coro))
                self.lags.append(now - due)
                index += 1
                due = start + index / self.rate
            await asyncio.sleep(0)
        await asyncio.gather(*tasks)
        self.end_ns = time.perf_counter_ns()

    async def run(self) -> "Window":
        coro = self._generate()
        if self.tracer.recording:
            coro = TimedCoroutine(coro, self.tracer, "loadgen.send")
        await asyncio.get_running_loop().create_task(coro)
        return self

    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


async def _set_up(work: Path, settings, size: ServeSize, tracer: Tracer):
    """Fit and publish the model, then start a server over it."""
    spec = gpu_spec_by_name(DEVICE)
    with tracer.span("serving.registry.fit_publish"):
        session = ProfilingSession(SimulatedGPU(spec, settings=settings))
        kernels = tuple(build_suite())[: size.kernels]
        model, _ = fit_power_model(session, kernels, grid(spec, size.configs))
        registry = ModelRegistry(work)
        registry.publish(model, name=MODEL_NAME)
    registry.load = tracer.timed("serving.registry.load", registry.load)
    server = PredictionServer(registry, MODEL_NAME, ServerConfig())
    with tracer.span("serving.server.start"):
        await server.start()
    return registry, server


def _mismatches(registry, rows, window: Window) -> int:
    """Sampled responses whose watts differ from a fresh engine's answer
    for the dequantized row — the value the server must return bitwise."""
    model, _ = registry.load(MODEL_NAME)
    engine = PredictionEngine(model)
    cache = PredictionCache(quantum=ServerConfig().utilization_quantum)
    column = engine.config_index(engine.spec.reference)
    mismatches = 0
    for position, watts in window.checked:
        row = [rows[position][name] for name in _COMPONENT_NAMES]
        canonical = cache.dequantize(cache.quantize(row))
        if float(engine.predict_batch(canonical[None, :])[0, column]) != watts:
            mismatches += 1
    return mismatches


class _Bench:
    """State of one serving run: rows, the row cursor, the result."""

    def __init__(self, workload, rows, seconds, size, tracer, result):
        self.workload = workload
        self.rows = rows
        self.rate = FIXED_RATE[workload]
        self.seconds = seconds
        self.size = size
        self.tracer = tracer
        self.result = result
        self.cursor = 0

    async def window(self, server, seconds, sample=False) -> Window:
        window = Window(
            server, self.rows, self.rate, seconds, self.cursor, self.tracer, sample
        )
        await window.run()
        self.cursor += window.n
        return window

    async def scaled_window(self, server, seconds) -> Window:
        """``seconds`` of checked open loop as back-to-back
        :data:`SLICE_S` windows, the reference loop run once each window's
        answers are in. Each latency's server share is scaled to the
        reference speed by the loop's times around its window; the
        generator's lag, set by the event loop's timer granularity (about
        1 ms for sleeps), not by CPU speed, is kept as measured. Returns
        the windows joined into one."""
        probe = reference_s()
        joined = None
        for _ in range(max(1, round(seconds / SLICE_S))):
            window = await self.window(server, SLICE_S, sample=True)
            after = reference_s()
            window.at_reference = [
                latency - service + scaled(service, probe, after)
                for latency, service in zip(window.latencies, window.service)
            ]
            probe = after
            if joined is None:
                joined = window
            else:
                joined.join(window)
        return joined

    async def latency_window(self, server, registry, seconds, traced, scale=False):
        """Warm up, then a checked open loop at the fixed rate, one window
        or (``scale``) :meth:`scaled_window`. Returns the window, its CPU
        seconds, the cache's evictions and the server recorder's counters
        during it."""
        result = self.result
        warm = await self.window(server, self.size.warmup_s)
        before = server.cache.stats()
        counters = server.recorder.counters()
        self.tracer.recording = traced
        cpu = time.process_time()
        if scale:
            window = await self.scaled_window(server, seconds)
        else:
            window = await self.window(server, seconds, sample=True)
        cpu = time.process_time() - cpu
        self.tracer.recording = False
        after = server.cache.stats()
        counters = {
            name: value - counters.get(name, 0.0)
            for name, value in server.recorder.counters().items()
        }
        hits, misses = after.hits - before.hits, after.misses - before.misses
        mismatches = _mismatches(registry, self.rows, window)
        result.attempted += warm.n + window.n
        result.failed += warm.failures + window.failures + mismatches
        result.check(
            mismatches == 0,
            f"{mismatches} of {len(window.checked)} checked responses differ "
            "from the engine's answer",
        )
        if self.workload == "serve-hot":
            result.check(misses == 0, f"hot traffic missed the cache {misses} times")
        else:
            result.check(hits == 0, f"cold traffic hit the cache {hits} times")
        result.metrics["serving.cache.hit_ratio"] = hits / (hits + misses)
        return window, cpu, after.evictions - before.evictions, counters

    async def throughput(self, server, seconds):
        """Closed loop of :data:`CALLERS` callers for ``seconds``, cut into
        :data:`SLICE_S` slices with the reference loop run between them
        (every caller waits while it runs). Returns each slice's answers
        per second as measured and at the reference speed."""
        rows, cursor = self.rows, self.cursor
        answered = failures = 0
        running = True
        slice_end = 0.0

        async def caller(index: int) -> None:
            nonlocal answered, failures
            while running:
                try:
                    await server.predict(rows[(cursor + index) % len(rows)])
                    answered += 1
                except (ServerOverloadedError, RequestTimeoutError):
                    failures += 1
                index += CALLERS
                if time.perf_counter() >= slice_end:
                    # A cache hit is answered without suspending the
                    # caller: give the slice clock below its turn.
                    await asyncio.sleep(0)

        callers = [asyncio.ensure_future(caller(index)) for index in range(CALLERS)]
        rates, scaled_rates = [], []
        probe = reference_s()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            counted, started = answered, time.perf_counter()
            slice_end = started + SLICE_S
            await asyncio.sleep(SLICE_S)
            wall = time.perf_counter() - started
            after = reference_s()
            rates.append((answered - counted) / wall)
            scaled_rates.append((answered - counted) / scaled(wall, probe, after))
            probe = after
        running = False
        await asyncio.gather(*callers)
        self.cursor += answered + failures
        self.result.attempted += answered + failures
        self.result.failed += failures
        return rates, scaled_rates

    async def end_to_end(self, work: Path, settings) -> None:
        result, metrics = self.result, self.result.metrics
        setups = []
        for rep in range(SETUP_REPEATS):
            speed = HostSpeed()
            registry, server = await _set_up(
                work / f"setup-{rep}", settings, self.size, self.tracer
            )
            speed.lap()
            setups.append(speed.scaled_s)
            if rep + 1 < SETUP_REPEATS:
                await server.stop()
        latency_s = LATENCY_SHARE * self.seconds
        window, *_ = await self.latency_window(
            server, registry, latency_s, False, scale=True
        )
        rates, scaled_rates = await self.throughput(server, self.seconds - latency_s)
        await server.stop()
        metrics.update(
            setup_s=statistics.median(setups),
            latency_p50_ms=1e3 * statistics.median(window.at_reference),
            throughput_per_s=statistics.median(scaled_rates),
            peak_rss_mb=peak_rss_mb(),
        )
        result.detail.update(
            setup_s=summary(setups),
            latency_ms=summary([1e3 * x for x in window.at_reference]),
            latency_wall_ms=summary([1e3 * x for x in window.latencies]),
            service_wall_ms=summary([1e3 * x for x in window.service]),
            lag_ms=summary([1e3 * x for x in window.lags]),
            throughput_per_s=summary(scaled_rates),
            throughput_wall_per_s=summary(rates),
        )

    async def per_layer(self, work: Path, settings) -> None:
        result, tracer = self.result, self.tracer
        with traced_setup(result, tracer):
            registry, server = await _set_up(work / "setup", settings, self.size, tracer)
        plain, plain_cpu, *_ = await self.latency_window(
            server, registry, self.seconds / 2, False
        )
        await server.stop()

        # The traced server is started with a task factory so that its
        # batch worker's steps are spans; its recorder supplies counters.
        recorder = TraceRecorder()
        server = PredictionServer(registry, MODEL_NAME, ServerConfig(), recorder=recorder)
        loop = asyncio.get_running_loop()
        loop.set_task_factory(
            lambda loop_, coro, **kwargs: asyncio.Task(
                TimedCoroutine(coro, tracer, "serving.server.batch"),
                loop=loop_,
                **kwargs,
            )
        )
        try:
            await server.start()
        finally:
            loop.set_task_factory(None)
        with tracer.patch(
            PredictionEngine, "predict_batch", "serving.engine.predict_batch"
        ), tracer.patch(PredictionCache, "get", "serving.cache.get"), tracer.patch(
            PredictionCache, "put", "serving.cache.put"
        ):
            window, cpu, evictions, counters = await self.latency_window(
                server, registry, self.seconds / 2, True
            )
        await server.stop()

        n = window.n
        record_breakdown(
            result,
            breakdown(tracer.spans, window.start_ns, window.end_ns),
            window.wall_s(),
            n,
        )
        batches = counters.get("serving.batches", 0.0)
        computed = counters.get("serving.batched_predictions", 0.0)
        result.metrics.update(
            {
                "trace.overhead_pct": 100.0
                * ((cpu / n) / (plain_cpu / plain.n) - 1.0),
                "serving.cache.evictions": evictions / n,
                "serving.server.batches": batches / n,
                "serving.server.batch_size_mean": computed / batches if batches else 0.0,
                "serving.server.coalesced": counters.get("serving.coalesced", 0.0) / n,
                "serving.server.rejections": counters.get("serving.rejections", 0.0),
                "serving.server.timeouts": counters.get("serving.timeouts", 0.0),
                "serving.server.queue_depth_p99": float(
                    np.percentile(window.depths, 99)
                ),
                "serving.engine.rows": computed / n,
                "loadgen.lag_p99_ms": 1e3 * float(np.percentile(plain.lags, 99)),
                "loadgen.achieved_rps": len(plain.latencies) / plain.wall_s(),
                "loadgen.latency_p99_ms": 1e3
                * float(np.percentile(plain.latencies, 99)),
            }
        )
        result.detail["counters"] = counters


def run(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    root: Path,
    size: ServeSize = ServeSize(),
):
    result = WorkloadRun()
    tracer = Tracer()
    hw_seed = hardware_seed(seed)
    settings = SimulationSettings(master_seed=hw_seed)
    plan = LoadTestPlan(
        device=DEVICE,
        requests=size.stream,
        perturb_fraction=PERTURB_FRACTION[workload],
        seed=seed,
    )
    stream, unique = build_stream(DEVICE, plan)
    rows = [dict(zip(_COMPONENT_NAMES, row)) for row in stream]
    bench = _Bench(workload, rows, seconds, size, tracer, result)
    work = root / ".bench_work" / f"{workload}-{time.time_ns()}"
    loop = TracedEventLoop(tracer) if traced else asyncio.SelectorEventLoop()
    try:
        phase = bench.per_layer if traced else bench.end_to_end
        loop.run_until_complete(phase(work, settings))
    finally:
        loop.close()
        shutil.rmtree(work, ignore_errors=True)
    result.detail.update(
        hardware_seed=hw_seed,
        size=asdict(size),
        stream_rows=len(rows),
        unique_vectors=unique,
        fixed_rate=bench.rate,
        stream_head=stream[:3],
    )
    return result, tracer
