"""Run the benchmark: one workload, or all of them into a results directory.

One workload, in this process (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

prints each metric with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each run in a fresh child process, untraced then traced::

    python3 bench/run.py --seed 20180224 --out DIR

writes ``DIR/results.json`` and ``DIR/trace-<workload>.jsonl`` and exits
non-zero if any output check failed. See ``bench/README.md``.
"""

import os

# Pinned before NumPy loads: OpenBLAS' default threads made the Titan Xp
# fit take 0.78-1.60 s on a 2-core host, against a steady 0.33 s pinned.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PAPER_SEED = 20180224

#: Metric-name suffixes that name a layer span; every such metric a run
#: produces must be in the per-layer catalogue of ``BENCHMARK.json``.
LAYER_SUFFIXES = (".self_ms", ".setup_s")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _use_source_tree() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def host_block(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, size=None):
    """Run one workload in this process; returns ``(WorkloadRun, Tracer)``.

    ``size`` overrides the workload's input size (the self-test passes
    tiny ones); ``None`` keeps the benchmark's.
    """
    from bench import campaign, cluster, serve

    if name == "campaign":
        return campaign.run(seed, seconds, traced, ROOT, size or campaign.CampaignSize())
    if name in ("serve-hot", "serve-cold"):
        return serve.run(name, seed, seconds, traced, ROOT, size or serve.ServeSize())
    if name == "cluster":
        return cluster.run(seed, seconds, traced, size or cluster.ClusterSize())
    raise ValueError(f"unknown workload {name!r}")


def result_line(run, traced: bool) -> dict:
    """The final JSON object: every metric ``BENCHMARK.json`` lists for the
    mode, with its unit. A layer the workload never enters reads 0."""
    catalogue = load_spec()["per_layer" if traced else "end_to_end"]
    if traced:
        names = {metric["name"] for metric in catalogue}
        stray = sorted(
            name
            for name in run.metrics
            if name.endswith(LAYER_SUFFIXES) and name not in names
        )
        if stray:
            raise RuntimeError(f"layers missing from BENCHMARK.json: {stray}")
    metrics = {}
    for metric in catalogue:
        name = metric["name"]
        value = run.metrics.get(name, 0.0) if traced else run.metrics[name]
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def _single(args) -> int:
    traced = bool(args.trace)
    run, tracer = run_workload(args.workload, args.seed, args.seconds, traced)
    line = result_line(run, traced)
    for name, metric in line["metrics"].items():
        print(f"{args.workload:<10} {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for message in run.checks:
        print(f"{args.workload:<10} CHECK FAILED: {message}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "host": host_block(args.seed),
            "result": line,
            "checks": run.checks,
            "measured": run.metrics,
            "detail": run.detail,
        }
        (out / f"{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2, default=float) + "\n"
        )
        if traced:
            tracer.write_jsonl(out / f"trace-{args.workload}.jsonl")
    print(json.dumps(line))
    return 0


def _timing(detail: dict, key: str, scale: float = 1.0) -> str:
    block = detail.get(key)
    if not block:
        return ""
    return (
        f"  (median {scale * block['median']:.6g}, q1 {scale * block['q1']:.6g}, "
        f"q3 {scale * block['q3']:.6g}, n {block['n']})"
    )


def _every_workload(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {"host": host_block(args.seed), "seconds": args.seconds, "workloads": {}}
    print(json.dumps(results["host"]))
    ok = True
    for workload in (workload["name"] for workload in load_spec()["workloads"]):
        entry = results["workloads"].setdefault(workload, {})
        for trace in (0, 1):
            child = subprocess.run(
                [
                    sys.executable,
                    str(ROOT / "bench" / "run.py"),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--out", str(out),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=900,
            )
            if child.returncode != 0:
                ok = False
                print(f"{workload}: trace {trace} run failed\n{child.stderr}")
                continue
            record = json.loads((out / f"{workload}-trace{trace}.json").read_text())
            entry["end_to_end" if trace == 0 else "per_layer"] = record
            ok &= record["result"]["correct"]
            detail = record["detail"]
            notes = {
                "setup_s": _timing(detail, "setup_s"),
                "latency_p50_ms": _timing(detail, "pass_s", 1e3)
                or _timing(detail, "latency_ms"),
                "throughput_per_s": _timing(detail, "throughput_per_s"),
            }
            for name, metric in record["result"]["metrics"].items():
                print(
                    f"{workload:<10} {name:<48} {metric['value']:>16.6g} "
                    f"{metric['unit']}{notes.get(name, '')}"
                )
            for message in record["checks"]:
                print(f"{workload:<10} CHECK FAILED: {message}")
            print(
                f"{workload:<10} correct={record['result']['correct']} "
                f"attempted={record['result']['attempted']} "
                f"failed={record['result']['failed']}"
            )
            (out / f"{workload}-trace{trace}.json").unlink()
    (out / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"results written to {out / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[workload["name"] for workload in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results directory")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None and args.out is None:
        parser.error("give --workload, or --out to run every workload")
    _use_source_tree()
    return _single(args) if args.workload else _every_workload(args)


if __name__ == "__main__":
    sys.exit(main())
