#!/usr/bin/env python3
"""stpz benchmark.

    python3 perfbench/run.py --workload encode-512 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Runs one workload (or, with ``all``, every workload untraced and traced, one
process each) from the root of a source checkout, against the stpz package
under ``src/``.  It prints every metric by name and unit, writes a report
with the machine facts under ``perfbench/_out/``, and ends its standard
output with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STPZ_THREADS")

E2E_UNITS = {
    "cycle_s.p50": "s", "cycle_s.tail": "s",
    "compress_s.p50": "s", "compress_s.tail": "s",
    "decompress_s.p50": "s", "decompress_s.tail": "s",
    "metrics_s.p50": "s", "bench_stpsvd_s.p50": "s", "bench_tsvd_s.p50": "s",
    "throughput_mpix_s": "Mpixel/s", "psnr_db": "dB", "ssim": "1", "bytes_ratio": "1",
    "setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "1",
}


class SourceMissing(RuntimeError):
    pass


def load_stpz():
    """Import stpz from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "stpz" / "__init__.py").is_file():
        raise SourceMissing(f"no stpz sources under {src}")
    sys.path.insert(0, str(src))
    import stpz

    if Path(stpz.__file__).resolve().parent != (src / "stpz").resolve():
        raise SourceMissing(f"imported stpz from {stpz.__file__}, not from {src}")
    return stpz


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def setup_probe(spec_json: str, seed: int) -> dict:
    """Set-up alone, in a fresh process; the parent times the whole process."""
    import workloads

    spec = workloads.Spec(**json.loads(spec_json))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT) as tmp:
        inputs = workloads.setup(spec, seed, Path(tmp))
    return {k: v for k, v in inputs.timings.items() if k != "structured_s"}


def measure_setup(spec, seed: int) -> tuple[float, list[float], list[dict]]:
    """Median wall time of SETUP_SAMPLES fresh processes that each start the
    interpreter, import stpz, generate the inputs, pre-build containers and
    warm up."""
    walls, parts = [], []
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            json.dumps(asdict(spec)), "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(walls), walls, parts


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(spec, seed: int, seconds: float, trace: bool,
                 setup_samples: bool = True, out_dir: Path = OUT) -> tuple[dict, dict]:
    """One run of one workload: (result line, full report)."""
    import tracing
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"workload": spec.name, "spec": asdict(spec), "seed": seed,
                    "seconds": seconds, "trace": int(trace), "machine": machine_facts(seed)}
    setup_s = None
    if setup_samples and not trace:
        setup_s, walls, parts = measure_setup(spec, seed)
        report["setup_samples_s"] = walls
        report["setup_parts_s"] = parts

    with tempfile.TemporaryDirectory(prefix=f"{spec.name}-", dir=out_dir) as tmp:
        t0 = time.perf_counter()
        inputs = workloads.setup(spec, seed, Path(tmp))
        report["own_setup_s"] = time.perf_counter() - t0
        report["own_setup_parts_s"] = inputs.timings

        if trace:
            # Half the time untraced, half traced, in one process, so the
            # overhead compares like with like.
            plain, blobs = workloads.run_loop(inputs, seconds / 2)
            tracer = tracing.Tracer()
            with tracer.installed(tracing.PATCHES):
                traced, blobs = workloads.run_loop(
                    inputs, seconds / 2, tracer, first_cycle=plain[-1].cycle + 1, blobs=blobs
                )
            ops = plain + traced
        else:
            ops, blobs = workloads.run_loop(inputs, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        t0 = time.perf_counter()
        checker = workloads.Checker(inputs, blobs)
        checker.check(ops)
        report["check_s"] = time.perf_counter() - t0
        quality = checker.summary()

    failed = [op for op in ops if op.failure]
    report["failures"] = [
        {"command": op.command, "input": op.input, "cycle": op.cycle, "failure": op.failure}
        for op in failed[:20]
    ]
    e2e = workloads.operation_metrics(spec, ops if not trace else plain)
    e2e.update(quality)
    e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, error_rate=len(failed) / len(ops))
    report["end_to_end"] = {k: _metric(v, E2E_UNITS[k]) for k, v in e2e.items()}
    report["samples_s"] = {}
    for op in ops:
        report["samples_s"].setdefault(op.command + ("+trace" if op.traced else ""), []).append(op.seconds)

    if trace:
        traced_cycles = len(workloads.cycle_seconds(traced))
        layers = tracing.layer_metrics(tracer.spans, traced_cycles)
        layers["synthetic.structured_test_image.s"] = statistics.median(
            inputs.timings["structured_s"]
        )
        layers["trace.overhead_ratio"] = statistics.median(
            workloads.cycle_seconds(traced)
        ) / statistics.median(workloads.cycle_seconds(plain))
        units = dict(tracing.LAYER_METRICS)
        report["per_layer"] = {k: _metric(v, units[k]) for k, v in layers.items()}
        report["traced_cycles"] = traced_cycles
        spans_path = out_dir / f"spans-{spec.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        # A layer that did not run reads 0 here and null in the report.
        metrics = {k: _metric(v if v is not None else 0.0, units[k]) for k, v in layers.items()}
    else:
        gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: _metric(e2e[m["name"]], m["unit"]) for m in gated}

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    return result, report


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, dict):
        return f"{value['value']:.6g} (p{value['percentile']:g} of {value['samples']})"
    return f"{value:.6g}"


def print_table(report: dict) -> None:
    w = report["workload"] + ("/trace" if report["trace"] else "")
    for section in ("end_to_end", "per_layer"):
        for name, m in report.get(section, {}).items():
            print(f"{w:<23} {name:<36} {_fmt(m['value']):>28} {m['unit']}")
    for f in report["failures"]:
        print(f"{w:<23} FAILED {f['command']} input {f['input']}: {f['failure']}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    reports, totals = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S * 2)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} trace={trace} failed: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads((OUT / f"report-{name}-seed{seed}-trace{trace}.json").read_text())
            reports.append(report)
            print_table(report)
            totals["correct"] &= result["correct"]
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                totals["metrics"][f"{name}:{k}"] = v
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_stpz()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.setup_probe, args.seed)))
        return 0

    import workloads

    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or 'all'")
    spec = workloads.WORKLOADS[args.workload]
    result, report = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"report-{spec.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print_table(report)
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
