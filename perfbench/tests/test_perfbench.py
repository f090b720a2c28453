"""Tests of the benchmark itself, on small images.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_stpz()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2
SMALL = {
    "encode": workloads.Spec("small-encode", "encode", 64, 4, 4, 2),
    "decode-eval": workloads.Spec("small-decode-eval", "decode-eval", 64, 4, 4, 2),
    "compare": workloads.Spec("small-compare", "compare", 64, 4, 4, 2),
}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.LAYER_METRICS
    for m in BENCHMARK["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
    kinds = {spec.kind for spec in workloads.WORKLOADS.values()}
    assert kinds == set(SMALL)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_every_end_to_end_metric_present_with_unit(kind, tmp_path):
    result, report = run.run_workload(SMALL[kind], 7, SECONDS, trace=False, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == run.E2E_UNITS
    assert report["end_to_end"]["error_rate"]["value"] == 0
    for command in SMALL[kind].commands:
        name = command.replace("-", "_") + "_s.p50"
        assert report["end_to_end"][name]["value"] > 0
    machine = report["machine"]
    assert machine["seed"] == 7 and machine["cpu_count"] >= 1
    assert set(machine["thread_env"]) == set(run.THREAD_VARS)


def _corrupt(path: Path, offset: int, data: bytes) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(data)] = data
    path.write_bytes(bytes(blob))


def test_corrupted_containers_count_as_failures(tmp_path):
    spec = workloads.Spec("small-decode-eval", "decode-eval", 64, 4, 4, 3)
    inputs = workloads.setup(spec, 3, tmp_path)
    _corrupt(inputs.containers[0], 0, b"JUNK")  # decoder rejects it: exit 4
    # A huge first singular value decodes fine but breaks the error bound.
    m1 = spec.size // spec.m2
    _corrupt(inputs.containers[1], 28 + 4 * 3 + 16 * m1 * spec.rank, struct.pack("<d", 1e9))
    ops, blobs = workloads.run_loop(inputs, SECONDS)
    workloads.Checker(inputs, blobs).check(ops)

    failed = {(op.command, op.input) for op in ops if op.failure}
    assert failed == {("decompress", 0), ("decompress", 1)}
    assert any(op.command == "decompress" and op.input == 2 and not op.failure for op in ops)
    assert not any(op.command == "metrics" and op.input == 0 for op in ops)
    bad = next(op for op in ops if op.input == 1 and op.command == "decompress")
    assert "exceeds bound" in bad.failure


def test_failed_operations_reach_error_rate(tmp_path, monkeypatch):
    spec = SMALL["encode"]
    real = workloads.cli.main

    def flaky(argv):
        if argv[0] == "compress" and argv[2].endswith("in1.ppm"):
            return 3
        return real(argv)

    monkeypatch.setattr(workloads.cli, "main", flaky)
    result, report = run.run_workload(spec, 5, SECONDS, trace=False, setup_samples=False,
                                      out_dir=tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    rate = report["end_to_end"]["error_rate"]["value"]
    assert rate == result["failed"] / result["attempted"]


def _traced_spans(spec, tmp_path):
    inputs = workloads.setup(spec, 11, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.PATCHES):
        ops, _ = workloads.run_loop(inputs, SECONDS, tracer)
    return tracer, ops


@pytest.mark.parametrize("kind", ["encode", "compare"])
def test_spans_nest_and_self_times_are_nonnegative(kind, tmp_path):
    tracer, ops = _traced_spans(SMALL[kind], tmp_path)
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert len(roots) == len(ops) and all(s.name == "cli.main" for s in roots)
    for s in spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent.name, s.name)
            assert s.cycle == parent.cycle
    assert all(t >= 0 for t in tracing.self_times(spans).values())
    # Per-slice spans on pool workers hang under the call that fanned out.
    pooled = [s for s in spans if s.parent is not None and s.thread != by_id[s.parent].thread]
    if workloads.cli._threads(3) > 1:
        assert pooled
        assert {by_id[s.parent].name for s in pooled} <= {
            "decomp.tensor_stp_svd_trunc", "decomp.t_svd_trunc"
        }


def test_tracer_restores_the_program(tmp_path):
    originals = [getattr(m, a) for m, a, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    with tracer.installed(tracing.PATCHES):
        assert getattr(workloads.cli, "cmd_compress") is not originals[0]
    assert [getattr(m, a) for m, a, _, _ in tracing.PATCHES] == originals


COUNT_METRICS = [name for name, _ in tracing.COUNTS] + [
    "nkp.triplets_used_ratio", "svd.svds.kept_ratio", "decomp.slices_decomposed"
]


@pytest.mark.parametrize("kind", ["compare", "decode-eval"])
def test_one_seed_gives_identical_counts_and_quality(kind, tmp_path):
    runs = [
        run.run_workload(SMALL[kind], 9, SECONDS, trace=True, out_dir=tmp_path / str(k))[1]
        for k in range(2)
    ]
    counts = [{k: r["per_layer"][k]["value"] for k in COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    quality = [{k: r["end_to_end"][k]["value"] for k in ("psnr_db", "ssim", "bytes_ratio")}
               for r in runs]
    assert quality[0] == quality[1]
    if kind == "compare":
        # m2=4 at 64x64: the rearrangement is 256 x 16, of which NKP uses 1 triplet.
        assert counts[0]["nkp.triplets_used_ratio"] == 1 / 16
        assert counts[0]["decomp.slices_decomposed"] == 3
        assert counts[0]["products.t_product.calls"] == 2
    assert math.isfinite(runs[0]["per_layer"]["trace.overhead_ratio"]["value"])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "encode-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
