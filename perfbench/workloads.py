"""Workloads of the stpz benchmark: seeded inputs, the timed closed loop
through ``stpz.cli.main``, and the output checks.

Every operation is one in-process ``stpz.cli.main([...])`` call on PPM and
STPZ files in a scratch directory.  One operation runs at a time, and the
benchmark starts no threads of its own.  Outputs are kept in memory and
checked after the timed loop, so no check lands inside a timed interval.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stpz import cli, codec, decomp, imaging, synthetic
from stpz.tensor import dft3

# Gaussian noise (8-bit units) on top of a Kronecker-structured image: no DFT
# slice is then an exact Kronecker product, the gap between the leading
# singular values of each rearranged slice is realistic, and rank-20
# truncation at m2=8 is lossy at about 32.6 dB.
NOISE_SIGMA = 6.0
CONTENT_RANK = 4
# Warm-up image side: large enough that the SVDs reach OpenBLAS's threaded
# kernels, so their lazy set-up is paid in set-up and not by the first
# timed operation.
WARMUP_SIZE = 256
WARMUP_INDEX = 1_000_000
# Relative tolerance between a figure the CLI printed and the same figure
# computed by the benchmark from the program's outputs.
REPORT_RTOL = 1e-6


@dataclass(frozen=True)
class Spec:
    """One workload: which operations a cycle runs, on what inputs."""

    name: str
    kind: str  # "encode", "decode-eval" or "compare"
    size: int  # image side; images are size x size x 3
    m2: int  # block side (m2 = n2)
    rank: int  # block rank, the same on every slice
    inputs: int  # distinct seeded images, used in turn
    why: str = ""

    @property
    def commands(self) -> tuple[str, ...]:
        return {
            "encode": ("compress",),
            "decode-eval": ("decompress", "metrics"),
            "compare": ("bench-stpsvd", "bench-tsvd"),
        }[self.kind]


WORKLOADS = {
    s.name: s
    for s in (
        Spec(
            "encode-512", "encode", 512, 8, 20, 6,
            "photo-sized compress: NKP of a tall 4096x64 rearrangement, dft3, the slice pool",
        ),
        Spec(
            "encode-1024-m32", "encode", 1024, 32, 8, 2,
            "large-C compress: NKP of a square 1024x1024 rearrangement is over 95% of the time",
        ),
        Spec(
            "decode-eval-512", "decode-eval", 512, 8, 20, 6,
            "read path: deserialize, reconstruct, idft3, PPM I/O and SSIM, with no NKP or SVD",
        ),
        Spec(
            "compare-512", "compare", 512, 8, 20, 3,
            "the paper's STP vs T-SVD comparison; the only runs of t_svd_trunc and t_product",
        ),
    )
}


class SetupError(RuntimeError):
    """Set-up could not prepare the workload's inputs."""


def make_image(size: int, m2: int, seed: int, index: int) -> tuple[imaging.ImageBuffer, float]:
    """Textured RGB test image ``index`` of run ``seed``, and the seconds
    spent in ``synthetic.structured_test_image``."""
    rng = np.random.default_rng([seed, index])
    t0 = time.perf_counter()
    base = synthetic.structured_test_image(
        size, size, m2, m2, rank=CONTENT_RANK, seed=int(rng.integers(2**31))
    )
    elapsed = time.perf_counter() - t0
    noisy = base.samples + rng.normal(0.0, NOISE_SIGMA, base.samples.shape)
    return imaging.ImageBuffer(np.clip(np.rint(noisy), 0, 255).astype(np.uint8)), elapsed


@dataclass
class Inputs:
    spec: Spec
    seed: int
    workdir: Path
    images: list[imaging.ImageBuffer]
    ppm: list[Path]
    containers: list[Path]
    timings: dict = field(default_factory=dict)


@dataclass
class Call:
    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


def call_cli(argv: list[str], tracer=None, cycle: int = 0) -> Call:
    """One timed ``stpz.cli.main`` call with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    span = tracer.operation("cli.main", cycle) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    with span, redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises is a failed operation
            rc, error = None, traceback.format_exc(limit=4)
    return Call(rc, out.getvalue(), err.getvalue(), error, time.perf_counter() - t0)


def _argv(spec: Spec, command: str, src: Path, work: Path, size: int | None = None) -> list[str]:
    side = size or spec.size
    rank = str(min(spec.rank, side // spec.m2))
    blocks = ["--m2", str(spec.m2), "--n2", str(spec.m2), "--rank", rank]
    if command == "compress":
        return ["compress", "--input", str(src), *blocks, "--output", str(work)]
    if command == "decompress":
        return ["decompress", "--input", str(src), "--output", str(work)]
    if command == "metrics":
        return ["metrics", "--ref", str(src), "--test", str(work)]
    method = command.split("-", 1)[1]
    return ["bench", "--input", str(src), "--method", method, *blocks]


def _must_succeed(call: Call, what: str) -> None:
    if call.rc != 0:
        raise SetupError(f"{what} failed (exit {call.rc}): {call.error or call.stderr}")


def setup(spec: Spec, seed: int, workdir: Path) -> Inputs:
    """Generate the inputs, pre-build containers, and warm the program up."""
    timings: dict = {"structured_s": []}
    t0 = time.perf_counter()
    images, ppm = [], []
    for i in range(spec.inputs):
        img, gen_s = make_image(spec.size, spec.m2, seed, i)
        timings["structured_s"].append(gen_s)
        path = workdir / f"in{i}.ppm"
        path.write_bytes(imaging.save_ppm(img))
        images.append(img)
        ppm.append(path)
    timings["generate_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    containers = []
    if spec.kind == "decode-eval":
        for i, src in enumerate(ppm):
            path = workdir / f"in{i}.stpz"
            _must_succeed(call_cli(_argv(spec, "compress", src, path)), f"pre-building {path.name}")
            containers.append(path)
    timings["prebuild_s"] = time.perf_counter() - t0

    # One call of each of the workload's commands on a small image.  The
    # first SVD in a process pays about 0.9 s of lazy BLAS set-up; a user
    # pays it once per process, so it belongs to set-up, not to the loop.
    t0 = time.perf_counter()
    warm, _ = make_image(WARMUP_SIZE, spec.m2, seed, WARMUP_INDEX)
    wsrc, wblob = workdir / "warm.ppm", workdir / "warm.stpz"
    wsrc.write_bytes(imaging.save_ppm(warm))
    if spec.kind == "decode-eval":
        _must_succeed(call_cli(_argv(spec, "compress", wsrc, wblob, WARMUP_SIZE)), "warm-up")
    for command in spec.commands:
        src = wblob if command == "decompress" else wsrc
        work = workdir / "warm-out"
        _must_succeed(call_cli(_argv(spec, command, src, work, WARMUP_SIZE)), f"warm-up {command}")
    timings["warmup_s"] = time.perf_counter() - t0
    return Inputs(spec, seed, workdir, images, ppm, containers, timings)


@dataclass
class Op:
    """One attempted operation and what it produced."""

    command: str
    input: int
    cycle: int
    traced: bool
    seconds: float
    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    output: str | None = None  # digest of the output file, when one is written
    failure: str | None = None


def run_loop(inputs: Inputs, seconds: float, tracer=None, first_cycle: int = 0,
             blobs: dict | None = None) -> tuple[list[Op], dict]:
    """Closed loop: cycles over the inputs in turn until ``seconds`` of wall
    time have passed and every input has been used once.

    Output files are read back between operations, outside the timed calls,
    and stored once per distinct content in ``blobs`` (digest -> bytes).
    """
    spec = inputs.spec
    blobs = {} if blobs is None else blobs
    ops: list[Op] = []
    work = inputs.workdir / "out"
    start = time.perf_counter()
    cycle = first_cycle
    while cycle - first_cycle < spec.inputs or time.perf_counter() - start < seconds:
        i = (cycle - first_cycle) % spec.inputs
        for command in spec.commands:
            if command == "metrics" and (ops[-1].rc != 0 or ops[-1].failure):
                break  # nothing was decoded to score
            src = inputs.containers[i] if command == "decompress" else inputs.ppm[i]
            if command in ("compress", "decompress"):
                work.unlink(missing_ok=True)
            c = call_cli(_argv(spec, command, src, work), tracer, cycle)
            op = Op(command, i, cycle, tracer is not None, c.seconds, c.rc, c.stdout, c.stderr, c.error)
            if command in ("compress", "decompress") and c.rc == 0:
                if work.is_file():
                    data = work.read_bytes()
                    op.output = hashlib.sha256(data).hexdigest()
                    blobs.setdefault(op.output, data)
                else:
                    op.failure = "exit 0 but no output file"
            ops.append(op)
        cycle += 1
    return ops, blobs


def _frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a.astype(np.float64).ravel()))


def _json_float(value) -> float:
    return math.inf if value == "inf" else float(value)


class Checker:
    """Checks every operation's output and collects the quality figures.

    The oracle for input i is computed once, on first use: the paper's error
    bound for the STP route (``decomp.error_bound_tensor``), the discarded
    singular-value energy over sqrt(l) for T-SVD, and for ``compare`` the
    reference reconstructions.  Each bound is widened by 0.5*sqrt(N), the
    most that rounding to 8 bits can add; clamping to [0, 255] only brings
    a sample closer to its 8-bit source.
    """

    def __init__(self, inputs: Inputs, blobs: dict):
        self.inputs = inputs
        self.spec = inputs.spec
        self.blobs = blobs
        self._oracle: dict[int, dict] = {}
        self._verdicts: dict[tuple, str | None] = {}
        self._scores: dict[tuple[int, str], dict] = {}
        # (input, method) -> {output digest: (psnr, ssim)}
        self.quality: dict[tuple[int, str], dict[str, tuple[float, float]]] = {}
        # input -> {container digest: size in bytes}
        self.container_bytes: dict[int, dict[str, int]] = {}

    def oracle(self, i: int) -> dict:
        if i in self._oracle:
            return self._oracle[i]
        spec, img = self.spec, self.inputs.images[i]
        A = imaging.image_to_tensor(img)
        R = [spec.rank] * A.shape[2]
        rounding = 0.5 * math.sqrt(img.samples.size)
        o = {"stpsvd_bound": decomp.error_bound_tensor(A, spec.m2, spec.m2, R) + rounding}
        if spec.kind == "compare":
            Ah = dft3(A)
            tail_energy = sum(
                float(np.sum(np.linalg.svd(Ah[:, :, k], compute_uv=False)[r:] ** 2))
                for k, r in enumerate(R)
            )
            o["tsvd_bound"] = math.sqrt(tail_energy / A.shape[2]) + rounding
            stp = decomp.tensor_stp_svd_trunc(A, spec.m2, spec.m2, R)
            o["stp_container"] = len(codec.serialize(stp))
            for method, F in (("stpsvd", stp), ("tsvd", decomp.t_svd_trunc(A, R))):
                test = imaging.tensor_to_image(decomp.reconstruct(F, drop_imag=True))
                o[method] = self._score(i, test)
        self._oracle[i] = o
        return o

    def _score(self, i: int, test: imaging.ImageBuffer) -> dict:
        src = self.inputs.images[i]
        return {
            "psnr": imaging.psnr(src, test),
            "related_error": imaging.relative_error(src, test),
            "ssim": imaging.ssim(src, test),
        }

    def _decoded(self, i: int, digest: str, test: imaging.ImageBuffer) -> str | None:
        src = self.inputs.images[i]
        if test.samples.shape != src.samples.shape:
            return f"decoded shape {test.samples.shape} != source {src.samples.shape}"
        err = _frobenius(src.samples.astype(np.float64) - test.samples)
        bound = self.oracle(i)["stpsvd_bound"]
        if not err <= bound * (1 + 1e-12):
            return f"reconstruction error {err:.6g} exceeds bound {bound:.6g}"
        score = self._scores[(i, digest)] = self._score(i, test)
        self.quality.setdefault((i, "stpsvd"), {})[digest] = (score["psnr"], score["ssim"])
        return None

    def _check_container(self, i: int, digest: str) -> str | None:
        blob = self.blobs[digest]
        spec, src = self.spec, self.inputs.images[i]
        F = codec.deserialize(blob)
        if codec.serialize(F) != blob:
            return "serialize(deserialize(blob)) != blob"
        h, w, c = src.samples.shape
        dims = (h // spec.m2, spec.m2, w // spec.m2, spec.m2, c)
        if F.dims != dims or F.block_rank != [spec.rank] * c:
            return f"container dims {F.dims} ranks {F.block_rank}, expected {dims} {[spec.rank] * c}"
        self.container_bytes.setdefault(i, {})[digest] = len(blob)
        return self._decoded(i, digest, imaging.tensor_to_image(decomp.reconstruct(F)))

    def _check_decompressed(self, i: int, digest: str) -> str | None:
        return self._decoded(i, digest, imaging.load_ppm(self.blobs[digest]))

    def _check_report(self, what: str, got: dict, want: dict) -> str | None:
        for key, value in want.items():
            if not math.isclose(_json_float(got[key]), value, rel_tol=REPORT_RTOL, abs_tol=1e-12):
                return f"{what} reported {key} {got[key]}, expected {value}"
        return None

    def _check_metrics(self, i: int, decoded: str, stdout: str) -> str | None:
        key = (i, decoded)
        if key not in self._scores:
            self._scores[key] = self._score(i, imaging.load_ppm(self.blobs[decoded]))
        return self._check_report("metrics", json.loads(stdout), self._scores[key])

    def _check_bench(self, i: int, method: str, stdout: str) -> str | None:
        spec, src = self.spec, self.inputs.images[i]
        got = json.loads(stdout)
        h, w, c = src.samples.shape
        kind = codec.Method.TRUNC_STPSVD if method == "stpsvd" else codec.Method.TRUNC_TSVD
        count = codec.storage_count(kind, h // spec.m2, spec.m2, w // spec.m2, spec.m2, c, spec.rank)
        if (got["method"], got["R"], got["storage_count"]) != (method, [spec.rank] * c, count):
            return f"bench reported {got['method']} R={got['R']} count={got['storage_count']}"
        o = self.oracle(i)
        ref = o[method]
        got = dict(got, psnr=got["psnr_db"])
        failure = self._check_report(f"bench {method}", got, ref)
        if failure:
            return failure
        err = float(got["related_error"]) * _frobenius(src.samples)
        if not err <= o[f"{method}_bound"] * (1 + 1e-12):
            return f"{method} error {err:.6g} exceeds bound {o[f'{method}_bound']:.6g}"
        self.quality.setdefault((i, method), {})["ref"] = (ref["psnr"], ref["ssim"])
        self.container_bytes.setdefault(i, {})["ref"] = o["stp_container"]
        return None

    def _check(self, op: Op, decoded: str | None) -> str | None:
        if op.command == "metrics":
            return self._check_metrics(op.input, decoded, op.stdout)
        if op.command.startswith("bench"):
            return self._check_bench(op.input, op.command.split("-", 1)[1], op.stdout)
        key = (op.command, op.input, op.output)
        if key not in self._verdicts:
            fn = self._check_container if op.command == "compress" else self._check_decompressed
            self._verdicts[key] = fn(op.input, op.output)
        return self._verdicts[key]

    def check(self, ops: list[Op]) -> None:
        """Set ``op.failure`` on every operation that failed.

        A metrics operation is checked against the image that the
        decompress before it wrote, whatever that image's own verdict.
        """
        decoded = None
        for op in ops:
            if op.command == "decompress":
                decoded = op.output
            if op.failure:
                continue
            if op.error is not None or op.rc != 0:
                op.failure = f"exit {op.rc}: {(op.error or op.stderr).strip()[-300:]}"
                continue
            try:
                op.failure = self._check(op, decoded)
            except Exception as exc:  # malformed output fails its check, not the run
                op.failure = f"output check raised {exc!r}"

    def summary(self) -> dict:
        """Mean PSNR, SSIM and bytes ratio over the workload's inputs.

        Each input counts once, whatever number of operations it got, so
        one seed always gives the same figures.
        """
        src_bytes = self.inputs.images[0].samples.size
        if self.spec.kind == "decode-eval":
            for i, path in enumerate(self.inputs.containers):
                self.container_bytes[i] = {"file": path.stat().st_size}
        psnrs = [statistics.fmean(p for p, _ in q.values()) for q in self.quality.values()]
        ssims = [statistics.fmean(s for _, s in q.values()) for q in self.quality.values()]
        ratios = [statistics.fmean(b.values()) / src_bytes for b in self.container_bytes.values()]
        return {
            "psnr_db": statistics.fmean(psnrs) if psnrs else None,
            "ssim": statistics.fmean(ssims) if ssims else None,
            "bytes_ratio": statistics.fmean(ratios) if ratios else None,
        }


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return {"value": sorted(values)[k], "percentile": round(100.0 * (k + 1) / n, 2), "samples": n}


def cycle_seconds(ops: list[Op]) -> list[float]:
    per: dict[int, float] = {}
    for op in ops:
        per[op.cycle] = per.get(op.cycle, 0.0) + op.seconds
    return list(per.values())


def operation_metrics(spec: Spec, ops: list[Op]) -> dict:
    """Every end-to-end timing of the workload; None where not exercised."""
    by_command: dict[str, list[float]] = {}
    for op in ops:
        by_command.setdefault(op.command, []).append(op.seconds)
    cycles = cycle_seconds(ops)
    out = {"cycle_s.p50": statistics.median(cycles), "cycle_s.tail": tail(cycles)}
    for command in ("compress", "decompress", "metrics", "bench-stpsvd", "bench-tsvd"):
        times = by_command.get(command)
        name = command.replace("-", "_") + "_s"
        out[f"{name}.p50"] = statistics.median(times) if times else None
        if command in ("compress", "decompress"):
            out[f"{name}.tail"] = tail(times) if times else None
    total = sum(op.seconds for op in ops)
    out["throughput_mpix_s"] = len(ops) * spec.size * spec.size / 1e6 / total
    return out
