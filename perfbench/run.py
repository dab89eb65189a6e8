"""hra-forge benchmark: closed-loop workloads timed from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload reference|screen|score|all \
        [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is the run length the benchmark runner passes on; it defaults
to ``run_seconds`` of BENCHMARK.json, so a run by hand measures as long as the
runner's runs do.

``all`` runs the three workloads one after another, each in its own process,
and exits with the highest of their exit codes.

The program is imported from ``src/`` of the checkout. Each run sets up its
workload several times (import in a fresh interpreter, fixture load, seeded
input generation, and on ``score`` training the two predictors), then runs
passes one after another, each starting when the previous one and its checks
have ended, and starts no pass that would end after ``--seconds`` (it runs at
least one pass per group, see workloads.py).

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` runs every pass twice, untraced and then traced, and reports the
per-layer metrics from the spans; the spans go to ``.perfbench_work/trace-*.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader, with the machine and the sha256 of every
generated input. Exit status is 0 when every check passed, 1 when one failed,
2 when the program cannot be imported.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Every matrix here is at most 86 x 45, too small to gain from BLAS threads;
# one thread keeps the timings steady on a shared machine.
BLAS_THREADS = 1
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hra_forge, hra_forge.cli; "
    "print(time.perf_counter() - t)"
)


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # serial replica training, whatever the caller's environment says
    env["HRA_FORGE_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _import_seconds(env) -> float:
    """Import time of the package in a fresh interpreter (a cold start)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"  # reported only when the OpenBLAS getter answers
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                threads = getter()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Hra:
    """The hra_forge modules the benchmark calls, imported once."""

    def __init__(self):
        import hra_forge.ann
        import hra_forge.cli
        import hra_forge.dataset
        import hra_forge.pipeline
        import hra_forge.psf
        import hra_forge.rsm

        self.ann = hra_forge.ann
        self.cli = hra_forge.cli
        self.dataset = hra_forge.dataset
        self.pipeline = hra_forge.pipeline
        self.psf = hra_forge.psf
        self.rsm = hra_forge.rsm


class Passes:
    """Tallies the operations attempted (passes and run-level checks) and
    collects the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        """Count one run-level check; it fails if it found any problem."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def run(self, workload, k: int, tracer) -> tuple[float, float]:
        """Time pass ``k``, then check it; return (seconds, work done)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("pass") as rec:
                rec[4] = k
                outcome = workload.run_pass(k, tracer)
        except Exception:
            self.failures.append(f"pass {k} raised:\n{traceback.format_exc()}")
            return time.perf_counter() - t0, 0.0
        elapsed = time.perf_counter() - t0
        problems = workload.check(k, outcome)
        if problems:
            self.failures.append(f"pass {k}: " + "; ".join(problems))
            return elapsed, 0.0
        return elapsed, workload.work(outcome)


def _another_pass(start: float, times: list[float], seconds: float) -> bool:
    """Start a pass only if, at the mean pass time so far, it ends by the deadline."""
    return time.perf_counter() - start + sum(times) / len(times) <= seconds


def _timed(workload, seconds: float, setup_times: list[float]):
    """Closed loop: each pass starts when the previous pass and its checks end."""
    from spans import NullTracer

    passes = Passes()
    tracer = NullTracer()
    times: list[float] = []
    by_group: dict = {}
    work: list[float] = []
    start = time.perf_counter()
    k = 0
    while k < workload.groups or _another_pass(start, times, seconds):
        elapsed, done = passes.run(workload, k, tracer)
        times.append(elapsed)
        if done:
            by_group.setdefault(workload.group(k), []).append(elapsed)
            work.append(done)
        k += 1
    # every group weighs the same, however many of its passes fit in the run
    verdict = statistics.fmean(statistics.median(v) for v in by_group.values()) if work else 0.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "verdict_s": verdict,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rate = statistics.median(work) / verdict if work else 0.0
    return metrics, passes, rate


def _traced(hra, workload, seconds: float):
    """Trace one set-up, then run each pass untraced and again traced."""
    import layers
    from spans import NullTracer, Tracer, instrument

    tracer = Tracer()
    undo = instrument(tracer, hra)
    try:
        with tracer.span("setup"):
            inputs = workload.setup()
    finally:
        undo()
    passes = Passes()
    pair_times: list[float] = []
    traced: list[tuple] = []
    overhead: list[float] = []
    start = time.perf_counter()
    k = 0
    while k < workload.groups or _another_pass(start, pair_times, seconds):
        plain = passes.run(workload, k, NullTracer())[0]
        root = len(tracer.spans)
        undo = instrument(tracer, hra)
        try:
            with_spans = passes.run(workload, k, tracer)[0]
        finally:
            undo()
        traced.append((workload.group(k), root))
        overhead.append(with_spans / plain - 1.0)
        pair_times.append(plain + with_spans)
        k += 1
    metrics, counts, problems = layers.per_layer(tracer, 0, traced, overhead)
    passes.check("trace", problems)
    return inputs, metrics, passes, counts, tracer


def _program_digest() -> str:
    """sha256 over the path and bytes of every source file of the program."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.glob("hra_forge/**/*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _check_record(name: str, seed: int, program: str, inputs: dict, outputs: dict) -> list[str]:
    """Compare with what earlier runs of this seed left in the checkout, then merge.

    Generated inputs must match across every run of the seed, whatever the
    program; output digests and counts only across runs of the same program,
    since a change to the program may rightly move them.
    """
    path = WORK / "records" / f"{name}-seed{seed}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    bad = []

    def merge(kept: dict, new: dict, what: str) -> None:
        for key, value in new.items():
            if key in kept and kept[key] != value:
                bad.append(f"{what} {key} differs from an earlier run of seed {seed}: "
                           f"{kept[key]} != {value}")
            kept[key] = value

    merge(old.setdefault("inputs", {}), inputs, "input")
    same_program = old.setdefault("programs", {}).setdefault(program, {})
    for section, values in outputs.items():
        merge(same_program.setdefault(section, {}), values, section)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(old, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reference", "screen", "score", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hra_forge" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no hra_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        # one child process per workload, one after another
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in ("reference", "screen", "score")
        ]
        return max(codes)

    env = _env()
    os.environ.update(env)  # before numpy is imported, so BLAS reads it
    sys.path.insert(0, env["PYTHONPATH"])

    try:
        import_times = [_import_seconds(env) for _ in range(SETUP_REPEATS)]
        hra = Hra()
    except (subprocess.SubprocessError, ImportError) as exc:
        print(f"error: cannot import hra_forge: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    machine = _machine()
    program = _program_digest()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            workload = cls(hra, args.seed, str(workdir))
            inputs, metrics, passes, counts, tracer = _traced(hra, workload, args.seconds)
            outputs = {"counts": counts}
            _write_spans(args, machine, inputs, tracer)
            names = spec["per_layer"]
        else:
            setup_times = []
            for import_s in import_times:
                workload = cls(hra, args.seed, str(workdir))
                t0 = time.perf_counter()
                inputs = workload.setup()
                setup_times.append(import_s + time.perf_counter() - t0)
            metrics, passes, rate = _timed(workload, args.seconds, setup_times)
            outputs = {}
            names = spec["end_to_end"]
        outputs.update(workload.fingerprints())
        passes.check("repeat", _check_record(args.workload, args.seed, program, inputs, outputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in names}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    failed = len(passes.failures)
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"program sha256={program}")
    for key, digest in sorted(inputs.items()):
        print(f"input {key} sha256={digest}")
    for failure in passes.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"operations attempted {passes.attempted}  failed {failed}")
    for name in sorted(units):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        # the workload's throughput is its work per pass over verdict_s
        name = "rows_per_s" if args.workload == "score" else "designs_per_s"
        print(f"{name} = {rate:.6g} 1/s")
    print(f"fail_frac = {failed / passes.attempted:.6g}")
    result = {
        "correct": correct,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in sorted(units)},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _write_spans(args, machine, inputs, tracer) -> None:
    out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed, "machine": machine, "inputs": inputs}
    doc["spans"] = [
        {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "self": own, "n": s[4]}
        for s, own in zip(tracer.spans, tracer.self_times())
    ]
    out.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
