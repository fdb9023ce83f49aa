"""Run one plapbench benchmark workload, or all of them.

    python3 bench/run.py --workload scheme-64 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1

One run builds the workload's inputs from ``--seed``, repeats timed passes
for ``--seconds`` (at least one pass, and no pass expected to end later),
checks every output, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run makes two untraced
passes, then repeats the set-up and one pass with every listed program
function wrapped, and reports the per-layer metrics.  ``--all`` runs each
workload in a fresh process, one at a time, and prints every end-to-end
metric with its unit.

The program is imported from ``src/`` of the checkout this file sits in.
Scratch files go under ``.bench_work/`` there; a traced run leaves its spans
in ``.bench_work/traces/<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import os

# single-threaded numerics; set before numpy is imported, inherited by children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# the keys of workloads.WORKLOADS, which can only be imported once the program is
WORKLOAD_NAMES = ("scheme-64", "solve-ladder", "potential-sweep")
SETUP_SAMPLES = (3, 2)  # set-up samples taken before and after the passes


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program() -> None:
    """Import plapbench from this checkout's ``src/``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "plapbench" / "__init__.py").is_file():
        log(f"error: no program source under {src}")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import plapbench

    if Path(plapbench.__file__).resolve().parent != (src / "plapbench").resolve():
        log(f"error: imported plapbench from {plapbench.__file__}, not from {src}")
        sys.exit(2)


def code_digest() -> str:
    """Hash of the program and benchmark sources: what a run's outputs may depend on."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def sample_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the program and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls every 50 ms, which would quantize the sample
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return elapsed


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_reference(key: str, record: dict) -> list[str]:
    """Compare with the first run of this program, workload and seed; store it if new.

    Returns the names of entries that differ from the stored run.
    """
    ref_path = WORK / "ref" / f"{key}.json"
    ref = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    diffs = [k for k in record if k in ref and ref[k] != record[k]]
    if any(k not in ref for k in record):
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps({**record, **ref}, sort_keys=True))
    return diffs


def run_workload(args) -> int:
    import_program()
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, Op

    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        (run_dir / "inputs").mkdir(parents=True)
        if args.setup_only:
            wl.setup(args.seed, run_dir / "inputs")
            return 0

        def one_pass(inputs, k):
            out = run_dir / f"pass-{k}"
            out.mkdir()
            result = wl.run(inputs, out)
            shutil.rmtree(out)
            return result

        env = environment()
        log(f"environment: {json.dumps(env, sort_keys=True)}")
        setup = [] if args.trace else [sample_setup(wl.name, args.seed) for _ in range(SETUP_SAMPLES[0])]
        inputs = wl.setup(args.seed, run_dir / "inputs")

        passes = []
        if args.trace:
            # The first pass in a process is slower than later ones (fresh large
            # arrays are page-faulted in until glibc raises its mmap threshold),
            # so the trace overhead compares the traced pass with a second,
            # equally warm untraced pass.
            passes.append(one_pass(inputs, 0))
            passes.append(one_pass(inputs, 1))
            tracer = Tracer()
            with tracer.installed(layers.program_modules(), layers.targets()):
                (run_dir / "inputs-traced").mkdir()
                traced_inputs = wl.setup(args.seed, run_dir / "inputs-traced")
                pass_start = len(tracer.spans)
                passes.append(one_pass(traced_inputs, 2))
            metrics = layers.layer_metrics(tracer.spans, pass_start, passes[2].timed_s, passes[1].timed_s)
            trace_path = WORK / "traces" / f"{wl.name}-{args.seed}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path)
            log(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            # start another pass only while a pass of average length still ends within --seconds
            t0 = time.perf_counter()
            while not passes or (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= args.seconds:
                passes.append(one_pass(inputs, len(passes)))
            setup += [sample_setup(wl.name, args.seed) for _ in range(SETUP_SAMPLES[1])]
            metrics = {
                "run_s": statistics.median(p.timed_s for p in passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = declared_units("per_layer" if args.trace else "end_to_end")
        work_counts = {k: v for k, v in metrics.items() if units[k] == "count"}

        ops = [op for p in passes for op in p.ops]
        # every pass (traced or not) must reproduce the first pass byte for byte
        same = all(p.outputs == passes[0].outputs and p.counts == passes[0].counts for p in passes)
        ops.append(Op("passes-identical", same, "outputs and work counts of every pass match the first"))
        record = {"outputs": passes[0].outputs, "counts": passes[0].counts}
        if args.trace:
            record["trace_counts"] = work_counts
        key = f"{code_digest()}-{wl.name}-{args.seed if wl.seeded else 'any'}"
        diffs = check_reference(key, record)
        ops.append(Op("runs-identical", not diffs, f"differs from the first run in {diffs}" if diffs else ""))

        for k, p in enumerate(passes):
            log(f"pass {k}: " + ", ".join(f"{n}={v:.6g}" for n, v in {"run_s": p.timed_s, **p.details}.items()))
        log(f"work counts: {json.dumps({**passes[0].counts, **work_counts}, sort_keys=True)}")
        failed = [op for op in ops if not op.ok]
        for op in failed:
            log(f"FAILED {op.name}: {op.detail}")
        result = {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time; print every metric."""
    status = 0
    print(f"{'workload':<16} {'metric':<32} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<16} run failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<32} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<16} {'checks':<32} {result['attempted'] - result['failed']:>8d} of {result['attempted']} passed")
        status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOAD_NAMES)
    group.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="measure for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
