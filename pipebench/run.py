"""Pipeline benchmark for the patchmask CLI.

Run from the root of a checkout:

    python3 pipebench/run.py --workload mask-cluster --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run writes its inputs from the seed, then runs the workload's
command in a closed loop for ``--seconds``, one fresh process per
invocation (see worker.py). Each process's start-up to an imported CLI
is a ``setup_s`` sample. With
``--trace 0`` it reports end-to-end metrics, with ``--trace 1`` per-layer
metrics from a traced run. The last line of standard output is one JSON
object; a full record goes to ``pipebench/results/``. README.md explains
the workloads and metrics.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_LIMIT_S = 170  # a run must end within 180 s


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)  # the package comes from this checkout only
    return env


def machine_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config differs across numpy versions
        blas = "unknown"
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = None
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": BLAS_ENV,  # what every invocation process runs with
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "numba_installed": numba,
        "setup_s_note": "setup_s: a fresh python3 starting, importing patchmask.cli and "
                        "building its parser" + ("" if numba else "; numba is not installed, so "
                                                 "no numba import or JIT is in it"),
    }


def write_inputs(workload, seed, in_dir):
    """Seeded inputs for the workload; returns their sha256."""
    from inputs import write_images
    from workloads import train_config

    if workload.images:
        return write_images(in_dir, seed, workload.images)
    in_dir.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(train_config(seed), sort_keys=True).encode("ascii")
    (in_dir / "train.json").write_bytes(blob)
    return hashlib.sha256(b"train.json" + blob).hexdigest()


def invoke(name, seed, in_dir, out_dir, result, spans, deadline):
    """One CLI invocation in a fresh worker process; returns its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--src", str(SRC), "--in", str(in_dir), "--out", str(out_dir), "--result", str(result)]
    if spans:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    record = json.loads(result.read_text(encoding="ascii"))
    record["setup_s"] = record.pop("ready_monotonic") - spawned
    return record


def run_workload(name, seed, seconds, trace, deadline):
    """One run of one workload; returns its full record.

    Invocations run back to back until the next one would end after
    ``seconds``. With ``trace`` three in four run traced; the untraced
    ones give the throughput the tracing overhead is measured against.
    """
    from spans import layer_metrics, read_spans, write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir = work / "in", work / "out"
    runs, spans, missing = [], [], set()
    try:
        input_digest = write_inputs(workload, seed, in_dir)
        out_dir.mkdir(parents=True)  # calibrate writes its report there but makes no directory
        start = time.monotonic()
        while not runs or (time.monotonic() - start
                           + statistics.median(r["wall"] for r in runs) <= seconds):
            traced = bool(trace) and len(runs) % 4 != 0
            began = time.monotonic()
            run = invoke(name, seed, in_dir, out_dir, work / "worker.json",
                         work / "spans.jsonl" if traced else None, deadline)
            run.update(traced=traced, wall=time.monotonic() - began)
            runs.append(run)
            if traced:
                read_spans(work / "spans.jsonl", spans)
                missing.update(run["missing_spans"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = runs[0]["output_digest"]
    failures = [f"invocation {i}: {p}" for i, r in enumerate(runs) for p in r["failures"]]
    failures += [f"invocation {i}: outputs differ from invocation 0's"
                 for i, r in enumerate(runs) if r["output_digest"] != reference]
    ok = [r for r in runs if not r["failures"] and r["output_digest"] == reference]

    def rate(sample):
        return statistics.median(workload.items / r["seconds"] for r in sample) if sample else None

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(runs), "failed": len(runs) - len(ok), "failures": failures[:20],
        "samples": len([r for r in ok if not r["traced"]]),
        "invocation_seconds": [r["seconds"] for r in runs],
        "input_digest": input_digest, "output_digest": reference,
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "setup_s_samples": [r["setup_s"] for r in runs],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "images_per_s": rate([r for r in ok if not r["traced"]]),
        "train_loss_final": runs[0].get("train_loss_final"),
    }
    if trace:
        traced_rate = rate([r for r in ok if r["traced"]])
        items = workload.items * sum(r["traced"] for r in runs)
        metrics, notes = layer_metrics(spans, missing, max(items, 1))
        if record["images_per_s"] and traced_rate:
            metrics["trace.overhead_frac"] = (1.0 - traced_rate / record["images_per_s"], "frac")
        else:
            notes.append("trace.overhead_frac: no successful traced and untraced pair")
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{name}-seed{seed}.jsonl"
        write_spans(spans_path, spans)
        record.update(
            images_per_s_traced=traced_rate,
            traced_samples=len([r for r in ok if r["traced"]]),
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            notes=notes, missing_spans=sorted(missing),
            spans_file=str(spans_path.relative_to(ROOT)),
        )
    return record


def end_to_end(record):
    """The end-to-end metrics of an untraced run, name -> (value, unit)."""
    metrics = {"setup_s": (record["setup_s"], "s"), "peak_rss_mb": (record["peak_rss_mb"], "MB")}
    if record["images_per_s"] is not None:
        metrics["images_per_s"] = (record["images_per_s"], "images/s")
    return metrics


def report(record):
    """Print a run's metrics by name and unit; return them for the JSON line."""
    name = record["workload"]
    if record["trace"]:
        metrics = {k: (m["value"], m["unit"]) for k, m in record["metrics"].items()}
    else:
        metrics = end_to_end(record)
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{name}  {key} = {value:.6g} {unit}")
    rate = record["failed"] / record["attempted"]
    print(f"{name}  error_rate = {rate:.6g} ({record['failed']} of {record['attempted']} "
          f"invocations failed)")
    print(f"{name}  samples = {record['samples']} untraced invocations, one process each")
    if record.get("train_loss_final") is not None:
        print(f"{name}  train_loss_final = {record['train_loss_final']!r}")
    for note in record.get("notes", []):
        print(f"{name}  note: {note}")
    for failure in record["failures"]:
        print(f"{name}  FAILED {failure}", file=sys.stderr)
    print(f"{name}  inputs sha256 {record['input_digest']}")
    print(f"{name}  outputs sha256 {record['output_digest']}")
    return metrics


def main():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "patchmask" / "cli.py").is_file():
        sys.exit(f"no patchmask package under {SRC}: run from a checkout of the repository")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    info = machine_info()
    records, metrics = [], {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            sys.exit(f"{name}: {exc}")
        record["machine"] = info
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
        records.append(record)
        for key, (value, unit) in report(record).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
