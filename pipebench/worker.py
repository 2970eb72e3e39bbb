"""Run one invocation of a workload's CLI command in-process and write
what was measured to a JSON file.

run.py starts a fresh interpreter for every invocation, as a shell user
of the CLI would, so that each one starts from the same allocator and
cache state and its peak RSS belongs to that invocation alone. The time
from the process's start to the CLI being imported and its parser built
is one ``setup_s`` sample. The timed region is the ``patchmask.cli.main``
call. Outputs are checked and digested after the timed region.

With ``--trace 1`` the call runs under the timing shims and the spans go
to ``--spans`` as JSON lines.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import sys
import time
from pathlib import Path


def digest(out_dir, names, stdout):
    import hashlib

    h = hashlib.sha256(stdout.encode("utf-8"))
    for name in names:
        path = Path(out_dir) / name
        h.update(name.encode("ascii") + (path.read_bytes() if path.is_file() else b"<absent>"))
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory holding the patchmask package")
    parser.add_argument("--in", dest="in_dir", required=True)
    parser.add_argument("--out", dest="out_dir", required=True)
    parser.add_argument("--result", required=True, help="write the measurements here")
    parser.add_argument("--spans", help="trace the call and write its spans here")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import patchmask
    from patchmask import cli

    cli.build_parser()
    ready = time.monotonic()  # the end of set-up, as a CLI user would pay it

    # imported after set-up so that their cost stays out of it
    import contextlib
    import io
    import json
    import resource

    from workloads import WORKLOADS, check_train

    if Path(patchmask.__file__).resolve().parent != src / "patchmask":
        sys.exit(f"imported patchmask from {patchmask.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.in_dir, args.out_dir, args.seed)
    tracer = None
    if args.spans:
        from spans import Tracer, write_spans

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    code, problems = None, []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = tracer.run_root(cli.main, argv) if tracer else cli.main(argv)
    except Exception as exc:  # a traceback reaching a CLI user is a failure
        problems.append(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        write_spans(args.spans, tracer.spans)

    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    if not problems:
        problems = workload.check(args.out_dir)
    result = {
        "ready_monotonic": ready,
        "seconds": seconds,
        "failures": problems,
        "output_digest": digest(args.out_dir, workload.outputs, out.getvalue()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_spans": tracer.missing if tracer else [],
    }
    if workload.name == "train" and not problems:
        result["train_loss_final"] = check_train(Path(args.out_dir) / "train_log.csv")[1]
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
