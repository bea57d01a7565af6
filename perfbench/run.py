"""Run one workload of the matchcover benchmark and print its metrics.

    python3 perfbench/run.py --workload families-analyze --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (`setup_s`, `pass_s`, `peak_rss_mb`);
with `--trace 1` they are the per-layer ones, and the spans are written
to `perfbench/out/`.  `--workload all` runs every workload in turn, each
in its own process, and prints one line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of fresh-interpreter set-ups: this many before
# the passes and this many after, so that one slow moment of the machine
# does not set the figure
SETUP_PROBES = (4, 3)
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep starting passes until this much time has "
                        "gone by (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child(args, *extra) -> str:
    """Run this script in a fresh interpreter; return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def probe_setup(args, count: int) -> list[float]:
    """Set-up times of fresh interpreters, from before `import matchcover`
    until the inputs are ready."""
    return [json.loads(_child(args, "--setup-probe"))["setup_s"]
            for _ in range(count)]


def run_passes(wl, seconds: float):
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outputs.append(wl.run_pass())
        times.append(time.perf_counter() - t0)
    return times, outputs


def check_passes(wl, outputs) -> tuple[list[str], int]:
    """Check the first pass against the reference; later passes must
    give the same outputs.  Returns (errors, failed operations)."""
    errors, failed = wl.check(outputs[0])
    for i, out in enumerate(outputs[1:], start=2):
        if out != outputs[0]:
            errors.append(f"pass {i} gave different outputs from pass 1")
    return errors, failed * len(outputs)


def untraced_run(wl, args, workdir) -> dict:
    wl.setup(args.seed, workdir)
    setups = probe_setup(args, SETUP_PROBES[0])
    times, outputs = run_passes(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += probe_setup(args, SETUP_PROBES[1])
    errors, failed = check_passes(wl, outputs)
    return _result(wl, errors, failed, len(outputs), {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    })


def traced_run(wl, args, workdir) -> dict:
    """Set-up and one pass under the tracer.  The tracing overhead is this
    pass's time against `pass_s` of an untraced run."""
    workloads.import_matchcover()
    tracer = Tracer()
    with tracer.traced("setup"):
        wl.setup(args.seed, workdir)
    with tracer.traced("pass"):
        t0 = time.perf_counter()
        outputs = [wl.run_pass()]
        pass_s = time.perf_counter() - t0
    errors, failed = check_passes(wl, outputs)
    tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    metrics = tracer.metrics(wl.pm_total(), pass_s)
    return _result(wl, errors, failed, len(outputs), metrics)


def _result(wl, errors, failed, passes, metrics) -> dict:
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not errors, "attempted": wl.ops_per_pass * passes,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        args.workload = name
        try:
            line = _child(args, "--seconds", str(args.seconds),
                          "--trace", str(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: error: {exc}")
            status = 1
            continue
        res = json.loads(line)
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                          for k, v in res["metrics"].items())
        print(f"{name}: correct {res['correct']}, attempted "
              f"{res['attempted']}, failed {res['failed']}; {shown}")
        status |= not res["correct"]
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchcover" / "__init__.py").is_file():
        print(f"error: no matchcover package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            wl.setup(args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        result = (traced_run if args.trace else untraced_run)(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
