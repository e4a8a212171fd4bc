#!/usr/bin/env python3
"""Run one perfbench workload and print its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload codec_bulk --seed 1 --seconds 20 --trace 0

Builds the perfbench binary from the repository's sources (CMake, Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload and prints two JSON lines on stdout:

  1. the full record: host and build (nproc, CPU, loadavg, compiler, SIMD
     level), settings (seed, threads, connections), input digest,
     correctness findings and every metric;
  2. the result line: {"correct", "attempted", "failed", "metrics"} with
     exactly the end_to_end metrics of BENCHMARK.json (--trace 0) or its
     per_layer metrics (--trace 1), each with its unit.

The record is also saved under <build>/results/. Exit status: 0 when every
output checked correct; 1 on a correctness mismatch (the result line is
still printed); 2 when the benchmark cannot build or run, or emits a
metric set other than BENCHMARK.json names (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("codec_bulk", "serve_small", "characterize")
CONNECTIONS = {"serve_small": 2}  # load-generator connections per workload


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(bdir: Path) -> Path:
    """Configure (once) and build the perfbench target; return the binary."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "perfbench"


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
        raise  # unreachable


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """Reduce the record to the metrics BENCHMARK.json names for the mode;
    any missing, extra, mislabelled or non-finite metric is an error."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = record["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(got) - names)
    missing = sorted(names - set(got))
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    metrics = {}
    for m in wanted:
        v = got[m["name"]]
        if v["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {v['unit']!r}, BENCHMARK.json says "
                 f"{m['unit']!r}")
        value = v["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{m['name']}: value {value!r} is not a finite number")
        if not trace and value == 0:
            fail(f"{m['name']}: end-to-end metric is 0")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds positive")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    spec = load_spec()
    bdir = build_dir()
    binary = build(bdir)

    # The binary runs inside its work directory and names it ".", so the
    # serve_small socket path stays short however deep the checkout is
    # (unix socket paths are limited to 107 bytes).
    work = bdir / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", "."]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {args.seconds + 150:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    record["connections"] = CONNECTIONS.get(args.workload, 0)
    record["wall_s"] = time.monotonic() - started
    out = result_line(record, spec, bool(args.trace))
    if not out["correct"]:
        print(f"perfbench: {args.workload}: correctness mismatch: "
              f"{record['mismatches']}", file=sys.stderr)

    results = bdir / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
