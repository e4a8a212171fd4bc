#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (about a minute, plus the build).

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py with tiny inputs (--smoke), in
the plain and the traced mode and with a second seed, and checks that:

  * each run exits 0 with correct=true and no failed operation;
  * each run emits exactly the metrics BENCHMARK.json names for its mode,
    each with its unit (end_to_end plain, per_layer traced);
  * every workload's ledger closes: the ledger.* shares sum to one, and on
    codec_bulk so do the lc.ledger.compress.* and lc.ledger.decompress.*
    shares of the public calls; every layer share is finite and within
    [0, 1], and no residual is below -RESIDUAL_SLACK;
  * a second seed generates different inputs (another input digest) but
    the same metric set;
  * the traced run's span file passes scripts/trace_summary.py's schema
    check, when that script is present.

Exits 1 and names every failed check otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGERS = {
    "ledger": ("ledger.lc_frac", "ledger.common_frac", "ledger.server_frac",
               "ledger.charlab_frac", "ledger.gpusim_frac",
               "ledger.residual_frac"),
    "compress": tuple(f"lc.ledger.compress.{p}_frac"
                      for p in ("encode", "checksum", "scan", "residual")),
    "decompress": tuple(f"lc.ledger.decompress.{p}_frac"
                        for p in ("decode", "checksum", "scan", "residual")),
}

# How far below zero a ledger's residual may read: the replayed phases
# are separate passes over the data, timed apart from the call they
# replay, so they may overshoot it by this share of its wall time.
RESIDUAL_SLACK = 0.05

errors: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        errors.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict] | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    tag = f"{workload} seed={seed} trace={trace}"
    check(proc.returncode == 0, f"{tag}: exit status {proc.returncode}")
    if len(lines) < 2:
        check(False, f"{tag}: no result printed")
        return None
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{tag}: correct={result['correct']} failed={result['failed']} "
          f"attempted={result['attempted']}")
    return record, result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    summary = ROOT / "scripts" / "trace_summary.py"
    for w in (x["name"] for x in spec["workloads"]):
        runs = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0), (2, 1)):
            got = run(w, seed, trace)
            if got is None:
                continue
            runs[seed, trace] = got
            metrics = got[1]["metrics"]
            units = {k: v["unit"] for k, v in metrics.items()}
            check(units == want[trace],
                  f"{w} seed={seed} trace={trace}: metrics/units differ from "
                  f"BENCHMARK.json")
            if trace:
                for name, parts in LEDGERS.items():
                    if name != "ledger" and w != "codec_bulk":
                        continue
                    shares = [metrics[p]["value"] for p in parts]
                    total = sum(shares)
                    check(abs(total - 1.0) < 1e-6,
                          f"{w} seed={seed}: {name} shares sum to {total}")
                    # The residual is wall minus the parts, so the sum
                    # alone cannot fail; a part outside [0, 1] or a
                    # residual below -RESIDUAL_SLACK means the layer
                    # figures no longer fit inside the wall time.
                    check(all(math.isfinite(v) and 0.0 <= v <= 1.0
                              for v in shares[:-1]),
                          f"{w} seed={seed}: {name} shares outside [0, 1]: "
                          f"{shares}")
                    check(shares[-1] >= -RESIDUAL_SLACK,
                          f"{w} seed={seed}: {name} residual {shares[-1]} "
                          f"< -{RESIDUAL_SLACK}")
                trace_file = (ROOT / os.environ.get("CARGO_TARGET_DIR",
                                                    ".bench_build") /
                              "perfbench" / "work" / f"trace-{w}-{seed}.json")
                if summary.is_file() and trace_file.is_file():
                    ok = subprocess.run(
                        [sys.executable, str(summary), str(trace_file)],
                        stdout=subprocess.DEVNULL).returncode == 0
                    check(ok, f"{w} seed={seed}: trace fails the schema check")
        for trace in (0, 1):
            a, b = runs.get((1, trace)), runs.get((2, trace))
            if a is None or b is None:
                continue
            check(a[0]["input_digest"] != b[0]["input_digest"],
                  f"{w} trace={trace}: seeds 1 and 2 gave identical inputs")
            check(set(a[1]["metrics"]) == set(b[1]["metrics"]),
                  f"{w} trace={trace}: metric set depends on the seed")
        print(f"{w}: done", flush=True)
    if errors:
        print(f"selftest: {len(errors)} check(s) failed", file=sys.stderr)
        sys.exit(1)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
