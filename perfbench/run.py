#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload alpaca-steady --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds ``perfbench/`` (which compiles the
simulator from ``src/``) into ``$CARGO_TARGET_DIR/perfbench`` (default
``.bench_build/perfbench``); later calls only re-run the incremental
build. The benchmark's last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the ``end_to_end`` metrics of BENCHMARK.json, ``--trace 1`` the
``per_layer`` ones, and writes the per-request CSV, the layer-span
Chrome trace and the per-layer JSON under ``perfbench/out/``.

This wrapper checks that the reported metric names and units are
exactly the ones BENCHMARK.json declares. It exits nonzero, without a
result line on stdout, when the sources are missing, the build fails or
an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build incrementally. Build logs go to
    stderr so stdout carries only the benchmark's output."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    res = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec["workloads"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "cluster")):
        fail(f"no simulator sources under {ROOT}/src")
    declared, workloads = declared_metrics(args.trace)
    if args.workload not in {w["name"] for w in workloads}:
        fail(f"unknown workload '{args.workload}'")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    binary = build(build_dir)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if proc.returncode != 0:
        sys.stdout.flush()
        fail(f"perfbench exited with {proc.returncode}: {lines[-1]}")

    result = json.loads(lines[-1])
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        fail(f"reported metrics {sorted(reported.items())} differ from "
             f"BENCHMARK.json {sorted(declared.items())}")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
