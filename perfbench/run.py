#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload lcc_install --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the benchmark
(perfbench/CMakeLists.txt, which compiles ../src) under $CARGO_TARGET_DIR,
default .bench_build; later runs rebuild only what changed. Build output goes
to stderr. The last stdout line is one JSON object: correct, attempted,
failed, and every metric BENCHMARK.json names for this mode (end_to_end with
--trace 0, per_layer with --trace 1) as {"value": v, "unit": u}. The line
before it carries the run's sim_digest.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    cmake = ["cmake", "-S", str(HERE), "-B", str(out)]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cmake += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (cmake, ["cmake", "--build", str(out), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench"


def metric_units(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (its raw result, the reported result)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark binary failed with exit code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    raw = json.loads(lines[-1])
    units = metric_units(trace)
    missing = sorted(set(units) - set(raw["metrics"]))
    if missing:
        sys.exit("perfbench: benchmark binary did not report " + ", ".join(missing))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    return raw, result


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    need = ["--workload", "--seed", "--seconds", "--trace"]
    if len(argv) != 2 * len(need) or sorted(args) != sorted(need) or \
            args["--trace"] not in ("0", "1"):
        sys.exit(__doc__)
    binary = build()
    raw, result = run(binary, args["--workload"], int(args["--seed"]),
                      int(args["--seconds"]), args["--trace"] == "1")
    print("sim_digest %s %s" % (args["--workload"], raw["sim_digest"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
