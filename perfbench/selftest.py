#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then runs every workload at the shortest
length (--seconds 0: one untraced iteration, plus one traced one with
--trace 1) and checks that
  - perfbench/metrics.json describes exactly the workloads and metrics that
    BENCHMARK.json names;
  - every end-to-end and per-layer metric prints with its unit, and every
    run's output checks pass;
  - two runs with the same seed give identical simulated metrics and
    sim_digest.
Exits 0 when all of that holds.
"""
import json
import sys

import run

SEED = 7


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def check_manifest():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(run.HERE / "metrics.json") as f:
        meta = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(meta["workloads"]):
        fail("metrics.json workloads differ from BENCHMARK.json")
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(meta["end_to_end"]):
        fail("metrics.json end_to_end differs from BENCHMARK.json")
    layered = [name for layer in meta["layers"] for name in layer["metrics"]]
    if sorted(m["name"] for m in spec["per_layer"]) != sorted(layered):
        fail("metrics.json layers differ from BENCHMARK.json per_layer")
    for layer in meta["layers"]:
        for move in layer["moves"]:
            if move["workload"] not in workloads or move["metric"] not in meta["end_to_end"]:
                fail("layer %s moves an unknown metric or workload" % layer["layer"])
    return workloads


def check_result(workload, trace, raw, result):
    units = run.metric_units(trace)
    for name, unit in units.items():
        m = result["metrics"][name]
        if m["unit"] != unit or not isinstance(m["value"], (int, float)):
            fail("%s: metric %s printed without its value or unit" % (workload, name))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s (trace %d): output checks failed: %s" % (workload, trace, result))


def main():
    workloads = check_manifest()
    binary = run.build()
    for workload in workloads:
        first, r1 = run.run(binary, workload, SEED, 0, False)
        second, r2 = run.run(binary, workload, SEED, 0, False)
        check_result(workload, False, first, r1)
        check_result(workload, False, second, r2)
        sim1 = {k: v for k, v in first["metrics"].items() if k.startswith("sim_")}
        sim2 = {k: v for k, v in second["metrics"].items() if k.startswith("sim_")}
        if not sim1 or sim1 != sim2 or first["sim_digest"] != second["sim_digest"]:
            fail("%s: same seed, different simulated results" % workload)
        traced, rt = run.run(binary, workload, SEED, 0, True)
        check_result(workload, True, traced, rt)
        if traced["sim_digest"] != first["sim_digest"]:
            fail("%s: tracing changed the simulated results" % workload)
        print("selftest: %s ok (sim_digest %s)" % (workload, first["sim_digest"]))
    print("selftest: ok")


if __name__ == "__main__":
    main()
