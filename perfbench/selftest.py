#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in `--short` mode (a handful of ops),
untraced and traced, and asserts that each run exits 0, emits exactly the
end-to-end (trace 0) or per-layer (trace 1) metrics BENCHMARK.json names,
each with its declared unit, and that no op failed. It then checks that the
benchmark refuses to run, with a non-zero exit and no result line, in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv, cwd):
    result = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            argv = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                       "--trace", str(trace), "--short"]
            code, out, err = run(argv, ROOT)
            label = "{} trace {}".format(workload, trace)
            if code != 0:
                problems.append("{}: exit {}: {}".format(label, code, err.strip()[-400:]))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("{}: result keys {}".format(label, sorted(result)))
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append("{}: {} of {} ops failed".format(label, result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append("{}: missing {} extra {} wrong units {}".format(label, missing, extra, units))
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    problems.append("{}: {} is not a number".format(label, name))
            print("ok  " + label, flush=True)

    bare = os.path.join(ROOT, ".perfbench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        code, out, _ = run(bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                               "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or out.strip():
            problems.append("bare directory: exit {} with output {!r}".format(code, out[-200:]))
        else:
            print("ok  refuses to run without the repository", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
