"""Toy-size self-test of the benchmark; never gates on wall time.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at toy size, twice untraced and
twice traced with one seed, and checks that each run prints every
declared metric with its unit, that the work fingerprints and the traced
counts repeat, and that the benchmark refuses to run without the
package sources.  Exits 1 on the first list of failures it prints.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 3


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170,
                          check=False)


def parse(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result, declared, label, problems):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result['attempted']}")
    if not result["correct"]:
        problems.append(f"{label}: correct is false")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                        f"or units differ from BENCHMARK.json")


def counts(result):
    """Per-layer counts that must repeat; real-thread counts may not."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"
            and (k == "engine.threads.runs"
                 or not k.startswith("engine.threads."))}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        outputs = {}
        for trace in (0, 1):
            for rep in (0, 1):
                label = f"{name} trace={trace} run {rep}"
                done = run(["--workload", name, "--seed", str(SEED),
                            "--seconds", "0.5", "--trace", str(trace),
                            "--size", "toy"])
                if done.returncode != 0:
                    problems.append(f"{label}: exit {done.returncode}: "
                                    f"{done.stderr.strip()[-300:]}")
                    continue
                detail, result = parse(done)
                declared = bench["per_layer" if trace else "end_to_end"]
                check_result(result, declared, label, problems)
                if not detail["fingerprints_repeat"]:
                    problems.append(f"{label}: fingerprint changed between "
                                    "rounds")
                outputs.setdefault(trace, []).append((detail, result))
        plain, traced = outputs.get(0, []), outputs.get(1, [])
        if len(plain) == 2 and \
                plain[0][0]["fingerprint"] != plain[1][0]["fingerprint"]:
            problems.append(f"{name}: untraced fingerprints differ")
        if len(traced) == 2:
            if traced[0][0]["fingerprint_traced"] \
                    != traced[1][0]["fingerprint_traced"]:
                problems.append(f"{name}: traced fingerprints differ")
            if counts(traced[0][1]) != counts(traced[1][1]):
                problems.append(f"{name}: traced counts differ")
        print(f"{name}: checked", flush=True)

    # a directory with only the benchmark's own files must be refused
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("run without sources did not fail cleanly")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
