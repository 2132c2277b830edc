#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of the repository:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload.  Builds perfbench/perfbench.exe from source
      (dune), runs the workload in its own process and passes its output
      through; the last line is the JSON result.

  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced then traced: the correctness gates, every
      end-to-end metric with its unit and sample count, the per-layer table
      and the tracing overhead (traced minus untraced end-to-end figures).

  python3 perfbench/run.py --self-test
      The statistics conventions, the JSON result shape, and the agreement
      of BENCHMARK.json, perfbench/manifest.json and the program.

Uses only the Python standard library and the OCaml toolchain.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark executable from the sources in this checkout."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("perfbench: run from the repository root (dune-project and lib/ not found)")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    if proc.returncode != 0:
        log(proc.stdout)
        log("perfbench: build failed")
        return False
    return True


def run_exe(args, echo=True):
    """Run the executable; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(
        [EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, []
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
        sys.stdout.flush()
    return proc.returncode, lines


def check_result(line):
    """Parse and validate one result line; returns the dict or raises."""
    r = json.loads(line)
    if list(r.keys()) != RESULT_KEYS:
        raise ValueError("result keys %s" % list(r.keys()))
    if not isinstance(r["correct"], bool):
        raise ValueError("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(r[k], int) or isinstance(r[k], bool) or r[k] < 0:
            raise ValueError("%s is not a whole number" % k)
    for name, m in r["metrics"].items():
        if sorted(m.keys()) != ["unit", "value"]:
            raise ValueError("metric %s keys %s" % (name, sorted(m.keys())))
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("metric %s value is not a number" % name)
    return r


def benchmark_json():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def one_run(a):
    if not build():
        return 3
    code, lines = run_exe(
        [a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    )
    if not lines:
        return code or 1
    try:
        check_result(lines[-1])
    except (ValueError, json.JSONDecodeError) as e:
        log("perfbench: malformed result line (%s)" % e)
        return code or 1
    print(lines[-1], flush=True)
    return code


def tagged(lines, tag):
    return [l[len(tag) + 1:] for l in lines if l.startswith(tag + " ")]


def run_all(a):
    if not build():
        return 3
    bench = benchmark_json()
    ok = True
    overhead = []
    for w in [w["name"] for w in bench["workloads"]]:
        args = [w, "--seed", str(a.seed), "--seconds", str(a.seconds)]
        print("\n=== %s (untraced) ===" % w, flush=True)
        code0, plain = run_exe(args + ["--trace", "0"], echo=False)
        for line in plain[:-1]:
            if line.startswith(("gate ", "note ", "e2e ", "attempted ")):
                print(line)
        print("=== %s (traced) ===" % w, flush=True)
        code1, traced = run_exe(args + ["--trace", "1"], echo=False)
        for line in traced[:-1]:
            if not line.startswith(("e2e", "workload", "note", "attempted")):
                print(line)
        if code0 != 0 or code1 != 0 or not plain or not traced:
            print("FAILED: %s did not pass its gate" % w)
            ok = False
            continue
        untraced_m = check_result(plain[-1])["metrics"]
        traced_m = check_result(tagged(traced, "e2e-traced")[0])["metrics"]
        for name, m in untraced_m.items():
            t = traced_m[name]["value"]
            overhead.append((w, name, m["value"], t, m["unit"]))
    print("\n=== tracing overhead (traced - untraced, end-to-end) ===")
    print("%-12s %-13s %14s %14s %12s %8s" % ("workload", "metric", "untraced", "traced", "delta", "unit"))
    for w, name, u, t, unit in overhead:
        print("%-12s %-13s %14.6f %14.6f %+12.6f %8s" % (w, name, u, t, t - u, unit))
    return 0 if ok else 1


def self_test():
    """Checks that need no workload run."""
    failures = []

    def expect(cond, what):
        print("%s %s" % ("PASS" if cond else "FAIL", what))
        if not cond:
            failures.append(what)

    if not build():
        return 3
    code, lines = run_exe(["selftest"])
    expect(code == 0, "OCaml statistics and output self-tests")
    try:
        r = check_result(lines[-1])
        expect(r["correct"] is True and r["attempted"] == 3 and r["failed"] == 0,
               "sample result line has exactly correct/attempted/failed/metrics")
    except (ValueError, json.JSONDecodeError, IndexError) as e:
        expect(False, "sample result line parses (%s)" % e)
    for bad in ['{"correct": true, "attempted": 1, "failed": 0}',
                '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
                '{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}',
                '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}']:
        try:
            check_result(bad)
            expect(False, "malformed result rejected: %s" % bad)
        except ValueError:
            expect(True, "malformed result rejected: %s" % bad)

    bench = benchmark_json()
    expect(list(bench.keys()) == ["command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"], "BENCHMARK.json top-level keys")
    _, mlines = run_exe(["metrics"], echo=False)
    program = {"end_to_end": [], "per_layer": []}
    for line in mlines:
        kind, name, unit = line.split()
        program[kind].append((name, unit))
    for kind in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"]) for m in bench[kind]]
        expect(listed == program[kind], "%s metrics of BENCHMARK.json match the program" % kind)
    expect(all(m["bound"] <= 0.25 for m in bench["end_to_end"]), "every bound at most 0.25")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s has the largest bound")

    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    described = manifest["workloads"]
    expect(set(workloads) <= set(described), "manifest describes every workload")
    for w, d in described.items():
        listed = w in workloads
        expect(all(k in d for k in ("seed", "load_model", "listed")),
               "manifest gives %s a seed, a load model and its listing" % w)
        expect(d["listed"] == listed, "manifest agrees with BENCHMARK.json on whether %s is listed" % w)
        # a listed workload's why lives in BENCHMARK.json only
        expect(("why" in d) != listed and (listed or "why_unlisted" in d),
               "manifest gives %s a why only if it is unlisted, and then why" % w)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = manifest["per_layer"]
    expect(sorted(layers) == sorted(m["name"] for m in bench["per_layer"]),
           "manifest maps exactly the per-layer metrics of BENCHMARK.json")
    for m in bench["per_layer"]:
        d = layers.get(m["name"]) or {}
        how = "self_ms" in manifest if m["name"].startswith("self_ms.") else bool(d.get("how"))
        expect(bool(d.get("layer")) and how,
               "per-layer %s has a layer and a description" % m["name"])
        expect(bool(d.get("moves")) and all(x["metric"] in e2e and x["workload"] in workloads
                                            for x in d["moves"]),
               "per-layer %s moves an end-to-end metric on a listed workload" % m["name"])
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description="Run the repository benchmark.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if a.seconds is None:
        a.seconds = benchmark_json()["run_seconds"] if os.path.isfile("BENCHMARK.json") else 10
    if a.all:
        return run_all(a)
    if not a.workload:
        p.error("--workload, --all or --self-test is required")
    return one_run(a)


if __name__ == "__main__":
    sys.exit(main())
