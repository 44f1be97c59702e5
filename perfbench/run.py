#!/usr/bin/env python3
"""End-to-end benchmark of `motto run` and `motto serve`.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload stock-batch --seed 1 --seconds 10 --trace 0

builds perfbench/ (which compiles ../src) into .bench_build/, generates the
workload's inputs from the seed, measures, checks the outputs, and prints
one JSON line last: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, and a waterfall table precedes them.
Every result is also appended, with a host and build stamp, to
.bench_build/results.jsonl.

    python3 perfbench/run.py --all --seeds 1,2,3
        runs every workload on each seed and prints a summary table
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
        compares two result files; refused across host shapes or build types
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "motto_perfbench")
RESULTS = os.path.join(BUILD, "results.jsonl")
PLANS = os.path.join(BUILD, "plans.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_workloads():
    with open(os.path.join(BENCH, "workloads.json")) as f:
        return json.load(f)["workloads"]


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once and builds incrementally; serialized by a lock."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"motto sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j",
                      str(min(4, nproc())), "--target", "motto_perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed; see {log_path}")


def cmake_cache(key):
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler():
    files = os.path.join(CMAKE_DIR, "CMakeFiles")
    for entry in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            fields = {}
            with open(path) as f:
                for line in f:
                    for key in ("CMAKE_CXX_COMPILER_ID",
                                "CMAKE_CXX_COMPILER_VERSION"):
                        if line.startswith(f"set({key} "):
                            fields[key] = line.split('"')[1]
            return "{} {}".format(fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                                  fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return cmake_cache("CMAKE_CXX_COMPILER")


def source_digest():
    """sha256 over src/ and perfbench/: the commit when git is absent."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def fs_type(path):
    out = subprocess.run(["stat", "-f", "-c", "%T", path],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(work_dir):
    return {
        "nproc": nproc(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "commit": commit(),
        "source_digest": source_digest(),
        "checkpoint_fs": fs_type(work_dir),
    }


def flags(params):
    return [f"--{key}={value}" for key, value in sorted(params.items())]


def prepare_inputs(name, spec, seed):
    """Generates the inputs once per (workload, generator, seed)."""
    work_dir = os.path.join(BUILD, "inputs", f"{name}-seed{seed}")
    marker = os.path.join(work_dir, "generator.json")
    wanted = json.dumps({"generator": spec["generator"], "seed": seed},
                        sort_keys=True)
    try:
        with open(marker) as f:
            if f.read() == wanted:
                return work_dir
    except OSError:
        pass
    os.makedirs(work_dir, exist_ok=True)
    out = subprocess.run([BINARY, "gen", f"--dir={work_dir}", f"--seed={seed}"]
                         + flags(spec["generator"]),
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        fail(f"input generation failed: {out.stderr.strip()}")
    with open(marker, "w") as f:
        f.write(wanted)
    return work_dir


def check_plan(name, seed, spec, plan):
    """Plan-drift guard across runs: the first plan seen for a (workload,
    generator, seed) is its usual plan; any other plan is reported."""
    key = "{}|{}|seed={}".format(
        name, json.dumps(spec["generator"], sort_keys=True), seed)
    plans = {}
    try:
        with open(PLANS) as f:
            plans = json.load(f)
    except (OSError, ValueError):
        pass
    usual = plans.setdefault(key, plan)
    with open(PLANS, "w") as f:
        json.dump(plans, f, indent=1, sort_keys=True)
    if usual != plan:
        print(f"plan drift: {name} seed {seed} chose '{plan}', "
              f"usual plan is '{usual}'")
        return True
    return False


def run_one(name, seed, seconds, trace):
    workloads = load_workloads()
    if name not in workloads:
        fail(f"unknown workload '{name}' (have {', '.join(workloads)})")
    spec = workloads[name]
    build()
    work_dir = prepare_inputs(name, spec, seed)
    command = [BINARY, "run", f"--workload={name}", f"--dir={work_dir}",
               f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}"]
    command += flags(spec["generator"]) + flags(spec["run"])
    started = time.time()
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"harness exited {out.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "wall_s": round(time.time() - started, 3),
        "stamp": stamp(work_dir),
        "plan_drift": check_plan(name, seed, spec, result["plans"][0]),
        **result,
    }
    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    metrics = result["per_layer" if trace else "end_to_end"]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}, sort_keys=True))
    sys.stdout.flush()
    return 0 if result["correct"] and out.returncode == 0 else 1


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(records, label=""):
    """Median and quartile spread (IQR / median) per workload and metric."""
    groups = {}
    for r in records:
        key = (r["workload"], r["trace"])
        for metric, m in r["per_layer" if r["trace"] else "end_to_end"].items():
            groups.setdefault(key, {}).setdefault(metric, []).append(
                (m["value"], m["unit"]))
    table = {}
    for (workload, trace), metrics in sorted(groups.items()):
        for metric, values in sorted(metrics.items()):
            xs = [v for v, _ in values]
            median = statistics.median(xs)
            spread = 0.0
            if len(xs) >= 2 and median:
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / abs(median)
            table[(workload, trace, metric)] = (median, spread, len(xs),
                                                values[0][1])
    return table


def compare(base_path, new_path):
    base, new = read_records(base_path), read_records(new_path)
    shapes = {(r["stamp"]["nproc"], r["stamp"]["build_type"])
              for r in base + new}
    if len(shapes) != 1:
        fail("refusing to compare results from different host shapes or "
             f"build types: {sorted(shapes)}")
    a, b = summarize(base), summarize(new)
    print(f"{'workload':12} {'metric':30} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'spread':>7}")
    for key in sorted(set(a) | set(b)):
        workload, _, metric = key
        if key not in a or key not in b:
            print(f"{workload:12} {metric:30} "
                  f"{'(new)' if key not in a else '(removed)'}")
            continue
        ratio = b[key][0] / a[key][0] if a[key][0] else float("nan")
        print(f"{workload:12} {metric:30} {a[key][0]:12.6g} {b[key][0]:12.6g} "
              f"{ratio:9.3f} {a[key][1]:7.3f}")
    return 0


def run_all(seeds, seconds):
    start = len(read_records(RESULTS)) if os.path.exists(RESULTS) else 0
    status = 0
    for seed in seeds:
        for name in load_workloads():
            status |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace",
                 "0"]).returncode
    records = read_records(RESULTS)[start:]
    print(f"\n{'workload':12} {'metric':16} {'median':>12} {'unit':9} "
          f"{'IQR/med':>8} {'runs':>4}")
    for (workload, _, metric), (median, spread, n, unit) in \
            summarize(records).items():
        print(f"{workload:12} {metric:16} {median:12.6g} {unit:9} "
              f"{spread:8.4f} {n:4d}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all([int(s) for s in args.seeds.split(",")], args.seconds)
    if not args.workload:
        parser.error("--workload, --all or --compare is required")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
