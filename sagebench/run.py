#!/usr/bin/env python3
"""SageBench: the repository benchmark.

Run from the root of a checkout:

    python3 sagebench/run.py --workload traverse --seed 1 --seconds 20 --trace 0

Builds the benchmark binary from the checkout's sources (CMake, into
.bench_build/sagebench), runs one workload in one process, checks that the
metrics it printed are exactly the ones BENCHMARK.json declares, stamps
provenance, and prints the result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from a
traced run. Exit status: 0 when every output check passed, 1 when one failed
(the result line is still printed), 2 or more when the benchmark could not
run at all (no result line). The full record of each run, provenance
included, is kept under .bench_build/sagebench/results/ and the latest span
trace of each workload under .bench_build/sagebench/traces/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "sagebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "sagebench")
BINARY = os.path.join(BUILD_DIR, "sagebench")
WORKLOADS = ("traverse", "serve-hot", "serve-cold")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("sagebench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; quiet on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sagebench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(3, "build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def cmake_cache(name):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=10)
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the measured code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, threads):
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "rev-parse", "HEAD"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"),
                                "--version"]),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "commit": commit,
        "src_sha256": source_digest(),
        "threads": threads,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD_DIR, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(4, "workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(5, "workload exited with status %d" % run.returncode)
    result = json.loads(lines[-1])
    notes = lines[:-1]

    # The printed metric set must be exactly the declared one.
    declared = declared_metrics(args.trace)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(declared) & set(printed)
                       if declared[k] != printed[k])
        fail(6, "metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))

    threads = next((n.split(": ", 1)[1] for n in notes
                    if n.startswith("threads: ")), "unknown")
    prov = provenance(args, threads)
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    for name in os.listdir(workdir):
        if name.startswith("trace-"):
            os.replace(os.path.join(workdir, name),
                       os.path.join(traces, args.workload + ".json"))
    shutil.rmtree(workdir, ignore_errors=True)
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"provenance": prov, "notes": notes, "result": result}, f,
                  indent=1)

    for line in notes:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
