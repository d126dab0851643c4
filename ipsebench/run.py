#!/usr/bin/env python3
"""Builds ipse and the benchmark harness from source, then runs one workload.

    python3 ipsebench/run.py --workload compile|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is built from the root
CMakeLists.txt (Release, assertions on, as shipped) into
$CARGO_TARGET_DIR or .bench_build; the harness package in this directory is
built against that tree.  Everything the run writes stays under the build
directory.  The last line of stdout is the result object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "fleet")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only on failure."""
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=timeout)
    if p.returncode != 0:
        log(p.stdout.decode(errors="replace")[-4000:])
        raise SystemExit("build step failed: " + " ".join(cmd))


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("no ipse sources next to the benchmark; run from "
                         "the repository root")
    ipse = os.path.join(build_root, "ipse")
    harness = os.path.join(build_root, "harness")
    jobs = str(min(4, os.cpu_count() or 1))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(ipse, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", ipse, "-DCMAKE_BUILD_TYPE=Release"]
                  + gen, 600)
    run_quiet(["cmake", "--build", ipse, "--target", "ipse-cli", "-j", jobs], 900)
    if not os.path.isfile(os.path.join(harness, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", harness,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DIPSE_SOURCE_DIR=" + ROOT, "-DIPSE_BUILD_DIR=" + ipse]
                  + gen, 600)
    run_quiet(["cmake", "--build", harness, "-j", jobs], 900)
    return (os.path.join(ipse, "tools", "ipse-cli"),
            os.path.join(harness, "ipsebench"), ipse,
            os.path.join(harness, "libipsebench_nosync.so"))


def host_stamp(cli, ipse_build):
    """nproc, dispatched SIMD ISA, compiler, build type, IPSE_OBSERVE."""
    cache = {}
    with open(os.path.join(ipse_build, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    version = subprocess.run([cli, "version"], stdout=subprocess.PIPE,
                             timeout=30).stdout.decode()
    isa = re.search(r"simd kernels: (\S+)", version)
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                               "--version"], stdout=subprocess.PIPE,
                              timeout=30).stdout.decode().splitlines()
    asserts = cache.get("IPSE_DISABLE_ASSERTS", "OFF") in ("OFF", "")
    return {
        "nproc": os.cpu_count(),
        "simd_isa": isa.group(1) if isa else "unknown",
        "compiler": compiler[0] if compiler else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "") +
        (" (assertions on)" if asserts else " (assertions off)"),
        "ipse_observe": cache.get("IPSE_OBSERVE", "ON"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    cli, harness, ipse_build, nosync = build(build_root)
    stamp = host_stamp(cli, ipse_build)
    print("host: " + json.dumps(stamp), flush=True)

    work = os.path.join(build_root, "runs",
                        "%s-%d-%d-%d" % (a.workload, a.seed, a.trace,
                                         os.getpid()))
    cmd = [harness, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--cli", cli, "--work-dir", work, "--nosync", nosync]
    # The harness and the servers it starts share one process group, so a
    # run that overstays its time is stopped whole.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         start_new_session=True)
    spans = work + "-spans.jsonl"
    try:
        out, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise SystemExit("harness exceeded its time")
    finally:
        if os.path.exists(os.path.join(work, "spans.jsonl")):
            shutil.move(os.path.join(work, "spans.jsonl"), spans)
        shutil.rmtree(work, ignore_errors=True)
    lines = out.decode(errors="replace").rstrip("\n").splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        raise SystemExit("harness failed with code %d" % p.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    # Keep a record of the run, host stamp included, beside the build.
    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (a.workload, a.seed,
                                                        a.trace))
    if os.path.exists(spans):
        shutil.move(spans, stem + "-spans.jsonl")
    with open(stem + ".json", "w") as f:
        json.dump({"host": stamp, "result": result,
                   "log": lines[:-1]}, f, indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
