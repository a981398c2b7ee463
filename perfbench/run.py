#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload, or "all" to run the two workloads of BENCHMARK.json
in turn and print every metric of each (the last line then holds all of
them, keyed "<workload>.<metric>"). serve_sharded runs only when named: it
measures shard routing and stealing but is too noisy on a shared host to
be gated (see perfbench/README.md).

Run from the root of a checkout. The first run configures and builds
perfbench/ (the batchlin library from the checkout's src/ plus the
batchbench binary) into .bench_build/cmake; later runs only rebuild what
changed. The last line of output is the JSON result; the full
record, with the host fingerprint, goes to .bench_build/results/.

Environment hygiene: every BATCHLIN_* variable changes the program under
test (launch mode, shard layout, storage precision, stage probe), so this
script removes them before starting batchbench and records what it removed.
OMP_NUM_THREADS is set per workload (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
# The workloads BENCHMARK.json gates, and the ones that run only on request.
WORKLOADS = ("pele_batch", "serve_coalesce")
EXTRA_WORKLOADS = ("serve_sharded",)
# Time limit of one run: the benchmark must finish well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the benchmark builds (identifies the code
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip() + "+src-" + source_digest()
    return "src-" + source_digest()


def build(jobs):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "batchbench",
                    "-j", str(jobs)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no batchlin sources next to perfbench/ (expected src/); "
             "run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")

    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("BATCHLIN_"))
    record = ",".join("%s=%s" % (k, env.pop(k)) for k in cleared)
    nproc = os.cpu_count() or 1

    try:
        build(min(nproc, 4))
    except (subprocess.CalledProcessError, OSError) as exc:
        fail("build failed: %s" % exc)
    os.makedirs(RESULTS, exist_ok=True)
    commit = commit_id()

    def run(workload, capture):
        # Serve workers run one-thread OpenMP teams; pele_batch uses every
        # processor (batchbench sets its team itself).
        env["OMP_NUM_THREADS"] = str(nproc if workload == "pele_batch"
                                     else 1)
        cmd = [os.path.join(BUILD, "batchbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS, "--commit", commit]
        if record:
            cmd += ["--env-cleared", record]
        sys.stdout.flush()
        try:
            return subprocess.run(cmd, env=env, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S, text=True,
                                  stdout=subprocess.PIPE if capture else None)
        except subprocess.TimeoutExpired:
            fail("%s exceeded %d s" % (workload, RUN_TIMEOUT_S), 3)

    if args.workload != "all":
        return run(args.workload, False).returncode

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = run(workload, True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        if proc.returncode != 0:
            status = proc.returncode
            combined["correct"] = False
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            status = status or 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][workload + "." + name] = m
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
