#!/usr/bin/env python3
"""psldbench entry point: build the checkout, then run one workload.

    python3 psldbench/run.py --workload hot_small --seed 1 --seconds 10 --trace 0
    python3 psldbench/run.py --selftest

Builds psld, psltool and the benchmark from this checkout's sources into
.bench_build/psldbench (incremental after the first run), then runs the
psldbench binary. Its stdout is relayed; the last line is the JSON result.
Exits non-zero, without a result line, when the sources are missing, the
build fails, or the run fails or checks a wrong answer.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "psldbench")
WORKLOADS = ("hot_small", "bulk_unique", "churn_mixed", "time_travel")
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print("psldbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    for needed in ("CMakeLists.txt", "src", os.path.join("examples", "psld.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("no psl-harms source tree around %s (missing %s)" % (HERE, needed), 2)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target"] + targets)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (full log: %s)" % log_path)


def run(argv, cwd):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the harness's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["psldbench_selftest"])
        sys.exit(subprocess.call([os.path.join(BUILD, "psldbench_selftest")], cwd=BUILD))
    if args.workload is None:
        parser.error("--workload is required")

    build(["psld", "psltool", "psldbench"])
    code, out = run([os.path.join(BUILD, "psldbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--bin-dir", os.path.join(BUILD, "psl", "examples"),
                     "--work-dir", os.path.join(ROOT, ".bench_build", "work", args.workload)],
                    cwd=ROOT)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        die("%s run failed (exit %d)" % (args.workload, code))
    result = json.loads(lines[-1])  # the binary's last line must be the result
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        sys.stdout.write(out)
        die("malformed or incorrect result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
