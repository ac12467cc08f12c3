#!/usr/bin/env python3
"""Build and run one IRIS benchmark workload; print one JSON result line.

    python3 perfbench/run.py --workload table1_hot --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the iris library plus the iris_perfbench program) into
.bench_build/; later runs only check that the build is current.

Output: iris_perfbench's report, a host/build fingerprint line, then as the
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end set of
BENCHMARK.json, with --trace 1 the per_layer set. A correctness failure
(a pinned digest or a cross-path identity that does not hold) exits 1
and reports no metric.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_hot", "record_replay", "campaign_sandbox")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative paths
    # are taken from the repository root), so all build output stays there.
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path)


def build(out_dir):
    """Configure (once) and build iris_perfbench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("iris sources (CMakeLists.txt, src/) not found in " + ROOT)
    obj = os.path.join(out_dir, "perfbench")
    os.makedirs(obj, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", obj, "--target", "iris_perfbench", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(obj, "iris_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library sources and build files, path-sorted."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, base)):
            paths.extend(os.path.join(dirpath, f) for f in files if not f.endswith(".pyc"))
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "none"


def check_pins(seed, digests):
    """Mismatches against pinned.json; empty when the seed is not pinned."""
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    if seed != pinned["seed"]:
        return []
    return [
        "%s: digest %s, pinned %s" % (name, digests[name], want)
        for name, want in sorted(pinned["digests"].items())
        if name in digests and digests[name] != want
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    tmp = os.path.join(out_dir, "tmp", "run-%d" % os.getpid())
    result_path = os.path.join(tmp, "result.json")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", tmp,
        "--out", result_path,
    ]
    started = time.monotonic()
    # Own process group, so a timeout also stops the sandboxed cell children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        sys.stdout.write(out)
        if not os.path.isfile(result_path):
            fail("iris_perfbench exited %d without a result" % proc.returncode, 1)
        with open(result_path) as f:
            result = json.load(f)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("iris_perfbench exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = result["check_failures"] + check_pins(args.seed, result["digests"])
    host = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": result["build_type"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": round(time.monotonic() - started, 3),
    }
    print("host: " + json.dumps(host))
    print("digests: " + json.dumps(result["digests"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(
        "failed_share: %.6g (%d failed of %d %s)"
        % (failed / max(attempted, 1), failed, attempted, result["failed_base"])
    )

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        failures.append("iris_perfbench did not report " + ", ".join(missing))
    if failures:
        for failure in failures:
            log("CORRECTNESS: " + failure)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        sys.exit(1)
    metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
