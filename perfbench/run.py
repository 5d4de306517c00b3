#!/usr/bin/env python3
"""Wall-clock benchmark for VAQ: build the driver, run one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload standing|ranked \
      --seed N [--seconds S] --trace 0|1
  python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (and the library sources
it pulls in) under .bench_build/; later calls only check the build is up
to date. --seconds defaults to BENCHMARK.json's run_seconds, the run
length its bounds were measured at. The driver's output is passed
through: human-readable lines, then one JSON object as the last line.
--smoke runs every workload at a tiny size, traced and untraced, and
checks the printed metrics against BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("standing", "ranked")
BUILD_TYPE = "RelWithDebInfo"  # The repo's default configuration.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    for needed in ("src/CMakeLists.txt", "tools/pipeline_setup.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no VAQ sources here (missing %s); run from a checkout of "
                 "the repository" % needed, 2)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)  # Configured for another checkout.
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path, 3)


def run_driver(workload, seed, seconds, trace, tiny=False):
    """Runs the driver; returns (exit code, stdout text)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", source_rev()]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-seed%s.jsonl" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 4)
    return proc.returncode, out


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate key in %s" % keys)
        return dict(pairs)

    return json.loads(lines[-1], object_pairs_hook=no_duplicates)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    """Tiny runs of every workload; checks names, units and bypasses."""
    spec = load_spec()
    problems = []
    moved = set()  # Per-layer metrics nonzero on some workload.
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_driver(workload, 7, 0.5, trace, tiny=True)
            label = "%s trace=%d" % (workload, trace)
            found = len(problems)
            try:
                result = last_json(out)
            except ValueError as e:
                problems.append("%s: bad JSON line: %s" % (label, e))
                continue
            if code != 0 or not result or result.get("correct") is not True:
                problems.append("%s: exit %d, result %s"
                                % (label, code, result))
                continue
            wanted = spec["per_layer" if trace else "end_to_end"]
            metrics = result["metrics"]
            if sorted(metrics) != sorted(m["name"] for m in wanted):
                problems.append("%s: metric names differ from BENCHMARK.json"
                                % label)
            for m in wanted:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %r, want %r"
                                    % (label, m["name"], got.get("unit"),
                                       m["unit"]))
                value = got.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(
                        value):
                    problems.append("%s: %s value %r" % (label, m["name"],
                                                         value))
                elif not trace and value <= 0:
                    problems.append("%s: %s is %r, must be > 0"
                                    % (label, m["name"], value))
            if trace:
                moved.update(name for name, got in metrics.items()
                             if got.get("value"))
            # Layers a workload bypasses must read exactly zero.
            bypass = {
                "ranked": ["online.clip_evals_per_op",
                           "scanstat.rejections_per_op"],
                "standing": ["offline.rvaq_iterations_per_op"] +
                            [m["name"] for m in wanted
                             if m["name"].startswith("storage.")],
            }.get(workload, []) if trace else []
            for name in bypass:
                if metrics.get(name, {}).get("value") != 0:
                    problems.append("%s: %s should be 0 (layer bypassed), "
                                    "got %r" % (label, name,
                                                metrics.get(name)))
            print("smoke %-16s %s (%d metrics)"
                  % (label, "ok" if len(problems) == found else "FAIL",
                     len(metrics)))
    # A per-layer metric that is 0 on every workload measures nothing.
    for m in spec["per_layer"]:
        if m["name"] not in moved:
            problems.append("%s is 0 on every workload" % m["name"])
    for p in problems:
        print("smoke FAIL: " + p)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs of every workload, checked against "
                             "BENCHMARK.json")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    build()
    if args.smoke:
        return smoke()
    seconds = args.seconds or load_spec()["run_seconds"]
    code, out = run_driver(args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
