#!/usr/bin/env python3
"""Build bench_suite (Release) from this checkout and run one workload.

Usage, from the repository root:

    python3 benchsuite/run.py --workload <name> [--seed N] [--seconds S]
                              [--trace 0|1]
    python3 benchsuite/run.py --smoke

The first run configures and builds into $CARGO_TARGET_DIR (default
.bench_build); later runs only let the build tool confirm it is up to date.
Build output goes to stderr, so the last stdout line is the binary's JSON
result. Results files and traces land in <build dir>/results unless --out
is given. Exits non-zero, without a result, if the build fails.

An untraced run first starts SETUP_PROCESSES processes that only set the
workload up, each timed from its start, and passes their set-up times to
the measured run, whose setup_s is the median of those and its own.
"""

import os
import shutil
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 140
SETUP_PROCESSES = 4
SETUP_TIMEOUT_S = 8


def main():
    suite_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(suite_dir)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "cmake")
    try:
        if not any(os.path.exists(os.path.join(build_dir, f))
                   for f in ("build.ninja", "Makefile")):
            configure = ["cmake", "-S", suite_dir, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target", "bench_suite",
                        "-j", jobs], stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.relpath(os.path.join(build_root, "results"), root)]
    # Run provenance records the commit. Ask git once, here, rather than in
    # every timed set-up, and stop it from searching above the checkout, so
    # a checkout that is not a repository records "unknown".
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    if "WT_BENCH_COMMIT" not in env:
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                    cwd=root, env=env, capture_output=True,
                                    text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = ""
        env["WT_BENCH_COMMIT"] = commit or "unknown"
    binary = os.path.join(build_dir, "bench_suite")

    def started(extra, timeout, **kwargs):
        start_ns = time.monotonic_ns()  # the clock bench_suite reads
        return subprocess.run([binary] + args + extra + ["--start-ns", str(start_ns)],
                              cwd=root, env=env, timeout=timeout, **kwargs)

    try:
        trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
        if "--smoke" not in args and trace != "1":
            setups = []
            for _ in range(SETUP_PROCESSES):
                p = started(["--setup-only"], SETUP_TIMEOUT_S,
                            stdout=subprocess.PIPE, text=True)
                lines = p.stdout.split()
                if p.returncode != 0 or lines[-2:-1] != ["setup_s"]:
                    print("run.py: set-up failed", file=sys.stderr)
                    return 1
                setups.append(lines[-1])
            args += ["--setup-samples", ",".join(setups)]
        return started([], RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        print(f"run.py: bench_suite exceeded {e.timeout} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
