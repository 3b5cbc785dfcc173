#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from source with
cargo into $CARGO_TARGET_DIR (default: .bench_build); build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Extra flags (--read-spin-ns) are passed through to the binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest,
    ]
    code = run(build, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    binary = os.path.join(target, "release", "mvtl-perfbench")
    run_dir = os.path.join(target, "perfbench-run")
    sys.stdout.flush()
    return run([binary, "--run-dir", run_dir] + sys.argv[1:], RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
