#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep|batch|wire --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake package compiling ../src) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
emogi_perfbench with the same arguments. Build output goes to stderr,
so the benchmark's result stays the last line of stdout. Exits nonzero,
printing no result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys


def source_hash(root):
    """A stamp of the library and benchmark sources (bench::BuildVersion)."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def run_quiet(cmd, cwd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isdir(os.path.join(root, "src")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        return 1
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, target_dir, "perfbench")
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", here, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERFBENCH_BUILD_VERSION=" + source_hash(root)]
    compile_ = ["cmake", "--build", build, "--target", "emogi_perfbench",
                "-j", jobs]
    if not run_quiet(configure, root) or not run_quiet(compile_, root):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build, "emogi_perfbench")
    # Relative to the checkout, which is the benchmark's working
    # directory: the wire workload's Unix socket lives here, and socket
    # paths are limited to about 107 bytes.
    work_dir = os.path.relpath(os.path.join(root, target_dir, "perfbench-run"), root)
    proc = subprocess.run([binary, "--work-dir", work_dir] + sys.argv[1:],
                          cwd=root)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
