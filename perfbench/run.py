#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload oltp_remote --seed 1 --seconds 10 --trace 0

Run from the repository root. The engine and the benchmark are built from
source into $CARGO_TARGET_DIR (default .bench_build) with CMake, then
mb2bench runs the workload. Build output goes to standard error; standard
output ends with the JSON result line. The exit code is mb2bench's: 0 when
every answer was correct, non-zero otherwise or when the build fails.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oltp_remote", "olap_disk", "selfdriving_shift")
# mb2bench gets this long for set-up, checks and shutdown, plus twice the
# requested run length.
SETUP_ALLOWANCE_S = 90


def tree_sha(root):
    """SHA-256 over the engine and benchmark sources, for comparing results
    from checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configures and builds mb2bench; returns the binary path or None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", str(build_dir), "--target", "mb2bench", "-j", jobs],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    binary = build_dir / "mb2bench"
    return binary if binary.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("run.py: engine sources (src/) not found next to perfbench/", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target / "perfbench")
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--git-sha", git_sha(root),
           "--tree-sha", tree_sha(root)]
    timeout_s = SETUP_ALLOWANCE_S + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("run.py: mb2bench did not finish in %g s" % timeout_s, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
