#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload congested_cell --seed 1 \
        --seconds 30 --trace 0

Workloads: congested_cell, quiet_call, wild_sweep (see perfbench/README.md).
The first run configures and builds perfbench/ (the simulator sources in
src/ plus the harness in perfbench/harness/) as a Release build in
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Records, per-seed reference digests and spill
files live in <build dir>/perfbench-work unless --work-dir is given.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", "2"], check=True, stdout=sys.stderr)
    return out / "perfbench"


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def provenance_args() -> list:
    """Commit and dirty flag (when the checkout is a git repository) and a
    hash of every source file the binary is built from (always)."""
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    dirty = "unknown"
    if commit:
        dirty = "1" if git("status", "--porcelain", "--", "src",
                           "perfbench") else "0"
    sha = hashlib.sha256()
    sources = [p for p in sorted((ROOT / "src").rglob("*")) if p.is_file()]
    sources += [p for p in sorted((BENCH / "harness").rglob("*")) if p.is_file()]
    sources.append(BENCH / "CMakeLists.txt")
    for path in sources:
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return ["--commit", commit or "unknown", "--dirty", dirty,
            "--source-sha", sha.hexdigest()[:16]]


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", str(out / "perfbench-work")]
    sys.stdout.flush()
    return subprocess.run([str(binary), *args, *provenance_args()]).returncode


if __name__ == "__main__":
    sys.exit(main())
