#!/usr/bin/env python3
"""Builds rlckit from source and runs one benchmark workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere: the script works from the repository root. It builds the
release `rlckit-server` and the benchmark binary into `$CARGO_TARGET_DIR`
(default `.bench_build`), prints a host fingerprint, and runs
`perfbench` (`--trace 0`, end-to-end metrics) or `perfbench-trace`
(`--trace 1`, per-layer metrics). The last line of standard output is the
result JSON; the exit code is the benchmark's (nonzero when an output check
failed), or nonzero without a result when the build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run must end well inside three minutes even when the binary hangs.
RUN_TIMEOUT_S = 170


def trace_flag(args):
    """The value after --trace, or "0"."""
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            return value
    return "0"


def build(binary, target_dir):
    """Builds the daemon and `binary`; returns False when cargo fails."""
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        common + ["--manifest-path", "Cargo.toml", "-p", "rlckit-server", "--bin", "rlckit-server"],
        common + ["--manifest-path", "benchmark/Cargo.toml", "--bin", binary],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print(f"run.py: build failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def git_rev():
    """The checked-out commit read from .git, or "none" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """SHA-256 over the workspace sources, naming the code where git cannot."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    for path in files:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cpus = len(os.sched_getaffinity(0))
    return f"host: cpus={cpus} rustc={rustc or 'unknown'} rev={git_rev()} src={source_digest()}"


def main():
    args = sys.argv[1:]
    os.chdir(ROOT)
    if not (ROOT / "Cargo.toml").exists():
        print("run.py: no rlckit sources next to the benchmark", file=sys.stderr)
        return 2
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = "perfbench-trace" if trace_flag(args) == "1" else "perfbench"
    if not build(binary, target_dir):
        return 2
    print(fingerprint(), flush=True)
    command = [str(target_dir / "release" / binary), *args]
    command += ["--server", str(target_dir / "release" / "rlckit-server")]
    # A session of its own, so a timeout also stops the daemon the benchmark
    # started.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {binary} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
