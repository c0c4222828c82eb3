#!/usr/bin/env python3
"""Builds and runs the repository benchmark; the one command to use.

    python3 perfbench/run.py --workload dumbbell|multipath|campaign \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `perfbench` package
offline (into $CARGO_TARGET_DIR, default `.bench_build`), points the
harness's report and trace directories at a fresh scratch directory,
runs the workload, fails the run if anything under `results/` changed,
and prints one line per metric, a provenance line and, last, the result
as one JSON object. The arguments go to the benchmark binary unchanged;
it checks them. See perfbench/README.md.
"""

import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The binary's own deadline; the whole command must end within 180 s.
RUN_TIMEOUT_S = 170


def tree_digest(root, skip=()):
    """sha256 of every file under `root` (path and contents), or None if
    `root` does not exist."""
    if not os.path.isdir(root):
        return None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def command_output(args):
    """First line of a command's output, or None if it cannot run."""
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build_provenance():
    """Facts about the source and toolchain the binary was built from."""
    rev = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = None
    if rev is not None:
        dirty = bool(command_output(["git", "status", "--porcelain", "--untracked-files=no"]))
    source = hashlib.sha256()
    for part in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, part)
        digest = tree_digest(path, skip=("target",)) if os.path.isdir(path) else None
        if digest is None and os.path.isfile(path):
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        source.update(f"{part}={digest}\n".encode())
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest()[:16],
        "rustc": command_output(["rustc", "-V"]),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    # Cargo's own messages go to stderr; stdout carries only results.
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True,
    )
    return os.path.join(target, "release", "perfbench")


def main():
    for needed in ("crates", "results", "Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"error: {needed} is missing: run from a full checkout of the repository")
    binary = build()

    results = os.path.join(ROOT, "results")
    before = tree_digest(results)
    scratch = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = dict(
        os.environ,
        PROTEUS_RESULTS_DIR=os.path.join(scratch, "results"),
        PROTEUS_TRACE_DIR=os.path.join(scratch, "trace"),
    )
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the binary and waited for it.
        print(f"FAILED: perfbench did not finish within {RUN_TIMEOUT_S} s")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(f"error: perfbench exited with {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            prov.update(build_provenance())
            line = "provenance " + json.dumps(prov)
        print(line)

    result["attempted"] += 1
    if tree_digest(results) != before:
        print("FAILED: the run changed files under results/")
        result["failed"] += 1
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
