#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) into .bench_build/, then runs the
helper self-test; later runs rebuild only when a file under src/ or
perfbench/ changed. The benchmark binary prints its report and, as the
last stdout line, one JSON result object. The exit code is the binary's:
0 = every check passed. A failed build or self-test exits non-zero without
printing a result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "s35_perfbench")
SELFTEST = os.path.join(BUILD, "s35_perfbench_selftest")
STAMP = os.path.join(BUILD, "sources.stamp")
WORKLOADS = ["sweep-dram", "sweep-l3", "serve-warm", "serve-routed"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """Digest of every file the build reads (path, size, mtime)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                st = os.stat(path)
                h.update(f"{os.path.relpath(path, ROOT)}:{st.st_size}:{st.st_mtime_ns}\n"
                         .encode())
    return h.hexdigest()


def build():
    digest = source_digest()
    if (os.path.exists(BINARY) and os.path.exists(STAMP)
            and open(STAMP).read() == digest):
        return True
    log("perfbench: building into .bench_build (first run takes a few minutes)")
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "s35_perfbench",
         "s35_perfbench_selftest"],
        [SELFTEST],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: step failed: " + " ".join(cmd))
            return False
    with open(STAMP, "w") as f:
        f.write(digest)
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in 1..60")

    # Compiler and benchmark scratch files stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--tmp", tmp]
    sys.stdout.flush()
    # Own session, so a timeout can stop the binary and any node it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
