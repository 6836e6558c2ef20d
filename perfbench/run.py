#!/usr/bin/env python3
"""Build and run the repository benchmark (one workload per invocation).

    python3 perfbench/run.py --workload hunt|replay|analyze --seed N \
        --seconds S --trace 0|1 [--held-out]

Run from the repository root. The first run configures and builds
perfbench/ (the src/ libraries plus the driver) into .bench_build/; later
runs only re-check the build. Build output goes to stderr.

--held-out swaps the tuning seed lists of perfbench/seeds.json for the
held-out ones, to re-check a claim on seeds not used while writing it.

Stdout: a header row naming the commit (or a digest of the source tree when
there is no git checkout) and nproc, the driver's metric lines, and last the
driver's JSON result. Each run also appends one row to
.bench_build/results.jsonl. Exit code: the driver's (0 ok, 1 a reference
check failed), 2 when the build or the driver cannot run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def commit_id():
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "ci"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def seed_arg(span):
    first, last = span
    return ",".join(str(s) for s in range(first, last + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["hunt", "replay", "analyze"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    which = "held_out" if args.held_out else "tuning"
    campaign_seeds = seed_arg(seeds["hunt"][which])
    replay_seed = str(seeds["replay"][which])

    binary = build()
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--campaign-seeds", campaign_seeds, "--replay-seed", replay_seed]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}_seed{args.seed}.jsonl")]

    commit = commit_id()
    nproc = os.cpu_count()
    print(f"run commit={commit} nproc={nproc} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} seeds={which}", flush=True)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail(f"driver exited {r.returncode} without a result")

    # The driver must report exactly the metrics BENCHMARK.json declares.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["end_to_end" if args.trace == "0" else "per_layer"]
    names = {m["name"] for m in declared}
    if set(result["metrics"]) != names:
        sys.stdout.write(r.stdout)
        fail("driver metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ names)}")

    with open(os.path.join(BUILD_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"commit": commit, "nproc": nproc, "workload": args.workload,
                            "seed": args.seed, "seconds": args.seconds,
                            "trace": int(args.trace), "seeds": which, **result}) + "\n")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
