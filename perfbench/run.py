#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload hit_wire --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload atlas_batch --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest [--seed 7]

Run from the repository root.  The first call builds the library, the
tuning daemon and the C++ benchmark program (perfbench/src) from source
into `.bench_build/perfbench` (or `$CARGO_TARGET_DIR/perfbench`); later
calls rebuild incrementally.
Build output goes to stderr, so the last stdout line is always the
benchmark's result object.  perfbench/NOTES.md explains the workloads,
metrics, the traced run and the self-test.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hit_wire", "miss_wire", "atlas_batch")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return pathlib.Path(base).resolve() / "perfbench"


def build(out):
    """Configures (once) and builds perfbench; returns (binary, daemon)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no repository sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "perfbench", out / "edb" / "tuning_serverd"


def source_stamp():
    """Commit (when run from a git checkout) and a digest of the sources."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (not a git checkout)"
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_workload(binary, daemon, out, workload, seed, seconds, trace,
               echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serverd", str(daemon), "--out", str(out / "traces")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124, []
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
    return done.returncode, lines


def result_of(lines):
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def record(out, workload, seed, trace, stamp, lines):
    """Keeps each run's stamped record next to the build."""
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    machine = next((json.loads(l[len("stamp: "):]) for l in lines
                    if l.startswith("stamp: ")), {})
    entry = {"workload": workload, "seed": seed, "trace": trace,
             "stamp": {**machine, **stamp}, "result": result_of(lines)}
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (results / name).write_text(json.dumps(entry, indent=1) + "\n")


# Per-layer counts that are pure functions of the seed: the self-test
# requires them to repeat exactly.
DETERMINISTIC = ("solve.xmac.evals", "solve.dmac.evals", "solve.lmac.evals",
                 "solve.catalog.evals", "wire.query_bytes",
                 "wire.result_bytes", "key.canonical_bytes",
                 "planner.solved_per_q", "planner.coalesced_per_q",
                 "planner.cells_per_chain")


def selftest(binary, daemon, out, seed):
    failures = []

    def traced(workload, s):
        code, lines = run_workload(binary, daemon, out, workload, s, 2, 1,
                                 echo=False)
        res = result_of(lines)
        digest = next((l.split("digest ")[1].split()[0] for l in lines
                       if l.startswith("inputs: ")), None)
        if code != 0 or res is None or not res["correct"]:
            failures.append(f"{workload} seed {s}: exit {code}")
            return None, digest
        return {k: v["value"] for k, v in res["metrics"].items()}, digest

    for workload in WORKLOADS:
        first, d1 = traced(workload, seed)
        second, d2 = traced(workload, seed)
        _, d3 = traced(workload, seed + 1)
        if first is None or second is None:
            continue
        keys = list(DETERMINISTIC)
        if workload == "hit_wire":
            keys.append("cache.hit_rate")
        for key in keys:
            same = first.get(key) == second.get(key)
            print(f"selftest {workload:12s} {key:26s} {first.get(key)!r:>22} "
                  f"{'repeats' if same else 'DIFFERS: ' + repr(second.get(key))}")
            if not same or key not in first:
                failures.append(f"{workload} {key}")
        if d1 is None or d1 != d2:
            failures.append(f"{workload}: inputs differ at one seed")
        if d1 == d3:
            failures.append(f"{workload}: seed {seed + 1} gave the same inputs")
        print(f"selftest {workload:12s} inputs digest {d1} (seed {seed}), "
              f"{d3} (seed {seed + 1})")
    for f in failures:
        print(f"SELFTEST FAILED: {f}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    binary, daemon = build(out)
    if args.selftest:
        return selftest(binary, daemon, out, args.seed)
    stamp = source_stamp()
    print("source:", json.dumps(stamp))
    code, lines = run_workload(binary, daemon, out, args.workload, args.seed,
                             args.seconds, args.trace)
    record(out, args.workload, args.seed, args.trace, stamp, lines)
    if result_of(lines) is None and code == 0:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
