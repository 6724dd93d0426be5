#!/usr/bin/env python3
"""The repository benchmark: build it, run one workload, report.

    python3 perfbench/run.py --workload paper-grid --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout. The first run configures and builds
the bbrmodel library and the perfbench binary with CMake into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The workload then runs in a process of its own, in a fresh directory under
.bench_work that is removed afterwards. A traced run (--trace 1) also
leaves its spans in .bench_out/<workload>.trace.json (Chrome trace format).

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json, or its per-layer metrics
with --trace 1. End-to-end times are scaled to a reference host speed
(src/calibrate.h). The line before it stamps the host, build and source,
with the raw pass times and the host-speed probes.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42  # the seed whose output digests expected.json records
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the perfbench binary; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = []
    # A failed configure still leaves a CMakeCache.txt behind; the target's
    # directory appears only once generation succeeded.
    if not (build_dir / "CMakeFiles" / "perfbench.dir").is_dir():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}", 2)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 2)
    return build_dir / "perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha256():
    """Digest of the measured code, for checkouts without git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing", 2)
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs (the benchmark's self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the output before the check "
                             "(the benchmark's self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", str(work)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        command += ["--spans", str(out_dir / f"{args.workload}.trace.json")]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt:
        command.append("--corrupt")
    env = dict(os.environ)
    env.pop("BBRM_TRACE", None)  # the library's own tracing stays off
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} run failed (exit {done.returncode})", 1)
    report = json.loads(lines[-1])

    # Every metric BENCHMARK.json names for this mode, with its unit.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        fail("the binary's metrics do not match BENCHMARK.json", 3)

    problems = list(report["problems"])
    if args.seed == DEFAULT_SEED and not args.smoke:
        expected = json.loads((HERE / "expected.json").read_text())
        if report["digests"] != expected["digests"][args.workload]:
            problems.append(f"output digests {report['digests']} differ "
                            f"from expected.json")
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    correct = not problems

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(report["pass_wall_s"]) + len(report["traced_pass_wall_s"]),
        "pass_wall_s": report["pass_wall_s"],
        "traced_pass_wall_s": report["traced_pass_wall_s"],
        "host_probe_s": report["host_probe_s"],
        "digests": report["digests"],
        "nproc": os.cpu_count(), "cpu": report["build"]["cpu"],
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["build_type"],
        "commit": git_commit(), "source_sha256": source_sha256(),
    }
    print("stamp " + json.dumps(stamp))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        # A run whose bytes fail the check counts every cell as failed.
        "failed": report["failed"] if correct else report["attempted"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
