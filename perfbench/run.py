#!/usr/bin/env python3
"""OFTEC benchmark entry point.

    python3 perfbench/run.py --workload alg1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Builds the perfbench harness (perfbench/CMakeLists.txt, which compiles the
OFTEC library from this checkout) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload and passes
its output through: the last line is the JSON result. --smoke instead runs
the self-test: every workload for a few ops, traced and untraced, checking
each metric name and unit against BENCHMARK.json, plus a deliberately
perturbed Table-2 golden value that must make alg1 exit non-zero.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
GOLDEN = Path("tests/integration/data/table2_golden.csv")


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the harness; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no OFTEC sources in {ROOT}: run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                die("cmake configure failed", 3)
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                           "-j", jobs], stdout=sys.stderr).returncode != 0:
            die("build failed", 3)
    return out / "perfbench"


def run(binary, args):
    """Run the harness; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(binary), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}", 4)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(result, expected, label):
    """Names and units of `result` must be exactly `expected`."""
    problems = []
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        return [f"{label}: result line malformed"]
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got.get('unit')}, "
                            f"expected {m['unit']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{label}: outputs failed their checks")
    return problems


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, stdout = run(binary, ["--workload", workload, "--seed", "1",
                                        "--seconds", "2", "--trace", trace,
                                        "--smoke"])
            found = check_metrics(result_of(stdout), expected, label)
            if code != 0:
                found.append(f"{label}: exit code {code}")
            problems += found
            print(f"smoke: {label}: {'ok' if not found else 'FAILED'}")

    # The golden check must be able to fire: perturb one Table-2 value.
    perturbed = build_dir() / "smoke" / "golden_perturbed.csv"
    perturbed.parent.mkdir(parents=True, exist_ok=True)
    lines = (ROOT / GOLDEN).read_text().splitlines()
    row = next(i for i, l in enumerate(lines) if ",oftec," in l)
    fields = lines[row].split(",")
    fields[5] = repr(float(fields[5]) * 1.01)  # total_power_w, +1 %
    lines[row] = ",".join(fields)
    perturbed.write_text("\n".join(lines) + "\n")
    code, stdout = run(binary, ["--workload", "alg1", "--seed", "1",
                                "--seconds", "1", "--trace", "0", "--smoke",
                                "--golden", str(perturbed)])
    result = result_of(stdout)
    fired = code != 0 and result is not None and not result["correct"]
    print(f"smoke: perturbed golden rejected: {'ok' if fired else 'FAILED'}")
    if not fired:
        problems.append("a perturbed golden value did not fail alg1")

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.smoke:
        sys.exit(smoke(build()))
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    binary = build()
    forwarded = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        forwarded += ["--spans-out",
                      str(spans / f"{args.workload}-seed{args.seed}.json")]
    code, stdout = run(binary, forwarded)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
