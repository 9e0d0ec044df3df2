#!/usr/bin/env python3
"""Builds and runs the repository benchmark (stdlib only).

One workload, the form BENCHMARK.json's command takes (the last line of
standard output is the result JSON):

    python3 benchmark/run.py --workload ft2-inproc --seed 1 --seconds 18 --trace 0

Every workload in turn (exits non-zero if any check fails):

    python3 benchmark/run.py [--seed S] [--seconds T] [--trace 0|1] [--quick]

Calibration, N seeds per workload, interleaved; writes every run to --out
and the medians, quartiles and gated/diagnostic split to
benchmark/baseline.json:

    python3 benchmark/run.py --calibrate 10 --out bench-results/calibration

The program is built from source with CMake into .bench_build/ at the root of
the checkout. Results go to bench-results/ (one W.json per workload, plus
trace-W.json with --trace 1).
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["ft2-inproc", "ft2-socket", "onehot-split", "serve-zipf",
             "reach-graph"]
RUN_TIMEOUT_S = 170
# A metric whose run-to-run spread (interquartile range over median) is
# above this is reported as diagnostic rather than gated.
GATED_SPREAD = 0.10


def log(message):
    print(message, file=sys.stderr, flush=True)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def build():
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"run.py: {ROOT} holds no paxml sources to build")
        sys.exit(2)
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "--parallel", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout)
            log(f"run.py: build failed: {' '.join(cmd)}")
            sys.exit(2)
    return BUILD / "paxml_bench"


def host_facts():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "build_type": "RelWithDebInfo", "git_commit": commit}


def run_one(binary, workload, seed, seconds, trace, quick=False,
            inject_mismatch=False, out_dir=None, name=None, echo=True):
    """Runs one workload and writes its result file (default name: the
    workload); returns (exit code, result dict or None)."""
    out_dir = Path(out_dir or ROOT / "bench-results")
    out_dir.mkdir(parents=True, exist_ok=True)
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", str(work)]
    if trace:
        cmd += ["--trace", str(out_dir / f"trace-{workload}.json")]
    if quick:
        cmd.append("--quick")
    if inject_mismatch:
        cmd.append("--inject-mismatch")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"run.py: {workload} printed no result (exit {done.returncode})")
        return done.returncode or 1, None

    spec = benchmark_spec()
    if spec is not None:
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"] for m in spec[kind]}
        got = set(result["metrics"])
        if want != got:
            log(f"run.py: {workload} metrics differ from BENCHMARK.json "
                f"{kind}: missing {sorted(want - got)}, extra {sorted(got - want)}")
            return 1, None
    config = next((l for l in lines if l.startswith(workload + ": config ")), "")
    record = dict(host_facts(), workload=workload, seed=seed, seconds=seconds,
                  trace=bool(trace), quick=quick, started=started,
                  config=config.split(": config ", 1)[-1], result=result)
    name = (name or workload) + ("-trace" if trace else "")
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1))
    return done.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibrate(binary, n, seconds, out_dir):
    spec = benchmark_spec()
    values = {}
    failures = 0
    for seed in range(1, n + 1):
        for workload in WORKLOADS:
            log(f"calibrate: {workload} seed {seed}")
            code, result = run_one(binary, workload, seed, seconds, False,
                                   out_dir=out_dir, name=f"{workload}-seed{seed}",
                                   echo=False)
            if code != 0 or result is None:
                failures += 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    (m["value"], m["unit"]))
    baseline = dict(host_facts(), seconds=seconds, runs_per_workload=n,
                    gated_spread=GATED_SPREAD, workloads={})
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if spec else {}
    print(f"{'workload':14} {'metric':22} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}  status")
    for workload, metrics in values.items():
        rows = {}
        for name, samples in metrics.items():
            vals = [v for v, _ in samples]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            gated = spread <= GATED_SPREAD
            rows[name] = {"unit": samples[0][1], "median": med, "q1": q1,
                          "q3": q3, "spread": spread, "runs": len(vals),
                          "gated": gated}
            status = "gated" if gated else "diagnostic"
            if name in bounds and name != "setup_s" and spread > bounds[name]:
                status += " (spread over bound)"
            print(f"{workload:14} {name:22} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:7.3f}  {status}")
        baseline["workloads"][workload] = rows
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    log(f"wrote {HERE / 'baseline.json'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 s per workload, one set-up, checks on")
    parser.add_argument("--calibrate", type=int, metavar="N")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one expected answer; the run must fail")
    parser.add_argument("--out", help="result directory (default bench-results)")
    args = parser.parse_args()

    spec = benchmark_spec()
    seconds = args.seconds or (2 if args.quick else
                               (spec["run_seconds"] if spec else 18))
    binary = build()
    if args.calibrate:
        out = args.out or ROOT / "bench-results" / "calibration"
        return calibrate(binary, args.calibrate, seconds, out)

    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    last = None
    for workload in workloads:
        # A result set for compare.py keeps one file per (workload, seed).
        code, last = run_one(binary, workload, args.seed, seconds, args.trace,
                             quick=args.quick,
                             inject_mismatch=args.inject_mismatch,
                             out_dir=args.out,
                             name=f"{workload}-seed{args.seed}" if args.out else None)
        if code != 0 or last is None or not last["correct"]:
            status = 1
    if args.workload and last is not None:
        print(json.dumps(last))
    return status


if __name__ == "__main__":
    sys.exit(main())
