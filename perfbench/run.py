"""superfn benchmark runner.

    python3 perfbench/run.py --workload {radial,exact,queries} --seed N \
        --seconds S --trace {0,1}

Every pass over a workload's job list runs in a fresh child process, with
one thread and one client in a closed loop: each job waits for the verdict
of the one before. The parent imports nothing from superfn; it starts the
children one at a time, waits for each, and prints one JSON object as the
last line of stdout.

--trace 0 runs untraced passes, at least MIN_PASSES and more while another
fits in ``--seconds``, takes each job's median over the passes, and reports
the end-to-end metrics. Times are rescaled to a fixed reference speed by a
speed probe run between jobs (see calibrate()). --trace 1 runs one untraced
pass, one traced pass (spans) and one counting pass (Scalar and Grassmann
operation counts) and reports the per-layer metrics. Every pass must give
the same output digest, and so must an earlier run of the same workload,
seed and source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("radial", "exact", "queries")
# set-up is sampled in this many set-up-only children before each pass,
# and in every pass
PROBES_PER_PASS = 2
# untraced runs time every job in at least this many passes
MIN_PASSES = 3
# a run must end within 180 s; children are stopped at this deadline
DEADLINE_S = 170.0
# the speed probe runs between jobs once this much job time has passed
CALIBRATE_EVERY_S = 0.25
# a job's speed is the median of the probes just before and after it and
# this many more on each side: one probe varies more than the speed does
SMOOTH_PROBES = 2
# reported times are rescaled to the speed at which calibrate() takes this
# long (about its time on the reference host in its fast state)
CALIBRATION_REF_S = 0.004


def calibrate() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic (median of
    three tries): a probe of the core's current speed, which on shared
    hosts drifts by up to 1.7x over seconds to minutes. It is never part
    of a job's time."""
    tries = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1000):
            total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        tries.append(time.perf_counter() - t0)
    return statistics.median(tries)


# ------------------------------------------------------------------ child


def child(mode: str, workload: str, seed: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import superfn
    except ImportError as exc:
        print(f"cannot import superfn from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(superfn.__file__).resolve().parent != ROOT / "src" / "superfn":
        print(f"superfn imported from {superfn.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads
    from spans import JOB_SPAN, Counter, Tracer
    from superfn.scalar import _rat

    jobs = workloads.WORKLOADS[workload](seed)
    tracer = counter = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    elif mode == "count":
        counter = Counter()
        counter.install()
    setup_done = time.monotonic()
    if mode == "probe":
        print(json.dumps({"setup_done": setup_done, "cal_s": calibrate()}))
        return 0

    digest = hashlib.sha256()
    latencies = []
    probes = [calibrate()]  # speed probes, in the order they ran
    before = []  # per job: index of the probe just before its group
    failures = []
    group = []
    for idx, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.span(JOB_SPAN, job.run, (), {})
            else:
                out = job.run()
        except Exception as exc:  # a job that raises is a failed job
            out = f"raised {type(exc).__name__}: {exc}"
            err = out
        else:
            err = None
        latencies.append(time.perf_counter() - t0)
        group.append(idx)
        if idx == len(jobs) - 1 or \
                sum(latencies[i] for i in group) >= CALIBRATE_EVERY_S:
            before += [len(probes) - 1] * len(group)
            probes.append(calibrate())
            group = []
        if err is None:
            try:
                err = job.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                err = f"unreadable output: {exc!r}"
        if err is not None:
            failures.append(f"{job.name}: {err}")
        digest.update(f"{job.name}\n{out}\n".encode())

    result = {
        "setup_done": setup_done,
        "setup_cal_s": probes[0],
        "latencies_s": latencies,
        "cal_s": [statistics.median(probes[max(0, k - SMOOTH_PROBES):
                                           k + SMOOTH_PROBES + 2])
                  for k in before],
        "job_names": [job.name for job in jobs],
        "attempted": len(jobs),
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "scalar_backend": f"{_rat.__module__}.{_rat.__qualname__}",
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(str(RESULTS / f"{workload}-seed{seed}.spans.json.gz"))
    if counter is not None:
        result["layers"] = counter.layer_metrics()
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------- parent


class RunError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode: str, workload: str, seed: int, deadline: float) -> tuple:
    """Run one child to completion; returns (spawn time, its result)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the next pass")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} pass did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} pass exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return t_spawn, json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise RunError(f"{mode} pass printed no result") from exc


def quantile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles, inclusive."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_hash() -> str:
    """sha256 of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "superfn").glob("*.py"),
                        *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.exists():
                return ref_file.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def check_digests(workload: str, seed: int, digests: list) -> list:
    """Problems with determinism: passes that disagree, or a digest that
    differs from an earlier run of the same workload, seed and source."""
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"passes gave {len(set(digests))} different digests")
    store = RESULTS / "digests.json"
    key = f"{workload}:{seed}:{source_hash()[:16]}"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != digests[0]:
        problems.append(f"digest differs from an earlier run ({key})")
    known.setdefault(key, digests[0])
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def rescale(seconds: float, cal_s: float) -> float:
    """A time measured while calibrate() took cal_s, at the reference
    speed."""
    return seconds * CALIBRATION_REF_S / cal_s


def pass_times(p: dict) -> list:
    return [rescale(t, c) for t, c in zip(p["latencies_s"], p["cal_s"])]


def job_times(passes: list) -> list:
    """Each job's time at the reference speed, median over the passes."""
    return [statistics.median(times)
            for times in zip(*(pass_times(p) for p in passes))]


def end_to_end(passes: list, setups: list) -> dict:
    job_s = job_times(passes)
    latencies_ms = [s * 1000 for s in job_s]
    return {
        "run_s": sum(job_s),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p99_ms": quantile(latencies_ms, 99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: dict, counted: dict) -> dict:
    values = dict(traced["layers"])
    values.update(counted["layers"])
    values["trace.run_s"] = sum(pass_times(traced))
    return values


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: dict) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)

    setups = []
    passes = []
    measure_start = time.monotonic()
    while True:
        # probes between passes sample set-up across the whole run
        for _ in range(PROBES_PER_PASS):
            t_spawn, res = spawn("probe", workload, seed, deadline)
            setups.append(rescale(res["setup_done"] - t_spawn, res["cal_s"]))
        t_spawn, res = spawn("plain", workload, seed, deadline)
        setups.append(rescale(res["setup_done"] - t_spawn,
                              res["setup_cal_s"]))
        passes.append(res)
        elapsed = time.monotonic() - measure_start
        if trace or (len(passes) >= MIN_PASSES
                     and elapsed + elapsed / len(passes) > seconds):
            break
    extra = {}
    if trace:
        _, extra["trace"] = spawn("trace", workload, seed, deadline)
        _, extra["count"] = spawn("count", workload, seed, deadline)

    every = passes + list(extra.values())
    failures = [f for p in every for f in p["failures"]]
    problems = check_digests(workload, seed, [p["digest"] for p in every])
    if trace:
        values = per_layer(extra["trace"], extra["count"])
        declared = spec["per_layer"]
    else:
        values = end_to_end(passes, setups)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RunError(
            f"metrics {sorted(set(values) ^ set(units))} are printed but "
            "not declared in BENCHMARK.json, or declared but not printed")
    job_s = job_times(passes)

    attempted = sum(p["attempted"] for p in every)
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
        "detail": {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "passes": len(passes),
            "jobs_per_pass": passes[0]["attempted"],
            "query_samples": len(job_s),
            "fail_ratio": len(failures) / attempted,
            "failures": failures[:20],
            "determinism_problems": problems,
            "digest": passes[0]["digest"],
            "setup_samples_s": setups,
            "pass_run_s": [sum(pass_times(p)) for p in passes],
            "pass_wall_s": [sum(p["latencies_s"]) for p in passes],
            # one traced pass minus one untraced pass: within the noise,
            # so it is recorded here and not reported as a metric
            "trace_overhead_s": sum(pass_times(extra["trace"])) - sum(
                pass_times(passes[0])) if trace else None,
            "job_names": passes[0]["job_names"],
            "job_s": job_s,
            "wall_s": time.monotonic() - start,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "scalar_backend": passes[0]["scalar_backend"],
            "git_commit": git_commit(),
            "source_sha256": source_hash(),
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("probe", "plain", "trace", "count"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        return child(args.child, args.workload, args.seed)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), spec)
    except (RunError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail = result.pop("detail")
    out = RESULTS / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps(dict(result, detail=detail), indent=1))
    print(f"{args.workload} seed {args.seed}: {detail['passes']} pass(es), "
          f"{detail['query_samples']} job latencies, "
          f"{result['failed']}/{result['attempted']} jobs failed, "
          f"digest {detail['digest'][:12]}, result in {out}",
          file=sys.stderr)
    for msg in detail["failures"] + detail["determinism_problems"]:
        print(f"  {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
