"""Self-tests of the benchmark itself (not of superfn).

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps the benchmark contract's shape, and the runner
   prints exactly the metric names it declares, end-to-end and per-layer.
2. On a sample of generated inputs at (1,1), the generator's expected
   verdicts agree with the exact pairing oracle (mode="pairing") wherever
   pairing fits under PAIRING_FLAT_CAP, so a wrong expectation cannot hide
   behind the generic oracle agreeing with it.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from superfn import CG, Dims, cg, spherical  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SAMPLE_SEEDS = (1, 2)
SAMPLE_QUERIES = 40


def check_spec(spec: dict) -> list:
    problems = []
    if sorted(spec) != ["command", "end_to_end", "paths", "per_layer",
                        "run_seconds", "workloads"]:
        problems.append(f"unexpected keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from the runner's")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME.match(name) or names.count(name) > 1:
            problems.append(f"bad or repeated name {name!r}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound {m['bound']} out of range")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be declared in s, lower better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def check_metric_names(spec: dict) -> list:
    """Feed the runner's metric functions synthetic passes and compare the
    names they produce with BENCHMARK.json."""
    plain = {"latencies_s": [0.01] * 20, "cal_s": [0.004] * 20,
             "peak_rss_mb": 1.0}
    traced = dict(plain, layers=spans.Tracer().layer_metrics())
    counted = {"layers": spans.Counter().layer_metrics()}
    problems = []
    for printed, declared in (
            (run.end_to_end([plain, plain], [0.1]), spec["end_to_end"]),
            (run.per_layer(traced, counted), spec["per_layer"])):
        want = {m["name"] for m in declared}
        for name in sorted(set(printed) ^ want):
            where = "not declared" if name in printed else "not printed"
            problems.append(f"metric {name}: {where}")
    return problems


def check_against_pairing() -> tuple:
    """Run sampled (1,1) jobs through the pairing oracle and apply each
    job's own known-answer check. Returns (problems, jobs checked)."""
    problems = []
    checked = 0
    for seed in SAMPLE_SEEDS:
        sample = [job for job in workloads.queries_jobs(seed)
                  if job.argv[:4] == ["--m", "1", "--n", "1"]
                  and not job.name.startswith(("eval", "act", "cap"))]
        for job in sample[:SAMPLE_QUERIES]:
            out = workloads.call_cli(job.argv + ["--mode", "pairing"])
            if out.startswith("3\n"):
                continue  # over the pairing cap: nothing to compare
            err = job.check(out)
            checked += 1
            if err:
                problems.append(f"queries seed {seed} {job.name}: {err}")
        for job in workloads.exact_jobs(seed):
            if job.name.startswith("certificate(1,1)"):
                err = job.check(job.run())
                checked += 1
                if err:
                    problems.append(f"exact seed {seed} {job.name}: {err}")
    # the claims suite_check expects of verify_t51 at (1,1), up to the
    # degree where pairing fits its cap
    dims = Dims(1, 1)
    one_minus_r = CG.one(dims) - spherical.r_func(dims)
    claims = [("(1-r)^2 vanishes", one_minus_r ** 2, "zero"),
              ("(1-r)^1 survives", one_minus_r, "nonzero"),
              ("sphere identity", spherical.sphere_defect(dims), "zero")]
    claims += [(f"r^{k} survives", spherical.r_func(dims) ** k, "nonzero")
               for k in (1, 2, 3)]
    for name, f, want in claims:
        got = cg.is_zero_mod_j(f, mode="pairing").verdict
        checked += 1
        if got != want:
            problems.append(f"t51(1,1) {name}: pairing says {got}")
    return problems, checked


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_metric_names(spec)
    queries = len(workloads.queries_jobs(1))
    if queries < 1000:
        problems.append(f"queries has {queries} jobs; p99 needs 1000")
    pairing_problems, checked = check_against_pairing()
    problems += pairing_problems
    for p in problems:
        print(f"FAIL {p}")
    print(f"{checked} sampled (1,1) verdicts checked against the pairing "
          f"oracle (cap {cg.PAIRING_FLAT_CAP}); "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
