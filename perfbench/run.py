"""schemeforge benchmark: time to a certified table, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from anywhere; the program is imported from src/ next to this
directory.  Each rep runs in a fresh worker process (perfbench/worker.py)
with one BLAS thread.  Reps repeat until --seconds have passed and at least
MIN_REPS have run; rep k uses a seed derived from (--seed, k), and the
reported times are medians over reps.  Set-up time is the median over
SETUP_PROBES fresh processes that only import schemeforge and over the
rep workers, which import it before anything else.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the reps
alternate untraced and traced on the same seed, and the per-layer metrics
of the traced reps are printed, together with the tracing overhead.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans and per-rep results are written under
.bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("mstar5", "psl2_16", "small_suite", "mstar8_loop")
MIN_REPS = 4
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "time_to_certified_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# layer metric -> unit; a layer idle on a workload reports 0
PER_LAYER = {
    "zorn.build_s": "s", "zorn.build_rss_mb": "MB", "zorn.mul_vec_s": "s",
    "zorn.mul_vec_calls": "count", "zorn.products": "count",
    "zorn.products_per_s": "1/s",
    "loopcore.inner_orbits_s": "s", "loopcore.samples": "count",
    "loopcore.certify_rounds": "count", "loopcore.certify_s": "s",
    "loopcore.merge_yield": "ratio", "loopcore.loop_scheme_s": "s",
    "loopcore.moufang_s": "s", "loopcore.moufang_triples": "count",
    "permgroup.closure_s": "s", "permgroup.classes_s": "s",
    "permgroup.mul_table_s": "s", "permgroup.group_scheme_s": "s",
    "permgroup.orbitals_s": "s", "permgroup.pair_orbits_s": "s",
    "permgroup.elements": "count",
    "scheme.intersection_numbers_s": "s", "scheme.rows_read": "count",
    "scheme.verify_axioms_s": "s", "scheme.fuse_s": "s",
    "chartab.eigensolve_s": "s", "chartab.certify_s": "s",
    "chartab.compare_s": "s", "chartab.compare_failed": "count",
    "chartab.double_coset_s": "s",
    "cli.main_s": "s", "cli.calls": "count", "cli.output_bytes": "B",
    "gf.field_for_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """A worker could not run; the benchmark stops without a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # set-up is timed with cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker to completion; its set-up time is measured from here."""
    started = time.time()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


def rep_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % (1 << 31)


def provenance(seed: int) -> dict:
    """Where the numbers come from; also compiles the bytecode before any
    set-up time is taken."""
    probe = spawn(["--setup-only"], DEADLINE_S)
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip() or None
    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh
                      if line.startswith("MemTotal:"))
    return {
        "git_sha": sha,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_kb,
        "blas_env": {var: worker_env()[var] for var in BLAS_VARS},
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            started: float) -> dict:
    """All reps of one workload run; returns the result object."""
    setup = [spawn(["--setup-only"], DEADLINE_S)["setup_s"]
             for _ in range(SETUP_PROBES)]
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    reps: list[dict] = []
    rep_started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - rep_started < seconds:
        k = len(reps)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        if k >= MIN_REPS and remaining < 2 * (time.perf_counter() - rep_started) / k:
            break      # another rep would not end before the deadline
        traced = trace and k % 2 == 1
        seed_k = rep_seed(seed, k // 2 if trace else k)
        rep = spawn(["--workload", workload, "--seed", str(seed_k),
                     "--trace", str(int(traced)), "--workdir", str(workdir)],
                    remaining)
        rep["traced"], rep["seed"] = traced, seed_k
        reps.append(rep)
    # every rep worker imports schemeforge first, so it is a set-up sample too
    return summarize(reps, setup + [r["setup_s"] for r in reps], trace)


def summarize(reps: list[dict], setup: list[float], trace: bool) -> dict:
    plain = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    med = lambda key, rs=plain: statistics.median(r[key] for r in rs)  # noqa: E731
    if trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = (med("time_to_certified_s", traced)
                                       - med("time_to_certified_s"))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "time_to_certified_s": med("time_to_certified_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {
        "correct": all(not r["mismatches"] for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "reps": reps,
        "setup_samples": setup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "schemeforge" / "__init__.py").is_file():
        print(f"perfbench: no schemeforge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    info = provenance(args.seed)
    print("provenance " + json.dumps(info))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        errors = sorted({(e, r["seed"]) for r in res["reps"] for e in r["errors"]})
        for line, seed in errors:
            line = f"{name}: failed operation (rep seed {seed}): {line}"
            print(line)
            print(line, file=sys.stderr)
        print(f"{name}: {len(res['reps'])} reps, {res['attempted']} operations, "
              f"{res['failed']} failed, outputs "
              f"{'correct' if res['correct'] else 'WRONG'}")
        for metric, entry in res["metrics"].items():
            print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
        out = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({"provenance": info, "workload": name, **res},
                                  indent=1))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    else:
        res = results[args.workload]
        final = {key: res[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
