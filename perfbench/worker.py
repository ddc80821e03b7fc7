"""One benchmark rep in a fresh process, so that ru_maxrss is this rep's own.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --setup-only

schemeforge is imported before anything else, and the wall-clock time at
which that import finished is reported, so the parent can time set-up from
the moment it started the process.  The last line of standard output is the
rep's result as one JSON object.
"""

import time

import schemeforge  # noqa: F401  (the import being timed)

IMPORTED_AT = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Instrumentation, Recorder, max_rss_mb, self_time_by_name  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def layer_metrics(rec: Recorder, run: Run) -> dict[str, float]:
    """Self time per span name as `<name>_s`, the counters, and the ratios
    derived from them.  The root span's self time is the time spent outside
    every layer."""
    out = {f"{name}_s": value for name, value in self_time_by_name(rec.spans).items()}
    out.update(rec.counters)
    out["trace.unattributed_s"] = out.pop("workload_s", 0.0)
    out["cli.calls"] = sum(1 for s in rec.spans if s.name == "cli.main")
    out["cli.output_bytes"] = run.cli_output_bytes
    if out.get("zorn.mul_vec_s"):
        out["zorn.products_per_s"] = out["zorn.products"] / out["zorn.mul_vec_s"]
    if out.get("loopcore.samples"):
        out["loopcore.merge_yield"] = out["loopcore.merges"] / out["loopcore.samples"]
    return out


def run_workload(name: str, seed: int, trace: bool, workdir: str) -> dict:
    run = Run()
    rec = Recorder(run_id=f"{name}-{seed}-{os.getpid()}")
    with Instrumentation(rec) if trace else contextlib.nullcontext():
        cpu0 = time.process_time()
        token = rec.open()
        WORKLOADS[name](run, seed, workdir)
        rec.close("workload", token)
        cpu1 = time.process_time()
    root = rec.spans[-1]
    expected = json.loads(EXPECTED.read_text())[name]
    mismatches = run.gate(expected)
    result = {
        "imported_at": IMPORTED_AT,
        "time_to_certified_s": root.end - root.start,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": max_rss_mb(),
        "attempted": run.attempted,
        "failed": len(run.failed),
        "errors": run.errors,
        "mismatches": mismatches,
    }
    if trace:
        result["layers"] = layer_metrics(rec, run)
        rec.write(Path(workdir) / f"spans-{name}-{seed}.jsonl")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=schemeforge.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()
    if args.setup_only:
        result = {"imported_at": IMPORTED_AT, "python": platform.python_version(),
                  "numpy": np.__version__}
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        result = run_workload(args.workload, args.seed, bool(args.trace), args.workdir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
