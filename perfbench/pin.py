"""Write expected.json: the outputs each workload must reproduce.

    PYTHONPATH=src python3 perfbench/pin.py

Runs every workload once at the default seed and records the outputs of
its operations (class sizes, valencies, character tables, loop order,
Moufang and associativity verdicts, CLI tables).  Pin only from a commit
whose certificates pass: tables with a closed form are compared with it by
the workloads themselves, and every other table passes both orthogonality
relations and the candidate-table check against its intersection numbers.
Operations that fail are listed and left out of the pinned data.
"""

import json
import sys
import tempfile
from pathlib import Path

from schemeforge import DEFAULT_SEED
from workloads import WORKLOADS, Run

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main() -> None:
    pinned = {}
    work = Path(__file__).resolve().parent.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        for name, workload in WORKLOADS.items():
            run = Run()
            workload(run, DEFAULT_SEED, workdir)
            for line in run.errors:
                print(f"{name}: not pinned: {line}", file=sys.stderr)
            pinned[name] = {label: value for label, value in run.outputs.items()
                            if value is not None}
    EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
