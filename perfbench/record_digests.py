"""Record each workload's outcome digest for a range of seeds.

Run from the repository root::

    python3 perfbench/record_digests.py 0 20

writes ``perfbench/digests.json``, which ``run.py`` compares every run
against.  Re-record only when a change is meant to alter the program's
behaviour, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    digests = {
        name: {
            str(seed): workload.run(seed).outcome.digest
            for seed in range(first, last + 1)
        }
        for name, workload in WORKLOADS.items()
    }
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
