"""Entry point of the per-workload process: ``python measure.py '<json spec>'``.

``run.py`` starts one of these per measurement, so every workload gets its
own interpreter, its own ``ru_maxrss`` and deterministic object/query ids.
The reference clock starts before the system under test is imported -
``setup_s`` runs from here to the first warmed cluster.  The last line of
standard output is one JSON object with the workload's metrics; the exit
code is non-zero when any object failed verification.
"""

from __future__ import annotations

import json
import os
import sys

from refclock import RefClock


def main(argv: list) -> int:
    clock = RefClock()
    born = clock.mark()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, os.pardir, os.pardir, "src"))
    import bench  # the system's imports are part of set-up, hence not at the top

    result = bench.run(json.loads(argv[1]), clock, born)
    print(json.dumps(result, allow_nan=False))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
