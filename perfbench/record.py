"""Record the expected report hashes of every verdict into expected.json.

    python3 perfbench/record.py

Run it only at a commit whose verdicts are known to be right (it was run at
the seed commit); it refuses to record a verdict that fails its known-answer
check.  The determining workload is recorded for its whole draw pool.
"""

from __future__ import annotations

import json
import sys
import time

from run import EXPECTED, WORKLOAD_NAMES, spawn_round


def main():
    expected = {}
    for workload in WORKLOAD_NAMES:
        result = spawn_round(workload, 0, time.monotonic() + 3600, record=True)
        failed = [v["id"] for v in result["verdicts"] if v["error"] or not v["ok"]]
        if failed:
            print(f"error: {workload}: verdicts failed: {failed}", file=sys.stderr)
            return 1
        expected[workload] = {v["id"]: v["hash"] for v in result["verdicts"]}
        print(f"{workload}: {len(result['verdicts'])} verdicts "
              f"in {result['wall_s']:.1f} s", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
