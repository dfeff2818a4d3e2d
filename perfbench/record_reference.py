"""Record the pinned reference outputs for every input a seed can draw.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per input variant, untraced, and writes the
outputs to reference.json.  Run it only on a commit whose numerical
results are trusted; run.py then fails any sample that departs from them.
"""

from __future__ import annotations

import json
import sys

from run import SetupFailure, prepare, run_child
from workloads import REFERENCE, WORKLOADS


def main(names) -> int:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    data["workloads"] = {k: v for k, v in data["workloads"].items() if k in WORKLOADS}
    failures = 0
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        pinned = {}
        for variant in workload.variants():
            run = prepare(workload, variant)
            try:
                record = run_child(workload, variant, run["dir"], trace=False)
            except SetupFailure as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            key = workload.key(variant)
            if record["failure"] is not None:
                failures += 1
                print(f"{name} {key}: FAILED {record['failure'].strip()[:300]}", flush=True)
                continue
            pinned[key] = record["outputs"]
            print(f"{name} {key}: {record['wall_s']:.2f} s {json.dumps(record['outputs'])}",
                  flush=True)
        data["workloads"][name] = pinned
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
