"""Compare two results written by ``run.py --out``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints, per workload and metric, both values and the relative change,
and flags an end-to-end metric that got worse by more than its bound in
BENCHMARK.json.  Refuses, with exit code 2, to compare results whose
kernel backend or CPU count differ: their timings are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

STAMP_KEYS = ("backend", "nproc", "cpus_allowed", "occert_threads")


def mismatch(before: dict, after: dict) -> str | None:
    """Why two results must not be compared, or None."""
    if before["trace"] != after["trace"]:
        return "one result is traced and the other is not"
    for key in STAMP_KEYS:
        if before["env"][key] != after["env"][key]:
            return "%s differs: %r vs %r" % (key, before["env"][key],
                                            after["env"][key])
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = ({r["workload"]: r for r in json.loads(Path(p).read_text())}
                     for p in argv)
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    for name in sorted(before.keys() & after.keys()):
        reason = mismatch(before[name], after[name])
        if reason:
            print("%s: refusing to compare: %s" % (name, reason), file=sys.stderr)
            return 2
        for metric, old in before[name]["metrics"].items():
            new = after[name]["metrics"][metric]
            change = (new - old) / old if old else 0.0
            spec = metrics[metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            flag = ""
            if "bound" in spec and sign * change > spec["bound"]:
                flag = "  WORSE than bound %.2f" % spec["bound"]
                worse += 1
            print("%s: %-58s %14.6g -> %14.6g %s (%+.1f%%)%s"
                  % (name, metric, old, new, spec["unit"], 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
