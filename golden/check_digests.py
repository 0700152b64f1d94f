"""Recompute the benchmark's seed-3 digests and compare them with golden/digests.json.

A change that keeps results keeps these: the payload digest of every
workload at full and smoke size, and the traced exact_counts of every
workload at smoke size. Each comes from the same perfbench/run.py command
as the CI step that prints them. The script prints one line per value and
exits 1 when any of them differs from the committed file; after a change
that moves results on purpose, the recomputed file is printed to paste in.

Run it from the repository root:

    python golden/check_digests.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "digests.json"
WORKLOADS = ("sweep", "contention", "realtime")


def details(workload: str, *flags: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", *flags]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    line = next(line for line in out.splitlines() if line.startswith("details "))
    return json.loads(line[len("details "):])


def recompute() -> dict:
    digests = {
        size: {w: details(w, "--trace", "0", *flags)["payload_digest"] for w in WORKLOADS}
        for size, flags in (("full", ()), ("smoke", ("--smoke",)))
    }
    counts = {w: details(w, "--trace", "1", "--smoke")["exact_counts"] for w in WORKLOADS}
    return {"payload_digest": digests, "smoke_exact_counts": counts}


def main() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = recompute()
    moved = 0
    for size, digests in now["payload_digest"].items():
        for w, digest in digests.items():
            same = digest == golden["payload_digest"][size][w]
            moved += not same
            print(f"{size} {w} payload_digest {digest} {'ok' if same else 'MOVED'}")
    for w, counts in now["smoke_exact_counts"].items():
        same = counts == golden["smoke_exact_counts"][w]
        moved += not same
        print(f"smoke {w} exact_counts {json.dumps(counts, sort_keys=True)} "
              f"{'ok' if same else 'MOVED'}")
    if moved:
        print(f"{moved} value(s) differ from {GOLDEN.relative_to(ROOT)}; recomputed:")
        print(json.dumps(now, indent=1, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
