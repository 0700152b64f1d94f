"""Run the CLI configs and compare their output digests with golden/digests.json.

The benchmark's payload digests (golden/check_digests.py) do not cover
the CLI's files, candidates.csv among them. This script writes five
configs derived from the README exp.json into the repository root and
runs `leostream run --dump-candidates` on them, eight runs in all:

- exp (jobs 1 and 2): the README config;
- exp-extended (jobs 1): the same on the 6-rung "extended" ladder, which
  reaches DP tie handling the 3-rung ladder rarely does;
- exp-centralized (jobs 1 and 2): two users with background load, which
  reach the centralized planner's handoff options;
- exp-cap8 (jobs 1): an 8 s buffer cap, which drains the buffer and hands
  off under every README controller;
- exp-split (jobs 1 and 2): a flat two-link trace on which the
  centralized planner splits its users across satellites.

Run `<cfg> jobs=<n>` writes to cli-out-<cfg>-jobs<n>/ there. The script
prints one line per file digest (results.csv, results.json,
candidates.csv) and exits 1 when any differs from the committed file;
the file with the recomputed "cli" entry is then printed to paste in.
Run it from the repository root, with leostream importable (installed,
or PYTHONPATH=src):

    python golden/check_cli_digests.py
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from leostream import traces

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "digests.json"
RUNS = (("exp", 1), ("exp", 2), ("exp-extended", 1), ("exp-centralized", 1),
        ("exp-centralized", 2), ("exp-cap8", 1), ("exp-split", 1), ("exp-split", 2))
FILES = ("results.csv", "results.json", "candidates.csv")


def write_configs() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config = re.search(r"cat > exp\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    (ROOT / "exp.json").write_text(config + "\n", encoding="utf-8")

    def variant(name: str, **changes) -> None:
        body = json.loads(config)
        body.update(changes)
        (ROOT / f"{name}.json").write_text(json.dumps(body) + "\n", encoding="utf-8")

    base = json.loads(config)
    variant("exp-extended", video={**base["video"], "ladder": "extended"})
    variant("exp-centralized", controllers=["centralized", "joint:dual"], user_counts=[2],
            background_users=5, repetitions=5)
    variant("exp-cap8", sim={**base["sim"], "max_buffer_s": 8.0})
    n = 400
    flat = traces.TraceSet(sample_dt=1.0, tracks=tuple(
        traces.SatelliteTrack(sat_id=sat, passes=(), throughput_mbps=np.full(n, rate),
                              elevation_deg=np.full(n, 90.0), visible=np.ones(n, bool))
        for sat, rate in enumerate((4.0, 3.0))))
    (ROOT / "split-traces").mkdir(exist_ok=True)
    traces.write_trace(flat, ROOT / "split-traces" / "flat-4-3.csv")
    variant("exp-split", trace={"load": "split-traces"}, controllers=["centralized", "joint:dual"],
            user_counts=[2, 3], background_users=5, repetitions=2)


def recompute() -> dict:
    write_configs()
    digests = {}
    for cfg, jobs in RUNS:
        out = f"cli-out-{cfg}-jobs{jobs}"
        subprocess.run([sys.executable, "-m", "leostream.cli", "run", "--config", f"{cfg}.json",
                        "--out", out, "--dump-candidates", "--jobs", str(jobs)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        for f in FILES:
            data = (ROOT / out / f).read_bytes()
            digests[f"{cfg} jobs={jobs} {f}"] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = recompute()
    moved = 0
    for run, digest in now.items():
        same = digest == golden["cli"].get(run)
        moved += not same
        print(f"{run} {digest} {'ok' if same else 'MOVED'}")
    if moved or len(now) != len(golden["cli"]):
        print(f"{moved} digest(s) differ from {GOLDEN.relative_to(ROOT)}; recomputed:")
        print(json.dumps({**golden, "cli": now}, indent=1, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
