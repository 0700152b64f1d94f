"""The proof of a pure refactor: recompute every golden value and compare
it with golden/digests.json.

The values, 35 in all:

- the benchmark's seed-3 payload digest of every workload at full and
  smoke size, and its traced exact_counts of every workload at smoke
  size, from perfbench/run.py;
- a digest of the float.hex of every realtime session's per-chunk QoE
  terms at full and smoke size, from the benchmark's own realtime
  sessions: the realtime payload trims floats to 9 significant digits
  (session_json), so a QoE term can move by a few ulps and keep its
  payload digest;
- the digest of each file (results.csv, results.json, candidates.csv)
  of eight `leostream run --dump-candidates` runs on the README exp.json
  and four variants of it:
  - exp (jobs 1 and 2): the README config;
  - exp-extended (jobs 1): the 6-rung "extended" ladder, which reaches
    DP tie handling the 3-rung ladder rarely does;
  - exp-centralized (jobs 1 and 2): two users with background load,
    which reach the centralized planner's handoff options;
  - exp-cap8 (jobs 1): an 8 s buffer cap, which drains the buffer and
    hands off under every README controller;
  - exp-split (jobs 1 and 2): a flat two-link trace on which the
    centralized planner splits its users across satellites.

A dumped joint decision also checks that its floored step chose the
option that solving each option in full chooses, and fails its cell
otherwise, so such a run exits nonzero and so does this script. The
script also checks that --jobs 2 writes the files --jobs 1 writes, byte
for byte, for exp, exp-centralized and exp-split.

digests.json records the Python version its values were taken with. A
value that moved fails the run only on that version; a missing or extra
value, or a --jobs 2 file that differs, fails it on every version. The
script first prints each module's line count, then one line per value,
and exits 1 on a failure, after printing the recomputed file to paste in
when values moved on purpose. Configs, the split trace and the CLI
outputs go to golden/out/, the benchmark's own files to .perfbench_out/.
Run it from anywhere; it imports leostream from this checkout's src/:

    python golden/check.py
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "digests.json"
OUT = ROOT / "golden" / "out"
WORKLOADS = ("sweep", "contention", "realtime")
RUNS = (("exp", 1), ("exp", 2), ("exp-extended", 1), ("exp-centralized", 1),
        ("exp-centralized", 2), ("exp-cap8", 1), ("exp-split", 1), ("exp-split", 2))
FILES = ("results.csv", "results.json", "candidates.csv")
# Each section of digests.json, and how many levels of names lead to a value.
DEPTHS = {"payload_digest": 2, "smoke_exact_counts": 1, "realtime_qoe_bits": 1, "cli": 1}
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def flatten(values: dict) -> dict:
    """{name: value} for every value of a digests.json layout, each named
    by its section and keys, such as "payload_digest full sweep"."""
    flat = {}
    for section, depth in DEPTHS.items():
        level = {section: values.get(section, {})}
        for _ in range(depth):
            level = {f"{name} {key}": v for name, d in level.items() for key, v in d.items()}
        flat.update(level)
    return flat


def failures(golden: dict, now: dict, parity: dict, version: str) -> list[str]:
    """Why the check fails, one line each; none when it passes.

    golden is digests.json, now the recomputed values in its layout,
    parity tells for each --jobs 2 file whether it has the bytes of its
    --jobs 1 file, and version is the running Python's major.minor. A
    moved value counts only when version is the one golden records; a
    missing or extra value and a --jobs 2 file that differs count on
    every version.
    """
    want, got = flatten(golden), flatten(now)
    lines = [f"missing: {name}" for name in sorted(want.keys() - got.keys())]
    lines += [f"extra: {name}" for name in sorted(got.keys() - want.keys())]
    lines += [f"--jobs 2 differs from --jobs 1: {name}" for name, same in parity.items()
              if not same]
    if version == golden["python"]:
        lines += [f"moved: {name}" for name in sorted(want.keys() & got.keys())
                  if want[name] != got[name]]
    return lines


def details(workload: str, *flags: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", *flags]
    out = subprocess.run(cmd, cwd=ROOT, env=ENV, check=True, capture_output=True,
                         text=True).stdout
    line = next(line for line in out.splitlines() if line.startswith("details "))
    return json.loads(line[len("details "):])


def realtime_qoe_bits(smoke: bool) -> str:
    """Digest of the float.hex of every realtime session's per-chunk QoE terms."""
    from workloads import Realtime

    workload = Realtime(3, smoke, ROOT / ".perfbench_out")
    h = hashlib.sha256()
    for unit in workload.build_inputs():
        for oc in workload.run(unit).breakdown.per_chunk:
            terms = (oc.qoe_quality, oc.qoe_rebuf_penalty, oc.qoe_smooth_penalty)
            h.update((" ".join(x.hex() for x in terms) + "\n").encode())
    return h.hexdigest()[:16]


def write_configs() -> None:
    """The README exp.json, its four variants and the split trace, in OUT."""
    import numpy as np

    from leostream import traces

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config = re.search(r"cat > exp\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    (OUT / "exp.json").write_text(config + "\n", encoding="utf-8")

    def variant(name: str, **changes) -> None:
        body = json.loads(config)
        body.update(changes)
        (OUT / f"{name}.json").write_text(json.dumps(body) + "\n", encoding="utf-8")

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
    (OUT / "split-traces").mkdir()
    traces.write_trace(flat, OUT / "split-traces" / "flat-4-3.csv")
    variant("exp-split", trace={"load": "split-traces"}, controllers=["centralized", "joint:dual"],
            user_counts=[2, 3], background_users=5, repetitions=2)


def cli_runs() -> tuple[dict, dict]:
    """Each CLI file's digest, and for each --jobs 2 file whether it has
    the bytes of its --jobs 1 file."""
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    write_configs()
    digests, parity = {}, {}
    for cfg, jobs in RUNS:
        out = f"cli-out-{cfg}-jobs{jobs}"
        subprocess.run([sys.executable, "-m", "leostream.cli", "run", "--config", f"{cfg}.json",
                        "--out", out, "--dump-candidates", "--jobs", str(jobs)],
                       cwd=OUT, env=ENV, check=True, stdout=subprocess.DEVNULL)
        for f in FILES:
            data = (OUT / out / f).read_bytes()
            digests[f"{cfg} jobs={jobs} {f}"] = hashlib.sha256(data).hexdigest()
            if jobs == 2:
                parity[f"{cfg} {f}"] = data == (OUT / f"cli-out-{cfg}-jobs1" / f).read_bytes()
    return digests, parity


def recompute() -> tuple[dict, dict]:
    sizes = (("full", ()), ("smoke", ("--smoke",)))
    digests = {
        size: {w: details(w, "--trace", "0", *flags)["payload_digest"] for w in WORKLOADS}
        for size, flags in sizes
    }
    counts = {w: details(w, "--trace", "1", "--smoke")["exact_counts"] for w in WORKLOADS}
    bits = {size: realtime_qoe_bits(bool(flags)) for size, flags in sizes}
    cli, parity = cli_runs()
    return {"cli": cli, "payload_digest": digests, "realtime_qoe_bits": bits,
            "smoke_exact_counts": counts}, parity


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    modules = sorted((ROOT / "src" / "leostream").glob("*.py"))
    sizes = [path.read_bytes().count(b"\n") for path in modules]
    for path, size in zip(modules, sizes):
        print(f"{size:>6} {path.relative_to(ROOT)}")
    print(f"{sum(sizes):>6} total")

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    now, parity = recompute()
    want = flatten(golden)
    for name, value in flatten(now).items():
        shown = json.dumps(value, sort_keys=True) if isinstance(value, dict) else value
        print(f"{name} {shown} {'ok' if want.get(name) == value else 'MOVED'}")
    for name, same in parity.items():
        print(f"--jobs 2 vs --jobs 1 {name} {'same' if same else 'DIFFERS'}")
    failed = failures(golden, now, parity, version)
    if not failed:
        return 0
    print(*failed, sep="\n")
    if any(line.startswith("moved: ") for line in failed):
        print(f"recomputed {GOLDEN.relative_to(ROOT)} (Python {version}):")
        print(json.dumps({**now, "python": version}, indent=1, sort_keys=True))
    return 1


if __name__ == "__main__":
    sys.exit(main())
