"""Batch experiment driver: trace generation, controller runs, comparisons.

A run covers every (controller x trace x user-count) cell of the
experiment config and emits one result row per cell. Payload files
(results.csv / results.json) are byte-deterministic for a given config;
wall-clock decision latencies go to a separate timing.csv so they never
perturb the payload.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import simcore
from .multiuser import (
    CENTRALIZED_USER_CAP,
    CentralizedCoordinator,
    MultiUserScenario,
    simulate_multi,
)
from .planners import JointMpcController, SeparateController, offline_optimal
from .simcore import (
    DEFAULT_LADDER_MBPS,
    EXTENDED_LADDER_MBPS,
    QoEBreakdown,
    SimConfig,
    VideoSpec,
)
from .traces import TraceGenConfig, TraceSet, gen_trace_set, read_trace, write_trace

# Never called here: every cell runs through simulate_multi. The name stays
# because the benchmark's tracer (perfbench/spans.py) patches it.
run_session = simcore.run_session

SEPARATE_CONTROLLERS = ("separate:mvt", "separate:mrss", "separate:mb")
JOINT_CONTROLLERS = ("joint:dual", "joint:manifold")
ALL_CONTROLLERS = SEPARATE_CONTROLLERS + JOINT_CONTROLLERS + (
    "centralized",
    "offline-optimal",
)

# A result row's cell key, then its payload values. The result files,
# ResultRow.key() and read_result_rows take their columns from these.
KEY_COLUMNS = ("controller", "predictor", "n_users", "trace_id", "seed")
RESULT_COLUMNS = KEY_COLUMNS + (
    "qoe_total",
    "quality",
    "rebuf_penalty",
    "smooth_penalty",
    "handoff_count",
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    trace_generate: TraceGenConfig | None = None
    trace_load: str | None = None
    video: VideoSpec = field(default_factory=VideoSpec)
    sim: SimConfig = field(default_factory=SimConfig)
    controllers: tuple[str, ...] = ("separate:mb", "joint:dual")
    predictor: str = "robust"
    user_counts: tuple[int, ...] = (1,)
    background_users: int = 0
    repetitions: int = 1
    seed_base: int = 0
    horizon: int = 5
    jobs: int = 1
    dump_candidates: bool = False

    def __post_init__(self):
        if self.trace_generate is None and self.trace_load is None:
            raise ConfigError("config needs a trace source: generate or load")
        if not self.controllers:
            raise ConfigError("config needs at least one controller")
        for name in self.controllers:
            if name not in ALL_CONTROLLERS:
                raise ConfigError(
                    f"unknown controller {name!r}; choose from {ALL_CONTROLLERS}"
                )
        if self.predictor not in ("robust", "oracle"):
            raise ConfigError("predictor must be robust or oracle")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not self.user_counts or any(u < 1 for u in self.user_counts):
            raise ConfigError("user_counts must list at least one count, each >= 1")
        if self.seed_base < 0:
            raise ConfigError("seed_base must be >= 0")
        if self.background_users < 0:
            raise ConfigError("background_users must be >= 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")


def _parse_ladder(value) -> tuple[float, ...]:
    if value == "default":
        return DEFAULT_LADDER_MBPS
    if value == "extended":
        return EXTENDED_LADDER_MBPS
    return tuple(float(v) for v in value)


# Keys a config file may hold: one per ExperimentConfig field, with the
# trace source in a trace block. The video, sim and generate blocks are
# checked by their dataclasses.
TRACE_KEYS = ("generate", "load")
CONFIG_KEYS = ("trace",) + tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if not f.name.startswith("trace_")
)


def _reject_unknown(block, known: tuple[str, ...], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}; choose from {known}")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_non_integer(block, keys: tuple[str, ...], where: str) -> None:
    """Integer settings must be JSON integers: a float is not truncated and
    a bool is not read as 0 or 1."""
    if not isinstance(block, dict):
        return  # the block's own check reports it
    for key in keys:
        if key in block and not _is_integer(block[key]):
            raise ConfigError(f"{where}{key} must be an integer, got {block[key]!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON config file."""
    _reject_unknown(data, CONFIG_KEYS, "config")
    trace = data.get("trace", {})
    _reject_unknown(trace, TRACE_KEYS, "trace")
    _reject_non_integer(
        data, ("horizon", "repetitions", "seed_base", "jobs", "background_users"), ""
    )
    _reject_non_integer(data.get("video"), ("n_chunks",), "video.")
    generate = trace.get("generate")
    _reject_non_integer(generate, ("n_satellites",), "trace.generate.")
    if isinstance(generate, dict) and "seed" in generate:
        raise ConfigError(
            "trace.generate.seed is not used: each repetition's trace seed is "
            "seed_base + repetition; set seed_base or --seed instead"
        )
    user_counts = data.get("user_counts", [])
    if not isinstance(user_counts, list | tuple) or not all(map(_is_integer, user_counts)):
        raise ConfigError(f"user_counts must be a list of integers, got {user_counts!r}")
    if not isinstance(data.get("dump_candidates", False), bool):
        raise ConfigError(
            f"dump_candidates must be true or false, got {data['dump_candidates']!r}"
        )
    # Only the keys the file sets: ExperimentConfig holds the defaults.
    settings = {k: v for k, v in data.items() if k not in ("trace", "video", "sim")}
    try:
        for key in ("controllers", "user_counts"):
            if key in settings:
                settings[key] = tuple(settings[key])
        if "generate" in trace:
            settings["trace_generate"] = TraceGenConfig(**trace["generate"])
        if "load" in trace:
            settings["trace_load"] = trace["load"]
        video_data = dict(data.get("video", {}))
        if "ladder" in video_data:
            video_data["bitrate_ladder_mbps"] = _parse_ladder(video_data.pop("ladder"))
        return ExperimentConfig(
            video=VideoSpec(**video_data), sim=SimConfig(**data.get("sim", {})), **settings
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


@dataclass
class ResultRow:
    controller: str
    predictor: str
    n_users: int
    trace_id: str
    seed: int
    qoe_total: float
    quality: float
    rebuf_penalty: float
    smooth_penalty: float
    handoff_count: float
    mean_decision_ms: float

    def key(self) -> tuple:
        return tuple(getattr(self, c) for c in KEY_COLUMNS)

    def values(self, columns=RESULT_COLUMNS) -> list:
        return [getattr(self, c) for c in columns]


def build_controller(
    name: str,
    video: VideoSpec,
    sim: SimConfig,
    predictor: str,
    horizon: int,
    dump_candidates: bool = False,
):
    kind, _, variant = name.partition(":")
    if kind == "separate":
        return SeparateController(
            video, sim, strategy=variant, predictor=predictor, horizon=horizon
        )
    if kind == "joint":
        return JointMpcController(
            video,
            sim,
            mode=variant,
            predictor=predictor,
            horizon=horizon,
            dump_candidates=dump_candidates,
        )
    raise ConfigError(f"cannot build controller {name!r}")


def _trace_sources(exp: ExperimentConfig) -> list[tuple[str, int, functools.partial]]:
    """Per repetition: trace id, seed, and the call that makes the trace.
    The id needs no trace, so a cell whose trace fails to load still has
    its key.

    Loaded files are cycled over the repetitions. The seed draws only the
    background load, so without background users a reused file would
    repeat a cell under another seed label; that is a config error.
    """
    seeds = range(exp.seed_base, exp.seed_base + exp.repetitions)
    if exp.trace_generate is not None:
        configs = [dataclasses.replace(exp.trace_generate, seed=seed) for seed in seeds]
        return [(f"gen{c.seed}", c.seed, functools.partial(gen_trace_set, c)) for c in configs]
    load = Path(exp.trace_load)
    paths = sorted(load.glob("*.csv")) if load.is_dir() else [load]
    if not paths or not paths[0].is_file():
        raise ConfigError(f"no trace CSVs at {exp.trace_load}")
    if exp.background_users == 0 and len(paths) < exp.repetitions:
        raise ConfigError(
            f"{exp.trace_load} holds {len(paths)} trace CSVs, fewer than repetitions "
            f"({exp.repetitions}); without background users a reused file repeats a cell"
        )
    return [
        (path.stem, seed, functools.partial(read_trace, path))
        for path, seed in zip(itertools.cycle(paths), seeds)
    ]


def _breakdown_means(breakdowns: list[QoEBreakdown]) -> tuple[float, ...]:
    """Per-user means in RESULT_COLUMNS order, qoe_total to handoff_count."""
    n = len(breakdowns)
    qoe = sum(b.qoe_total for b in breakdowns) / n
    quality = sum(b.quality_total for b in breakdowns) / n
    rebuf = sum(b.rebuf_penalty_total for b in breakdowns) / n
    smooth = sum(b.smooth_penalty_total for b in breakdowns) / n
    handoffs = sum(float(b.handoff_count) for b in breakdowns) / n
    return qoe, quality, rebuf, smooth, handoffs


def run_cell(
    exp: ExperimentConfig,
    trace: TraceSet,
    trace_id: str,
    seed: int,
    controller_name: str,
    n_users: int,
) -> tuple[ResultRow, list[tuple]]:
    """Execute one experiment cell; returns its row and any per-candidate
    (chunk, satellite, handoff point, qoe) debug rows."""
    video, sim = exp.video, exp.sim

    if controller_name == "offline-optimal":
        if n_users != 1 or exp.background_users != 0:
            raise ConfigError(
                "offline-optimal supports exactly 1 user and no background load"
            )
        t0 = _time.perf_counter()
        breakdown = offline_optimal(trace, video, sim)
        mean_ms = 1000.0 * (_time.perf_counter() - t0) / video.n_chunks
        return ResultRow(
            controller_name, exp.predictor, n_users, trace_id, seed,
            *_breakdown_means([breakdown]), mean_ms,
        ), []

    if controller_name == "centralized":
        if n_users > CENTRALIZED_USER_CAP:
            raise ConfigError(
                f"centralized controller capped at {CENTRALIZED_USER_CAP} users"
            )
        coordinator = CentralizedCoordinator(video, sim, exp.predictor, exp.horizon)
        controllers = [coordinator] * n_users
    else:
        controllers = [
            build_controller(
                controller_name, video, sim, exp.predictor, exp.horizon,
                exp.dump_candidates,
            )
            for _ in range(n_users)
        ]

    scenario = MultiUserScenario(
        trace=trace, controllers=controllers, n_background=exp.background_users
    )
    result = simulate_multi(scenario, video, sim, seed=seed)
    if result.failures:
        raise RuntimeError(f"user failures: {result.failures}")
    latencies = [lat for per_user in result.decision_latencies_s for lat in per_user]
    mean_ms = 1000.0 * sum(latencies) / len(latencies) if latencies else 0.0
    candidate_rows = []
    if exp.dump_candidates:
        for uid, ctrl in enumerate(controllers):
            for chunk, sat, h, qoe_val in getattr(ctrl, "candidate_rows", []):
                candidate_rows.append((uid, chunk, sat, h, qoe_val))
    return ResultRow(
        controller_name, exp.predictor, n_users, trace_id, seed,
        *_breakdown_means(result.per_user), mean_ms,
    ), candidate_rows


def _run_cell_task(args):
    exp, (trace_id, seed, make_trace), controller_name, n_users = args
    key = (controller_name, exp.predictor, n_users, trace_id, seed)
    try:
        trace = make_trace()
        row, candidates = run_cell(exp, trace, trace_id, seed, controller_name, n_users)
        return key, row, candidates, None
    except Exception as exc:
        return key, None, [], f"{type(exc).__name__}: {exc}"


@dataclass
class RunOutput:
    rows: list[ResultRow]
    failures: dict[tuple, str]
    candidate_rows: list[tuple] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 2 if self.failures else 0


def run_experiment(exp: ExperimentConfig) -> RunOutput:
    """Run every (controller x trace x user-count) cell."""
    tasks = [
        (exp, source, controller, n_users)
        for source in _trace_sources(exp)
        for controller in exp.controllers
        for n_users in exp.user_counts
    ]
    results = []
    if exp.jobs > 1:
        # Imported here: multiprocessing and its imports would otherwise
        # load into every process that imports the harness.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=exp.jobs) as pool:
            results = list(pool.map(_run_cell_task, tasks))
    else:
        results = [_run_cell_task(task) for task in tasks]

    rows = [row for _, row, _, err in results if err is None]
    failures = {key: err for key, _, _, err in results if err is not None}
    rows.sort(key=lambda r: r.key())
    candidate_rows = [
        key + cand
        for key, _, cands, err in sorted(results, key=lambda item: item[0])
        if err is None
        for cand in cands
    ]
    return RunOutput(rows=rows, failures=failures, candidate_rows=candidate_rows)


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_results(out_dir: str | Path, output: RunOutput) -> dict[str, Path]:
    """Emit results.csv / results.json (payload) and timing.csv (wall clock)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "results.csv"
    _write_csv(csv_path, RESULT_COLUMNS, (row.values() for row in output.rows))

    json_path = out / "results.json"
    payload = {
        "rows": [dict(zip(RESULT_COLUMNS, row.values())) for row in output.rows],
        "failures": {" / ".join(map(str, k)): v for k, v in output.failures.items()},
    }
    json_path.write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )

    timing_path = out / "timing.csv"
    _write_csv(timing_path, KEY_COLUMNS + ("mean_decision_ms",), (
        row.values(KEY_COLUMNS) + [f"{row.mean_decision_ms:.6f}"] for row in output.rows
    ))

    paths = {"csv": csv_path, "json": json_path, "timing": timing_path}
    if output.candidate_rows:
        cand_path = out / "candidates.csv"
        _write_csv(cand_path, KEY_COLUMNS + (
            "user", "chunk_index", "satellite", "handoff_point", "best_qoe"
        ), output.candidate_rows)
        paths["candidates"] = cand_path
    return paths


def gen_traces(exp: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Write one trace file per repetition; deterministic per seed."""
    if exp.trace_generate is None:
        raise ConfigError("gen-traces needs a generate block in the config")
    out = Path(out_dir) / "traces"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rep, (_, _, make_trace) in enumerate(_trace_sources(exp)):
        path = out / f"trace_rep{rep:03d}.csv"
        write_trace(make_trace(), path)
        paths.append(path)
    return paths


def read_result_rows(path: str | Path) -> list[ResultRow]:
    """The rows of a results.csv; a missing column or bad value is a ConfigError."""
    parse = {"controller": str, "predictor": str, "n_users": int, "trace_id": str, "seed": int}
    with Path(path).open(encoding="utf-8") as f:
        reader = csv.DictReader(f)
        missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path} is not a results file: no {missing[0]!r} column")
        rows = []
        for rec in reader:
            try:
                values = [parse.get(c, float)(rec[c]) for c in RESULT_COLUMNS]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
            rows.append(ResultRow(*values, mean_decision_ms=0.0))
        return rows


@dataclass
class SummaryRow:
    n_users: int
    controller: str
    n_cells: int
    mean_qoe: float
    median_qoe: float
    p10_qoe: float
    p90_qoe: float
    improvement_over_best_separate_pct: float | None


def compare_results(paths: list[str | Path]) -> list[SummaryRow]:
    """Aggregate result files and score joint controllers against the best
    separate baseline per user count."""
    rows: list[ResultRow] = []
    for path in paths:
        rows.extend(read_result_rows(path))
    if not rows:
        raise ConfigError("no result rows to compare")

    cells: dict[tuple, set[str]] = {}
    for row in rows:
        cells.setdefault((row.n_users, row.trace_id, row.seed), set()).add(row.controller)
    if not any(len(ctrls) >= 2 for ctrls in cells.values()):
        raise ConfigError("no overlapping cells between controllers")

    rows.sort(key=lambda r: r.key())
    grouped: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        grouped.setdefault((row.n_users, row.controller), []).append(row.qoe_total)

    means = {key: float(np.mean(v)) for key, v in grouped.items()}
    summary = []
    for (n_users, controller), values in sorted(grouped.items()):
        arr = np.array(values)
        improvement = None
        if controller in JOINT_CONTROLLERS:
            separate = [
                means[(n_users, c)]
                for c in SEPARATE_CONTROLLERS
                if (n_users, c) in means
            ]
            if separate:
                best = max(separate)
                if best != 0:
                    improvement = 100.0 * (means[(n_users, controller)] - best) / abs(best)
        summary.append(
            SummaryRow(
                n_users=n_users,
                controller=controller,
                n_cells=len(values),
                mean_qoe=float(arr.mean()),
                median_qoe=float(np.median(arr)),
                p10_qoe=float(np.percentile(arr, 10)),
                p90_qoe=float(np.percentile(arr, 90)),
                improvement_over_best_separate_pct=improvement,
            )
        )
    return summary


def write_summary(out_dir: str | Path, summary: list[SummaryRow]) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.csv"
    _write_csv(path, [f.name for f in dataclasses.fields(SummaryRow)],
               map(dataclasses.astuple, summary))
    return path


def format_report(rows: list[ResultRow]) -> str:
    """Human-readable mean-QoE table grouped by user count and controller."""
    grouped: dict[tuple[int, str], list[ResultRow]] = {}
    for row in rows:
        grouped.setdefault((row.n_users, row.controller), []).append(row)
    lines = [
        f"{'users':>5}  {'controller':<16} {'cells':>5} {'mean qoe':>10} "
        f"{'quality':>9} {'rebuf':>8} {'smooth':>8} {'handoffs':>8}"
    ]
    for (n_users, controller), cell_rows in sorted(grouped.items()):
        qoe = np.mean([r.qoe_total for r in cell_rows])
        quality = np.mean([r.quality for r in cell_rows])
        rebuf = np.mean([r.rebuf_penalty for r in cell_rows])
        smooth = np.mean([r.smooth_penalty for r in cell_rows])
        handoffs = np.mean([r.handoff_count for r in cell_rows])
        lines.append(
            f"{n_users:>5}  {controller:<16} {len(cell_rows):>5} {qoe:>10.4f} "
            f"{quality:>9.4f} {rebuf:>8.4f} {smooth:>8.4f} {handoffs:>8.2f}"
        )
    return "\n".join(lines)
