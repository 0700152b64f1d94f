import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leostream.cli import main
from leostream.harness import (
    ConfigError,
    ResultRow,
    RunOutput,
    compare_results,
    config_from_dict,
    read_result_rows,
    run_experiment,
    write_results,
)
from leostream.traces import write_trace

from conftest import make_flat_trace


def _config_dict(**overrides):
    base = {
        "trace": {
            "generate": {
                "alpha": 1.0,
                "b_max_mbps": 8.0,
                "duration_s": 300.0,
                "n_satellites": 2,
                "min_elevation_deg": 45.0,
                "altitude_km": 250.0,
            }
        },
        "video": {"n_chunks": 10},
        "controllers": ["separate:mb", "joint:dual"],
        "repetitions": 2,
        "seed_base": 5,
    }
    base.update(overrides)
    return base


def _write_config(tmp_path, **overrides):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(**overrides)))
    return path


def test_config_requires_trace_source():
    with pytest.raises(ConfigError):
        config_from_dict({"controllers": ["joint:dual"]})


def test_config_rejects_unknown_controller():
    with pytest.raises(ConfigError):
        config_from_dict(_config_dict(controllers=["joint:psychic"]))


def test_run_produces_one_row_per_cell(tmp_path):
    exp = config_from_dict(_config_dict())
    output = run_experiment(exp)
    assert not output.failures
    assert len(output.rows) == 2 * 2  # controllers x repetitions
    for row in output.rows:
        identity = row.qoe_total - (row.quality - row.rebuf_penalty - row.smooth_penalty)
        assert abs(identity) < 1e-9
        assert row.mean_decision_ms >= 0.0


def test_offline_row_dominates_online_rows(tmp_path):
    exp = config_from_dict(
        _config_dict(controllers=["separate:mb", "joint:dual", "offline-optimal"],
                     repetitions=2)
    )
    output = run_experiment(exp)
    by_trace = {}
    for row in output.rows:
        by_trace.setdefault(row.trace_id, {})[row.controller] = row.qoe_total
    for cells in by_trace.values():
        offline = cells["offline-optimal"]
        slack = 0.02 * max(1.0, abs(offline))
        assert cells["separate:mb"] <= offline + slack
        assert cells["joint:dual"] <= offline + slack


def test_offline_rejects_multi_user_cells():
    exp = config_from_dict(
        _config_dict(controllers=["offline-optimal"], user_counts=[2], repetitions=1)
    )
    output = run_experiment(exp)
    assert output.rows == []
    assert output.failures
    assert output.exit_code == 2


def test_run_cli_end_to_end_and_determinism(tmp_path):
    cfg_path = _write_config(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "timing.csv").exists()


def test_run_cli_warns_once_per_cell_that_outlasts_its_trace(tmp_path, capsys):
    # 80 two-second chunks cannot end within a 60-s trace, whose last
    # sample then stands for the time past its end. Each cell warns once
    # on stderr with its overrun; the result files carry no trace of it.
    (tmp_path / "traces").mkdir()
    write_trace(make_flat_trace([3.0], duration_s=60.0), tmp_path / "traces" / "flat.csv")
    controllers = ["joint:dual", "offline-optimal"]
    runs = {}
    for n_chunks in (80, 10):
        cfg_path = tmp_path / f"exp{n_chunks}.json"
        cfg_path.write_text(json.dumps(_config_dict(
            trace={"load": str(tmp_path / "traces")}, video={"n_chunks": n_chunks},
            controllers=controllers, repetitions=1,
        )))
        out = tmp_path / f"out{n_chunks}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        runs[n_chunks] = out, capsys.readouterr().err.splitlines()
    out, warnings = runs[80]
    assert len(warnings) == len(controllers)
    for line, controller in zip(warnings, controllers):
        cell = (controller, "robust", 1, "flat", 5)
        match = re.fullmatch(
            rf"warning: cell {re.escape(str(cell))}: the session outlasts its trace by "
            r"(\d+\.\d{3}) s; the trace's last sample stands for the time past its end",
            line,
        )
        # The buffer holds at most 60 s, so 160 s of video ends past 100 s.
        assert match and float(match.group(1)) >= 40.0, line
    assert json.loads((out / "results.json").read_text())["failures"] == {}
    assert [row.controller for row in read_result_rows(out / "results.csv")] == controllers
    assert runs[10][1] == []


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"controllers": []}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("field, value", [
    ("horizon", 0),
    ("sim.dt_s", 0.0),
    ("sim.dt_s", -1.0),
    ("sim.dt_s", math.nan),
    ("user_counts", []),
    ("seed_base", -3),
    # json reads a bare NaN; every setting must refuse it.
    *[(f"sim.{name}", math.nan)
      for name in ("mu1", "mu2", "mu3", "rtt_s", "handoff_delay_s", "max_buffer_s")],
    ("sim.mu2", math.inf),
    ("video.ladder", [0.3, math.nan, 2.85]),
    # Unknown keys, such as a misspelling or a removed setting, are not dropped.
    ("repetiton", 5),
    ("dp_dt", 0.5),
    ("trace.lod", "traces"),
    # Not read as a truth value: "false" would turn dumping on.
    ("dump_candidates", "false"),
    ("dump_candidates", 1),
])
def test_config_rejects_bad_planner_settings(tmp_path, field, value):
    # A dotted field names a key inside a block of the config.
    data = _config_dict(controllers=["centralized"])
    block, _, name = field.rpartition(".")
    (data.setdefault(block, {}) if block else data)[name] = value
    with pytest.raises(ConfigError, match=name):
        config_from_dict(data)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name", ["alpha", "noise_mean", "b_max_mbps", "noise_std", "sample_dt", "duration_s"]
)
def test_config_rejects_nan_trace_generation_setting(tmp_path, name):
    # NaN passes a check written as `x <= 0`; it must be a config error
    # naming the field, not a run in which every cell fails.
    data = _config_dict()
    data["trace"]["generate"][name] = math.nan
    with pytest.raises(ConfigError, match=name):
        config_from_dict(data)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 1
    assert not (tmp_path / "o").exists()


def test_config_rejects_trace_generate_seed(tmp_path):
    # Each repetition's trace seed is seed_base + rep, so a generate-block
    # seed would be silently ignored.
    data = _config_dict()
    data["trace"]["generate"]["seed"] = 7
    with pytest.raises(ConfigError, match="trace.generate.seed.*seed_base or --seed"):
        config_from_dict(data)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("path, value", [
    (("video", "n_chunks"), 2.5),
    (("horizon",), 2.7),
    (("repetitions",), 1.9),
    (("seed_base",), 1.0),
    (("jobs",), True),
    (("background_users",), 0.5),
    (("trace", "generate", "n_satellites"), 2.0),
    (("user_counts",), [1, 2.5]),
])
def test_config_rejects_non_integer_setting(tmp_path, path, value):
    # A float is neither truncated nor left to fail every cell, and a bool
    # is not read as a number.
    data = _config_dict()
    block = data
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    with pytest.raises(ConfigError, match=f"{path[-1]} must be"):
        config_from_dict(data)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_harness_import_leaves_out_multiprocessing():
    # The process pool is imported only by a run with jobs > 1.
    code = "import sys, leostream.harness; print('multiprocessing' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_gen_traces_cli_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path, repetitions=3)
    out = tmp_path / "t1"
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted((out / "traces").glob("trace_rep*.csv"))
    assert len(files) == 3
    contents = [f.read_bytes() for f in files]
    assert len({c for c in contents}) == 3  # distinct seeds, distinct traces
    out2 = tmp_path / "t2"
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for f1, f2 in zip(files, sorted((out2 / "traces").glob("trace_rep*.csv"))):
        assert f1.read_bytes() == f2.read_bytes()


def test_run_from_loaded_traces(tmp_path):
    cfg_path = _write_config(tmp_path, repetitions=2)
    traces_out = tmp_path / "gen"
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(traces_out)]) == 0
    loaded = _config_dict(repetitions=2)
    loaded["trace"] = {"load": str(traces_out / "traces")}
    cfg2 = tmp_path / "exp2.json"
    cfg2.write_text(json.dumps(loaded))
    out = tmp_path / "runload"
    assert main(["run", "--config", str(cfg2), "--out", str(out)]) == 0
    rows = read_result_rows(out / "results.csv")
    assert {r.trace_id for r in rows} == {"trace_rep000", "trace_rep001"}


def _one_trace_dir(tmp_path):
    cfg_path = _write_config(tmp_path, repetitions=1)
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 0
    return tmp_path / "gen" / "traces"


def test_too_few_trace_files_is_config_error(tmp_path):
    # Without background users the seed changes nothing, so a reused file
    # would only repeat a cell under another seed label.
    loaded = _config_dict(repetitions=2)
    loaded["trace"] = {"load": str(_one_trace_dir(tmp_path))}
    with pytest.raises(ConfigError, match="fewer than repetitions"):
        run_experiment(config_from_dict(loaded))
    cfg2 = tmp_path / "exp2.json"
    cfg2.write_text(json.dumps(loaded))
    assert main(["run", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_trace_files_cycle_under_background_load(tmp_path):
    # With background users each seed draws a different load.
    loaded = _config_dict(repetitions=2, background_users=3, controllers=["separate:mb"])
    loaded["trace"] = {"load": str(_one_trace_dir(tmp_path))}
    rows = run_experiment(config_from_dict(loaded)).rows
    assert [(r.trace_id, r.seed) for r in rows] == [("trace_rep000", 5), ("trace_rep000", 6)]
    assert rows[0].qoe_total != rows[1].qoe_total


@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_trace_file_fails_only_its_cells(tmp_path, jobs):
    cfg_path = _write_config(tmp_path, repetitions=1)
    traces_dir = tmp_path / "gen" / "traces"
    assert main(["gen-traces", "--config", str(cfg_path), "--out", str(tmp_path / "gen")]) == 0
    good = traces_dir / "trace_rep000.csv"
    lines = good.read_text().splitlines()
    fields = lines[1].split(",")
    fields[lines[0].split(",").index("throughput_mbps")] = "abc"
    lines[1] = ",".join(fields)
    (traces_dir / "zz_bad.csv").write_text("\n".join(lines) + "\n")
    (traces_dir / "zz_bad.meta.json").write_bytes(good.with_suffix(".meta.json").read_bytes())
    loaded = _config_dict(repetitions=2, jobs=jobs)
    loaded["trace"] = {"load": str(traces_dir)}
    cfg2 = tmp_path / "exp2.json"
    cfg2.write_text(json.dumps(loaded))
    out = tmp_path / "runload"
    assert main(["run", "--config", str(cfg2), "--out", str(out)]) == 2
    rows = read_result_rows(out / "results.csv")
    assert {(r.controller, r.trace_id) for r in rows} == {
        ("separate:mb", "trace_rep000"), ("joint:dual", "trace_rep000"),
    }
    failures = json.loads((out / "results.json").read_text())["failures"]
    assert sorted(failures) == [
        "joint:dual / robust / 1 / zz_bad / 6", "separate:mb / robust / 1 / zz_bad / 6",
    ]
    assert all(err.startswith("TraceFormatError") for err in failures.values())


def _rows_for_compare():
    def row(controller, trace_id, qoe):
        return ResultRow(controller, "robust", 1, trace_id, 0, qoe, qoe, 0.0, 0.0, 0.0, 0.0)

    return [
        row("separate:mb", "t0", 1.0),
        row("separate:mb", "t1", 1.0),
        row("joint:dual", "t0", 1.5),
        row("joint:dual", "t1", 1.5),
    ]


def test_compare_improvement_arithmetic(tmp_path):
    out = run_out = tmp_path / "res"
    write_results(out, RunOutput(rows=_rows_for_compare(), failures={}))
    summary = compare_results([run_out / "results.csv"])
    by_controller = {s.controller: s for s in summary}
    assert by_controller["joint:dual"].improvement_over_best_separate_pct == pytest.approx(50.0)
    assert by_controller["separate:mb"].improvement_over_best_separate_pct is None


def test_compare_zero_improvement_on_identical_results(tmp_path):
    rows = _rows_for_compare()
    for row in rows:
        row.qoe_total = 1.0
    write_results(tmp_path / "res", RunOutput(rows=rows, failures={}))
    summary = compare_results([tmp_path / "res" / "results.csv"])
    joint = next(s for s in summary if s.controller == "joint:dual")
    assert joint.improvement_over_best_separate_pct == pytest.approx(0.0)


def test_compare_stable_under_row_reordering(tmp_path):
    rows = _rows_for_compare()
    write_results(tmp_path / "a", RunOutput(rows=rows, failures={}))
    write_results(tmp_path / "b", RunOutput(rows=rows[::-1], failures={}))
    s1 = compare_results([tmp_path / "a" / "results.csv"])
    s2 = compare_results([tmp_path / "b" / "results.csv"])
    assert s1 == s2


def test_compare_requires_overlapping_cells(tmp_path):
    rows = [
        ResultRow("separate:mb", "robust", 1, "t0", 0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        ResultRow("joint:dual", "robust", 1, "t1", 1, 1.5, 1.5, 0.0, 0.0, 0.0, 0.0),
    ]
    write_results(tmp_path / "res", RunOutput(rows=rows, failures={}))
    with pytest.raises(ConfigError, match="overlapping"):
        compare_results([tmp_path / "res" / "results.csv"])


def test_report_cli(tmp_path, capsys):
    write_results(tmp_path / "res", RunOutput(rows=_rows_for_compare(), failures={}))
    assert main(["report", str(tmp_path / "res" / "results.csv")]) == 0
    out = capsys.readouterr().out
    assert "joint:dual" in out and "separate:mb" in out


def test_config_out_dir_is_rejected(tmp_path, monkeypatch):
    # The output directory comes from --out, LEOSTREAM_OUT or ./results; a
    # config key naming one would be ignored.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEOSTREAM_OUT", raising=False)
    with pytest.raises(ConfigError, match="unknown config key 'out_dir'"):
        config_from_dict(_config_dict(out_dir="from_config"))
    cfg_path = _write_config(tmp_path, out_dir="from_config")
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert main(["gen-traces", "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "results").exists()
    assert not (tmp_path / "from_config").exists()


def _results_file_error(tmp_path, capsys, command, path):
    """Run report or compare on path; return its exit code and stderr."""
    args = [command, str(path)]
    if command == "compare":
        args += ["--out", str(tmp_path / "summary")]
    code = main(args)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "compare"])
def test_report_and_compare_reject_a_file_without_result_columns(tmp_path, capsys, command):
    write_results(tmp_path / "res", RunOutput(rows=_rows_for_compare(), failures={}))
    timing = tmp_path / "res" / "timing.csv"
    code, err = _results_file_error(tmp_path, capsys, command, timing)
    assert code == 1
    assert err.count("\n") == 1
    assert str(timing) in err and "'qoe_total'" in err
    with pytest.raises(ConfigError, match="qoe_total"):
        read_result_rows(timing)


@pytest.mark.parametrize("command", ["report", "compare"])
def test_report_and_compare_reject_an_unparsable_value(tmp_path, capsys, command):
    write_results(tmp_path / "res", RunOutput(rows=_rows_for_compare(), failures={}))
    path = tmp_path / "res" / "results.csv"
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[lines[0].split(",").index("qoe_total")] = "abc"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code, err = _results_file_error(tmp_path, capsys, command, path)
    assert code == 1
    assert err.count("\n") == 1
    assert str(path) in err and "line 3" in err and "'abc'" in err


def test_jobs_parallel_matches_serial(tmp_path):
    cfg_serial = config_from_dict(_config_dict())
    cfg_parallel = config_from_dict(_config_dict(jobs=2))
    rows_serial = run_experiment(cfg_serial).rows
    rows_parallel = run_experiment(cfg_parallel).rows
    assert [r.key() for r in rows_serial] == [r.key() for r in rows_parallel]
    assert [r.qoe_total for r in rows_serial] == [r.qoe_total for r in rows_parallel]


def test_cli_partial_failure_exit_code(tmp_path):
    cfg_path = _write_config(
        tmp_path, controllers=["separate:mb", "offline-optimal"], user_counts=[2],
        repetitions=1,
    )
    out = tmp_path / "partial"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    rows = read_result_rows(out / "results.csv")
    assert {r.controller for r in rows} == {"separate:mb"}


def test_out_dir_env_var(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, repetitions=1)
    monkeypatch.setenv("LEOSTREAM_OUT", str(tmp_path / "envout"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "results.csv").exists()


def test_dump_candidates_output(tmp_path):
    # Long enough session to reach the pass overlap where a handoff
    # candidate exists.
    cfg_path = _write_config(
        tmp_path, controllers=["joint:dual"], repetitions=1, video={"n_chunks": 40}
    )
    out = tmp_path / "cands"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--dump-candidates"]) == 0
    lines = (out / "candidates.csv").read_text().splitlines()
    assert lines[0].startswith("controller,")
    assert len(lines) > 1


def test_dump_candidates_warns_for_controllers_without_candidates(tmp_path, capsys):
    cfg_path = _write_config(
        tmp_path, controllers=["separate:mb", "joint:dual", "centralized"], repetitions=1
    )
    out = tmp_path / "cands"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--dump-candidates"]) == 0
    err = capsys.readouterr().err
    assert err == (
        "warning: no candidate rows for separate:mb, centralized: "
        "only joint controllers list candidates\n"
    )
    assert {row.controller for row in read_result_rows(out / "results.csv")} == {
        "separate:mb", "joint:dual", "centralized"
    }
    # Without --dump-candidates, or with joint controllers only, no warning.
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--dump-candidates",
                 "--controller", "joint:dual", "--controller", "joint:manifold"]) == 0
    assert capsys.readouterr().err == ""


def test_extended_ladder_config(tmp_path):
    cfg = config_from_dict(_config_dict(video={"n_chunks": 8, "ladder": "extended"}))
    assert cfg.video.bitrate_ladder_mbps == (0.3, 0.75, 1.2, 1.85, 2.85, 4.3)
    output = run_experiment(cfg)
    assert not output.failures
    explicit = config_from_dict(
        _config_dict(video={"n_chunks": 8, "ladder": [0.5, 1.0, 2.0]})
    )
    assert explicit.video.bitrate_ladder_mbps == (0.5, 1.0, 2.0)


def test_multiuser_result_json_shape(video, sim_cfg):
    from leostream.multiuser import MultiUserScenario, result_json, simulate_multi
    from leostream.planners import SeparateController
    from conftest import make_flat_trace

    trace = make_flat_trace([8.0], duration_s=300.0)
    scenario = MultiUserScenario(
        trace=trace,
        controllers=[SeparateController(video, sim_cfg, strategy="mb") for _ in range(2)],
    )
    result = simulate_multi(scenario, video, sim_cfg, seed=0)
    payload = result_json(result)
    assert "share_events" not in payload
    assert len(payload["users"]) == 2
    assert payload["qos"] == pytest.approx(result.qos)
    with_log = result_json(result, include_share_events=True)
    assert with_log["share_events"]
    json.dumps(with_log)  # serializable
