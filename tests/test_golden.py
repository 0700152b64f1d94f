"""golden/check.py's verdict, without running anything it recomputes."""

import copy
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_check", GOLDEN / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

RECORDED = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
SAME = {"exp results.csv": True, "exp-split candidates.csv": True}


def _now():
    return copy.deepcopy({k: v for k, v in RECORDED.items() if k != "python"})


def test_digests_hold_the_35_values_and_their_python():
    assert len(check.flatten(RECORDED)) == 35
    assert RECORDED["python"] == "3.11"
    assert check.failures(RECORDED, _now(), SAME, "3.11") == []


def test_a_moved_value_fails_only_on_the_recorded_version():
    now = _now()
    now["payload_digest"]["full"]["realtime"] = "0" * 16
    now["smoke_exact_counts"]["sweep"]["dp_states"] += 1
    assert check.failures(RECORDED, now, SAME, "3.11") == [
        "moved: payload_digest full realtime",
        "moved: smoke_exact_counts sweep",
    ]
    assert check.failures(RECORDED, now, SAME, "3.10") == []


def test_parity_and_missing_or_extra_values_fail_on_every_version():
    now = _now()
    del now["cli"]["exp jobs=2 results.csv"]
    now["realtime_qoe_bits"]["tiny"] = "0" * 16
    parity = {**SAME, "exp-split candidates.csv": False}
    for version in ("3.10", "3.11", "3.12"):
        assert check.failures(RECORDED, now, parity, version) == [
            "missing: cli exp jobs=2 results.csv",
            "extra: realtime_qoe_bits tiny",
            "--jobs 2 differs from --jobs 1: exp-split candidates.csv",
        ]
