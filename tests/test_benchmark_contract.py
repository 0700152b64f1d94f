"""The benchmark in perfbench/ patches and calls leostream by name.

Tier-1 does not collect perfbench's own smoke test, so these checks keep
that contract in view: every name the tracer patches must still exist,
and every workload must still build and run its controllers through the
calls it makes, at the smoke sizes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _patched():
    return {
        (owner, attr): owner.__dict__[attr]
        for targets in spans.SPANNED.values()
        for owner, attr in targets
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_under_tracer(name, tmp_path):
    originals = _patched()
    wl = workloads.WORKLOADS[name](seed_base=5, smoke=True, out_dir=tmp_path)
    units = wl.build_inputs()
    tracer = spans.Tracer()
    # install() raises KeyError when a name it patches is gone.
    tracer.install()
    try:
        results = [wl.result(unit, wl.run(unit)) for unit in units]
    finally:
        tracer.uninstall()
    assert _patched() == originals
    assert all(res.failures == 0 and res.chunks > 0 for res in results)
    assert all(ok for res in results for _, ok, _ in res.checks)
    assert tracer.spans
