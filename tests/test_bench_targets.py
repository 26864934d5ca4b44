"""Every library function the traced benchmark wraps still exists and is
still called.

``perfbench/spans.py`` rebinds its ``TARGETS`` by name during a traced run
(``python3 perfbench/run.py --trace 1``); a renamed or deleted target makes
that run crash, and a target its home workload never calls makes the run
report it "not called" and fail.  These tests load ``perfbench/spans.py``
and ``perfbench/workloads.py`` by path and change nothing under
``perfbench/``.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
TARGETS = spans.TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_target_resolves_in_arczeta(target):
    module = importlib.import_module(f"arczeta.{target.module}")
    owner_name, _, attr = target.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert owner is not None, f"arczeta.{target.module} has no {owner_name}"
        assert callable(vars(owner).get(attr)), f"{target.name} is not in the class __dict__"
    else:
        assert callable(getattr(module, attr, None)), f"{target.name} is not a module attribute"


@pytest.mark.parametrize("name", ["mc-sampling", "coef-setup", "exact-quad"])
def test_traced_pass_covers_every_home_target(name, tmp_path):
    # one traced pass of the workload, as the benchmark's --trace 1 runs it:
    # every op's gate passes and every target homed here is called
    workloads = _load("workloads")
    wl = workloads.build(name, 5, tmp_path)
    tracer = spans.Tracer()
    failed = []
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.warm_up(wl, tmp_path)
        tracer.install()
        try:
            for idx, op in enumerate(wl.ops):
                with tracer.op_span(op.name, idx):
                    result = op.run()
                ok, info = op.check(result)
                if not ok:
                    failed.append((op.name, info))
        finally:
            tracer.uninstall()
    assert failed == []
    assert spans.coverage_gaps(spans.layer_totals(tracer.spans, tracer.counts), name) == []
