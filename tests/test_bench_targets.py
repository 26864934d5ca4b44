"""Every library function the traced benchmark wraps still exists.

``perfbench/spans.py`` rebinds its ``TARGETS`` by name during a traced run
(``python3 perfbench/run.py --trace 1``); a renamed or deleted target makes
that run crash.  This test reads the target list and changes nothing under
``perfbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


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
