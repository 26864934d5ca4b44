"""Pass arithmetic and the reproducibility gate of the benchmark runner.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench")]

import run  # noqa: E402


def record(seconds, reference=1.0, kind="zeta_mc", work=10, estimate=None, ok=True):
    op = SimpleNamespace(kind=kind, work=work, reproducible=estimate is not None)
    info = {} if estimate is None else {"estimate": estimate}
    return run.Record(op, seconds, ok, info, reference)


def test_pass_ref_divides_each_op_by_its_own_reference():
    records = [record(2.0, reference=0.5), record(3.0, reference=1.5)]
    assert run._pass_wall(records) == 5.0
    assert run._pass_ref(records) == 2.0 / 0.5 + 3.0 / 1.5


def test_rate_counts_only_the_named_kind():
    records = [record(2.0, work=100), record(3.0, kind="schur", work=50), record(2.0, work=60)]
    assert run._rate(records, "zeta_mc") == 160 / 4.0
    assert run._rate(records, "exact") == 0.0


def test_estimate_that_changes_between_passes_fails_the_op():
    first = [record(1.0, estimate=[[0.5, 0.0], 1e-3]), record(1.0)]
    same = [record(1.0, estimate=[[0.5, 0.0], 1e-3]), record(1.0)]
    moved = [record(1.0, estimate=[[0.5, 1e-17], 1e-3]), record(1.0)]
    run._check_reproducible([first, same, moved])
    assert same[0].ok
    assert not moved[0].ok and moved[0].info["repro_mismatch"]
    assert moved[1].ok
