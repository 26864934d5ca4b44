"""Self-time arithmetic and rebinding of the span recorder.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import spans  # noqa: E402


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_leaf_self_time_is_its_duration():
    assert spans.self_times([span("a", 10, 25)]) == [15]


def test_sequential_children_are_subtracted():
    recorded = [span("root", 0, 100), span("x", 10, 30, 0), span("y", 40, 45, 0)]
    assert spans.self_times(recorded) == [75, 20, 5]


def test_overlapping_children_count_their_union_once():
    recorded = [span("root", 0, 100), span("x", 10, 50, 0), span("y", 30, 70, 0),
                span("z", 60, 65, 0)]
    assert spans.self_times(recorded)[0] == 100 - 60


def test_children_are_clipped_to_the_parent():
    recorded = [span("root", 10, 20), span("x", 5, 15, 0), span("y", 18, 40, 0)]
    assert spans.self_times(recorded)[0] == 10 - 5 - 2


def test_grandchildren_only_reduce_their_own_parent():
    recorded = [span("root", 0, 100), span("x", 0, 60, 0), span("leaf", 10, 50, 1)]
    assert spans.self_times(recorded) == [40, 20, 40]


def test_layer_totals_sum_self_seconds_calls_and_counts():
    recorded = [
        span("bench op", 0, 10_000_000_000),
        span("verify.verify_zeta", 0, 4_000_000_000, 0),
        span("fock.harmonic_hwv", 1_000_000_000, 2_000_000_000, 1),
        span("fock.harmonic_hwv", 2_000_000_000, 2_500_000_000, 1),
    ]
    totals = spans.layer_totals(recorded, {"exact.QQi.__mul__": 7, "group.haar_matrices": 3})
    assert totals["verify.self_s"] == 2.5
    assert totals["fock.hwv_s"] == 1.5
    assert totals["fock.hwv.spans"] == 2
    assert totals["fock.harmonic_hwv.calls"] == 2
    assert totals["exact.QQi.__mul__.calls"] == 7
    assert totals["group.haar_matrices"] == 3
    assert "bench op.calls" not in totals


def test_coverage_reports_home_targets_never_called():
    totals = {f"{t.name}.calls": 1 for t in spans.TARGETS}
    assert spans.coverage_gaps(totals, "exact-quad") == []
    del totals["fock.harmonic_hwv.calls"]
    assert spans.coverage_gaps(totals, "exact-quad") == ["fock.harmonic_hwv"]


def test_install_rebinds_every_lookup_site_and_uninstall_restores():
    from arczeta import cli, exact, fock, verify, weights

    originals = (weights.classify_theta, cli.classify_theta, verify.classify_theta,
                 exact.QQi.__dict__["__rmul__"], fock.MatrixCoefficient.__dict__["evaluate"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert weights.classify_theta is cli.classify_theta is verify.classify_theta
        assert weights.classify_theta is not originals[0]
        assert exact.QQi.__dict__["__mul__"] is exact.QQi.__dict__["__rmul__"]
        lam = weights.HCParameter.parse("3/2,1/2")
        cli.classify_theta(lam)
        exact.QQi(1, 2) * exact.QQi(3)
    finally:
        tracer.uninstall()
    assert (weights.classify_theta, cli.classify_theta, verify.classify_theta,
            exact.QQi.__dict__["__rmul__"],
            fock.MatrixCoefficient.__dict__["evaluate"]) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["weights.classify_theta"]
    assert tracer.counts["exact.QQi.__mul__"] >= 1
