"""End-to-end metrics from the worker's per-pass records."""

import math

import run


def _record(op, pass_, seconds, status="ok"):
    return [op, pass_, 12, seconds, status, None if status == "ok" else "x"]


def test_op_times_are_means_over_the_passes():
    records = [_record(0, 0, 0.1), _record(1, 0, 0.4), _record(0, 1, 0.3), _record(1, 1, 0.2)]
    mean, failed = run.op_times(records)
    assert mean == {0: 0.2, 1: 0.30000000000000004} and failed == set()


def test_an_op_failing_in_any_pass_is_failed():
    records = [_record(0, 0, 0.1), _record(0, 1, 0.1, "error"), _record(1, 0, 0.2), _record(1, 1, 0.2)]
    _, failed = run.op_times(records)
    assert failed == {0}


def test_end_to_end_from_records():
    records = [_record(op, p, (op + 1) / 100) for p in range(3) for op in range(20)]
    m = run.end_to_end({"records": records, "wall_s": 10.0, "maxrss_kb": 2048}, [0.5, 0.7, 0.6])
    assert math.isclose(m["ops_per_s"], 20 / sum((op + 1) / 100 for op in range(20)))
    assert math.isclose(m["op_p50_ms"], 100) and math.isclose(m["op_p90_ms"], 180)
    assert m["peak_rss_mb"] == 2 and m["setup_s"] == 0.6


def test_failed_ops_rank_above_every_completed_op():
    records = [_record(op, 0, 0.01, "error" if op >= 18 else "ok") for op in range(20)]
    m = run.end_to_end({"records": records, "wall_s": 5.0, "maxrss_kb": 1024}, [1.0])
    assert m["op_p90_ms"] == 10 and math.isclose(m["ops_per_s"], 18 / 0.2)
    records = [_record(op, 0, 0.01, "error" if op >= 17 else "ok") for op in range(20)]
    assert run.end_to_end({"records": records, "wall_s": 5.0, "maxrss_kb": 1024}, [1.0])["op_p90_ms"] == 5000
