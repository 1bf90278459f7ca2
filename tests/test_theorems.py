"""The built-in verification suite and its report plumbing."""

import inspect
import time

import pytest

from boolring import (
    THEOREM_CAPS,
    Report,
    SizeLimitError,
    flip_group_check,
    verify_resolution,
    verify_ti,
    verify_tii_tiii,
    verify_tiv,
    verify_tv,
)
from boolring import theorems
from boolring.theorems import Checker


class TestVerifiers:
    def test_ti(self):
        for n in range(1, THEOREM_CAPS["TI"] + 1):
            report = verify_ti(n)
            assert report.passed, report.counterexample
            assert report.name == "TI"
            assert report.n == n

    def test_tii_tiii(self):
        for n in range(1, THEOREM_CAPS["TII+TIII"] + 1):
            report = verify_tii_tiii(n)
            assert report.passed, report.counterexample
            assert report.name == "TII+TIII"

    def test_tiv(self):
        for n in range(1, THEOREM_CAPS["TIV"] + 1):
            report = verify_tiv(n)
            assert report.passed, report.counterexample

    def test_tv(self):
        for n in range(1, THEOREM_CAPS["TV"] + 1):
            report = verify_tv(n)
            assert report.passed, report.counterexample

    def test_resolution(self):
        report = verify_resolution()
        assert report.passed, report.counterexample
        assert report.name == "resolution"
        assert report.n == 3

    def test_checks_take_only_n(self):
        for check in (verify_ti, verify_tii_tiii, verify_tiv, verify_tv, flip_group_check):
            assert list(inspect.signature(check).parameters) == ["n"], check.__name__

    @pytest.mark.parametrize(
        "check,cap",
        [
            (verify_ti, THEOREM_CAPS["TI"]),
            (verify_tii_tiii, THEOREM_CAPS["TII+TIII"]),
            (verify_tiv, THEOREM_CAPS["TIV"]),
            (verify_tv, THEOREM_CAPS["TV"]),
        ],
    )
    def test_caps(self, check, cap):
        with pytest.raises(SizeLimitError):
            check(cap + 1)

    def test_deterministic_reports(self):
        for make in (
            lambda: verify_ti(3),
            lambda: verify_tii_tiii(2),
            lambda: verify_tiv(2),
            lambda: verify_tv(4),
            verify_resolution,
        ):
            first, second = make(), make()
            assert first.as_dict(with_elapsed=False) == second.as_dict(
                with_elapsed=False
            )


class TestReport:
    def test_line(self):
        report = Report("TI", 2, True, 10, 0.1234)
        assert report.line(with_elapsed=False) == "TI n=2 PASS checks=10"
        assert report.line() == "TI n=2 PASS checks=10  time=0.123s"

    def test_failure_line(self):
        report = Report("TV", 1, False, 3, 0.5, "boom")
        assert (
            report.line(with_elapsed=False)
            == "TV n=1 FAIL checks=3  counterexample: boom"
        )

    def test_as_dict(self):
        report = Report("TI", 2, True, 10, 0.1234)
        assert report.as_dict(with_elapsed=False) == {
            "name": "TI",
            "n": 2,
            "passed": True,
            "checks": 10,
        }
        assert report.as_dict()["elapsed"] == 0.1234

    def test_as_dict_failure(self):
        report = Report("TV", 1, False, 3, 0.5, "boom")
        assert report.as_dict(with_elapsed=False)["counterexample"] == "boom"


class TestChecker:
    def test_counts_and_first_failure(self):
        chk = Checker("demo", 1)
        assert chk.ok(True, "never")
        assert not chk.ok(False, "first")
        assert not chk.ok(False, "second")
        assert chk.checks == 3
        assert chk.failure == "first"

    def test_bulk(self):
        chk = Checker("demo", 1)
        chk.bulk(100, True, "never")
        assert chk.checks == 100
        chk.bulk(50, False, lambda: "bad batch")
        assert chk.checks == 150
        assert chk.failure == "bad batch"

    def test_detail_is_lazy(self):
        def explode():
            raise AssertionError("detail evaluated on success")

        chk = Checker("demo", 1)
        chk.ok(True, explode)
        chk.bulk(5, True, explode)
        assert chk.failure is None

    def test_report(self):
        chk = Checker("demo", 1)
        chk.ok(True, "fine")
        report = chk.report()
        assert report.passed
        assert report.checks == 1
        assert report.elapsed > 0

    def test_report_names_the_run_and_times_it_from_construction(self):
        chk = Checker("demo", 4)
        time.sleep(0.01)
        report = chk.report()
        assert (report.name, report.n, report.checks, report.counterexample) == ("demo", 4, 0, None)
        assert report.elapsed >= 0.01

    def test_only_checker_reads_the_clock(self):
        source = inspect.getsource(theorems)
        assert source.count("perf_counter") == inspect.getsource(Checker).count("perf_counter") > 0
