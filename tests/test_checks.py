"""`run_checks` on a pool of forked workers: the same rows as one process, and no child left."""

import multiprocessing
import os

import pytest

from bisochan import checks

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the pool forks its workers"
)


class CheckCrash(Exception):
    pass


def _fake_checks(calls, crashing=None):
    """Four checks that record the pid they run in; check `crashing` raises CheckCrash."""

    def check(i):
        def run():
            calls.append(os.getpid())
            if i == crashing:
                raise CheckCrash(f"check {i}")
            return [(f"row {i}", float(i), i + 0.5, 0.0)]

        return run

    return [(f"{i:02d}-fake", "a fake check", check(i)) for i in range(1, 5)]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _hexed(rows):
    return [(r[0], r[1], float(r[2]).hex(), float(r[3]).hex(), float(r[4]).hex(), r[5]) for r in rows]


@pytest.mark.parametrize("only", [None, "1"])
def test_pooled_rows_are_the_in_process_rows(only, monkeypatch):
    # every row, float for float and in id order, as a loop over the registry in this process
    _cpus(monkeypatch, 2)
    expected = [
        (cid, description, expected, computed, tolerance, abs(computed - expected) <= tolerance)
        for cid, _, check in checks.CHECKS
        if only is None or cid.startswith(only)
        for description, expected, computed, tolerance in check()
    ]
    rows = checks.run_checks(only)
    got = [(r.check_id, r.description, r.expected, r.computed, r.tolerance, r.passed) for r in rows]
    assert _hexed(got) == _hexed(expected)
    assert multiprocessing.active_children() == []


def test_pooled_checks_run_in_children(monkeypatch):
    calls = []
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(checks, "CHECKS", _fake_checks(calls))
    rows = checks.run_checks()
    assert [(r.check_id, r.computed, r.passed) for r in rows] == [
        (f"{i:02d}-fake", i + 0.5, False) for i in range(1, 5)
    ]
    assert calls == []  # each call was recorded in a child
    assert multiprocessing.active_children() == []


def test_a_raising_check_reaches_the_caller_and_leaves_no_child(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(checks, "CHECKS", _fake_checks([], crashing=2))
    with pytest.raises(CheckCrash, match="check 2"):
        checks.run_checks()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus,only", [(1, None), (2, "03")])
def test_one_usable_cpu_or_one_check_runs_in_process(cpus, only, monkeypatch):
    calls = []
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(checks, "CHECKS", _fake_checks(calls))
    rows = checks.run_checks(only)
    assert [r.check_id for r in rows] == (["03-fake"] if only else ["01-fake", "02-fake", "03-fake", "04-fake"])
    assert calls == [os.getpid()] * len(rows)
