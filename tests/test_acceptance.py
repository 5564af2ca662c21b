"""Acceptance suite: replays every reference-result check at its stated tolerance.

Each criterion prints one line per verified claim.  Two reference values are
mathematically irreproducible as stated; their assertions are kept exactly
as specified and marked as expected failures rather than loosened:

* the guessing probability of the first equal-alpha channel at bias 0.29 is
  exactly 0.77455, while the reference prints the three-digit rounding 0.775
  with a 5e-6 tolerance;
* the mutual-information difference of the capacity-matched Z/BSC pair is
  claimed non-positive but peaks near +0.08: the matched channels are
  more-capable incomparable.
"""

import pytest

from bisochan import OrderVerdict, checks

CRITERIA = checks.check_ids()

KNOWN_IMPOSSIBLE = {
    "08-degradability-counterexample": {"guessing probability of F at bias 0.29"},
    "11-z-channel": {"max MI difference of capacity-matched Z vs BSC"},
}


def _format_row(row):
    status = "PASS" if row.passed else "FAIL"
    return (
        f"{status} {row.check_id}: {row.description} "
        f"(expected {row.expected!r} +- {row.tolerance!r}, computed {row.computed!r})"
    )


@pytest.mark.parametrize("cid,title", CRITERIA, ids=[cid for cid, _ in CRITERIA])
def test_criterion(cid, title):
    rows = checks.run_checks(only=cid)
    assert rows, f"criterion {cid} produced no checks"
    assert all(row.check_id == cid for row in rows)
    excluded = KNOWN_IMPOSSIBLE.get(cid, set())
    failures = []
    for row in rows:
        print(_format_row(row))
        if row.description in excluded:
            continue
        if not row.passed:
            failures.append(_format_row(row))
    assert not failures, "\n".join(failures)


@pytest.mark.xfail(
    strict=True,
    reason="exact arithmetic gives 0.77455; the reference value 0.775 is a "
    "three-digit rounding and cannot match within 5e-6",
)
def test_criterion_08_guessing_value_at_bias_029_as_stated():
    rows = [
        r
        for r in checks.run_checks(only="08")
        if r.description == "guessing probability of F at bias 0.29"
    ]
    assert rows and all(r.passed for r in rows)


@pytest.mark.xfail(
    strict=True,
    reason="capacity-matched Z and BSC are more-capable incomparable: the "
    "mutual-information difference changes sign and peaks near +0.08, so it "
    "is not bounded by 1e-9",
)
def test_criterion_11_capacity_matched_mi_difference_as_stated():
    rows = [
        r
        for r in checks.run_checks(only="11")
        if r.description == "max MI difference of capacity-matched Z vs BSC"
    ]
    assert rows and all(r.passed for r in rows)


def _check12_decisions(degraded=None, more_capable=None):
    """Check 12's rows, the pairs it decides each order on, and its less-noisy relations;
    `degraded` or `more_capable` replaces that order's decision."""
    keys = lambda a, b: (a.rows.tobytes(), b.rows.tobytes())
    seen = {"ln": [], "deg": [], "mc": []}
    ln, deg, mc = checks.is_less_noisy, checks.is_degraded, checks.is_more_capable

    def less_noisy(p, q):
        verdict = ln(p, q)
        seen["ln"].append((keys(p.to_channel(), q.to_channel()), verdict.relation))
        return verdict

    def is_degraded(a, b, witness=True):
        seen["deg"].append(keys(a, b))
        return degraded or deg(a, b, witness=witness)

    def is_more_capable(a, b):
        seen["mc"].append(keys(a, b))
        return more_capable or mc(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "is_less_noisy", less_noisy)
        mp.setattr(checks, "is_degraded", is_degraded)
        mp.setattr(checks, "is_more_capable", is_more_capable)
        rows = [computed for _, _, computed, _ in checks.check_order_hierarchy()]
    return rows, seen


def test_check_12_decides_each_order_where_a_row_counts_it():
    # row 1 counts degradable pairs that fail less-noisy, row 2 less-noisy pairs that fail
    # more-capable: each order is decided on exactly those pairs, and on its own
    rows, seen = _check12_decisions()
    assert rows == [0.0, 0.0] and len(seen["ln"]) == 500
    assert seen["deg"] == [key for key, relation in seen["ln"] if relation == "fails"]
    assert seen["mc"] == [key for key, relation in seen["ln"] if relation == "holds"]
    assert (len(seen["deg"]), len(seen["mc"])) == (133, 367)


def test_check_12_rows_test_every_pair_they_count():
    # an order that always fails more-capable, or always degrades, shows in every pair its row counts
    assert _check12_decisions(more_capable=OrderVerdict("fails"))[0] == [0.0, 367.0]
    assert _check12_decisions(degraded=OrderVerdict("holds"))[0] == [133.0, 0.0]
