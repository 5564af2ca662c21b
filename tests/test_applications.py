import math
import time

import numpy as np
import pytest

from bisochan import (
    LeakageOutOfRangeError,
    canonicalize_biso,
    capacity_biso,
    chi2_generator,
    eta_kl_biso,
    f_divergence,
    BisoChannel,
    f_divergence_output_bounds,
    fi_curve_bounds,
    fi_upper_bound,
    h2,
    h2_inv,
    kl_generator,
    make_bec,
    make_bsc,
    make_z,
    maximal_leakage,
    secrecy_capacity_vs_bec,
    secrecy_capacity_vs_bsc,
    tv_generator,
)
from bisochan import applications
from bisochan.checks import random_biso


def _fi_curve_oracle(w, t):
    """The per-budget scalar formula the array path replaced: (lower, upper) at one float t."""
    eta = eta_kl_biso(w)
    p_eta = (1.0 - math.sqrt(eta)) / 2.0
    a, b = p_eta, h2_inv(max(1.0 - t, 0.0))
    lower = 1.0 - h2(a * (1.0 - b) + (1.0 - a) * b)
    return float(lower), eta * min(t, 1.0)


def _budget_curve_channels():
    """200 seeded BISO channels: 1-8 random pairs, some with zero entries, and the extremes."""
    rng = np.random.default_rng(56)
    chans = [
        canonicalize_biso(make_bsc(0.0)),  # noiseless
        canonicalize_biso(make_bsc(0.5)),  # eta = 0
        canonicalize_biso(make_bec(1.0)),  # eta = 0, erasure only
        canonicalize_biso(make_bsc(0.11)),
        canonicalize_biso(make_bec(0.3)),
        BisoChannel([[0.5, 0.0], [0.0, 0.5]]),
    ]
    while len(chans) < 200:
        raw = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 9)), 2))
        raw[rng.random(raw.shape) < 0.2] = 0.0
        if raw.sum() > 0.0:
            chans.append(BisoChannel(raw / raw.sum()))
    return chans


_BUDGETS = np.concatenate(
    [
        np.linspace(0.0, 1.3, 131),
        [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0 - 1e-12, 1.0 + 1e-12],
        [1e-300, 2.0, 7.5],
    ]
)


class TestSecrecyCapacities:
    def test_vs_bec_spot_value(self):
        w = canonicalize_biso(make_bsc(0.25))
        expected = 0.25 - (1 - h2(0.25))
        assert abs(expected - 0.06127812445913283) < 1e-15
        assert abs(secrecy_capacity_vs_bec(w) - expected) < 1e-12

    def test_vs_bsc_spot_value(self):
        w = canonicalize_biso(make_bec(0.5))
        expected = -0.5 + h2((1 - math.sqrt(0.5)) / 2)
        assert abs(expected - 0.10087603669285616) < 1e-15
        assert abs(secrecy_capacity_vs_bsc(w) - expected) < 1e-12

    def test_matched_channel_gives_zero(self):
        assert abs(secrecy_capacity_vs_bsc(canonicalize_biso(make_bsc(0.3)))) < 1e-12
        assert abs(secrecy_capacity_vs_bec(canonicalize_biso(make_bec(0.4)))) < 1e-12

    def test_noiseless_channel_gives_zero(self):
        w = canonicalize_biso(make_bsc(0.0))
        assert abs(secrecy_capacity_vs_bec(w)) < 1e-12
        assert abs(secrecy_capacity_vs_bsc(w)) < 1e-12

    def test_cross_extreme_regression(self):
        # both matched extremes evaluated at contraction coefficient 1/2
        a = secrecy_capacity_vs_bsc(canonicalize_biso(make_bec(0.5)))
        b = secrecy_capacity_vs_bec(canonicalize_biso(make_bsc((1 - math.sqrt(0.5)) / 2)))
        assert abs((a + b) - 0.20175207338571222) < 1e-12

    def test_definitional_consistency(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            w = random_biso(rng)
            assert abs(secrecy_capacity_vs_bec(w) + capacity_biso(w) - eta_kl_biso(w)) < 1e-12

    def test_nonnegative_for_biso(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            w = random_biso(rng)
            assert secrecy_capacity_vs_bec(w) >= -1e-9
            assert secrecy_capacity_vs_bsc(w) >= -1e-9


class TestFDivergenceBounds:
    def test_tv_lower_bound_is_tight(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            w = random_biso(rng)
            flat = w.to_channel()
            leak = maximal_leakage(flat)
            bounds = f_divergence_output_bounds(tv_generator(), leak)
            el = math.exp(leak)
            assert abs(bounds.lower - (el - 1)) < 1e-12
            assert abs(bounds.upper - (el - 1)) < 1e-12
            rows_tv = f_divergence(tv_generator(), flat.rows[0], flat.rows[1])
            assert abs(rows_tv - bounds.lower) < 1e-12

    def test_vanishing_leakage_limit(self):
        bounds = f_divergence_output_bounds(tv_generator(), 1e-12)
        assert bounds.lower < 1e-10 and bounds.upper < 1e-10

    def test_chi2_sandwich(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            w = random_biso(rng)
            flat = w.to_channel()
            bounds = f_divergence_output_bounds(chi2_generator(), maximal_leakage(flat))
            rows_chi2 = f_divergence(chi2_generator(), flat.rows[0], flat.rows[1])
            assert bounds.lower <= rows_chi2 + 1e-9
            assert bounds.upper_unbounded

    def test_kl_upper_is_unbounded(self):
        bounds = f_divergence_output_bounds(kl_generator(), 0.3)
        assert bounds.upper_unbounded
        assert math.isinf(bounds.upper)

    def test_leakage_out_of_range(self):
        for leak in (0.0, math.log(2.0), 1.0):
            with pytest.raises(LeakageOutOfRangeError):
                f_divergence_output_bounds(tv_generator(), leak)


class TestFICurveBounds:
    def test_zero_budget(self):
        w = canonicalize_biso(make_bsc(0.25))
        pt = fi_curve_bounds(w, 0.0)
        assert abs(pt.lower) < 1e-12
        assert abs(pt.upper) < 1e-12

    def test_saturated_budget(self):
        w = canonicalize_biso(make_bsc(0.25))
        eta = 0.25
        for t in (1.0, 1.5, 3.0):
            pt = fi_curve_bounds(w, t)
            assert abs(pt.lower - (1 - h2(0.25))) < 1e-10
            assert abs(pt.upper - eta) < 1e-12
        assert 1 - h2(0.25) <= eta

    def test_ordering_and_monotonicity(self):
        rng = np.random.default_rng(55)
        ts = np.linspace(0.0, 2.0, 41)
        for _ in range(20):
            w = random_biso(rng)
            pts = [fi_curve_bounds(w, t) for t in ts]
            lows = np.array([p.lower for p in pts])
            ups = np.array([p.upper for p in pts])
            assert np.all(lows >= -1e-12)
            assert np.all(lows <= ups + 1e-9)
            assert np.all(np.diff(lows) >= -1e-12)
            assert np.all(np.diff(ups) >= -1e-12)

    def test_upper_bound_for_general_channels(self):
        z = make_z(0.4)
        for t in (0.3, 0.9, 2.0):
            assert abs(fi_upper_bound(z, t) - 0.6 * min(t, 1.0)) < 1e-9

    def test_upper_bound_rejects_non_channels(self):
        with pytest.raises(TypeError):
            fi_upper_bound([[0.9, 0.1], [0.1, 0.9]], 0.5)

    def test_upper_bound_rejects_nan_and_negative_budgets(self):
        for t in (math.nan, -0.5):
            with pytest.raises(LeakageOutOfRangeError):
                fi_upper_bound(make_z(0.4), t)

    def test_negative_budget_rejected(self):
        with pytest.raises(LeakageOutOfRangeError):
            fi_curve_bounds(canonicalize_biso(make_bsc(0.2)), -0.5)

    def test_nan_budget_rejected(self):
        w = canonicalize_biso(make_bsc(0.2))
        for t in (math.nan, np.array([0.5, math.nan]), np.array([0.5, -1e-300])):
            with pytest.raises(LeakageOutOfRangeError):
                fi_curve_bounds(w, t)

    def test_array_matches_scalar_oracle(self):
        for w in _budget_curve_channels():
            pts = fi_curve_bounds(w, _BUDGETS)
            oracle = np.array([_fi_curve_oracle(w, float(t)) for t in _BUDGETS])
            assert np.array_equal(pts.t, _BUDGETS)
            assert np.array_equal(pts.upper, oracle[:, 1])
            assert np.abs(pts.lower - oracle[:, 0]).max() <= 1e-15

    def test_scalar_budget_returns_oracle_floats(self):
        for w in _budget_curve_channels()[:40]:
            for t in _BUDGETS[::7]:
                pt = fi_curve_bounds(w, float(t))
                assert type(pt.t) is float and type(pt.lower) is float and type(pt.upper) is float
                lower, upper = _fi_curve_oracle(w, float(t))
                assert pt.upper == upper
                assert abs(pt.lower - lower) <= 1e-15

    def test_equality_and_hash(self):
        w = canonicalize_biso(make_bsc(0.25))
        assert fi_curve_bounds(w, 0.5) == fi_curve_bounds(w, 0.5)
        assert hash(fi_curve_bounds(w, 0.5)) == hash(fi_curve_bounds(w, 0.5))
        pts = fi_curve_bounds(w, np.array([0.2, 0.5]))
        with pytest.raises(ValueError):
            pts == fi_curve_bounds(w, np.array([0.2, 0.5]))
        with pytest.raises(TypeError):
            hash(pts)

    def test_array_keeps_shape(self):
        w = canonicalize_biso(make_bsc(0.25))
        pts = fi_curve_bounds(w, np.linspace(0.0, 1.2, 12).reshape(3, 4))
        assert pts.lower.shape == pts.upper.shape == (3, 4)
        assert fi_curve_bounds(w, np.array([])).lower.shape == (0,)

    def test_residual_memo_keys_on_the_budgets_values(self):
        # a caller that changes its budgets in place gets the new values' bounds
        w = canonicalize_biso(make_bsc(0.11))
        ts = np.linspace(0.0, 1.2, 50)
        first = fi_curve_bounds(w, ts)
        lower = first.lower.copy()
        ts *= 0.5
        again = fi_curve_bounds(w, ts)
        assert again.t is ts and not np.array_equal(again.lower, lower)
        applications._residual.cache_clear()
        fresh = fi_curve_bounds(w, ts.copy())
        assert again.lower.tobytes() == fresh.lower.tobytes()
        assert again.upper.tobytes() == fresh.upper.tobytes()

    def test_memoized_residual_is_read_only_and_the_bounds_are_not(self):
        w = canonicalize_biso(make_bsc(0.11))
        ts = np.linspace(0.0, 1.2, 9)
        residual = applications._residual(ts.tobytes(), ts.shape)
        with pytest.raises(ValueError):
            residual[0] = 0.25
        pts = fi_curve_bounds(w, ts)
        pts.lower[:] = pts.upper[:] = -1.0  # fresh arrays: the next call does not see this
        assert fi_curve_bounds(w, ts).lower.min() >= 0.0

    def test_repeat_calls_are_the_cleared_memo_bits(self):
        applications._residual.cache_clear()
        chans = _budget_curve_channels()[:20]
        cold = [fi_curve_bounds(w, _BUDGETS) for w in chans]
        assert applications._residual.cache_info().hits == len(chans) - 1
        for w, pts in zip(chans, cold):
            applications._residual.cache_clear()
            fresh = fi_curve_bounds(w, _BUDGETS.copy())
            assert pts.lower.view(np.int64).tolist() == fresh.lower.view(np.int64).tolist()
            assert pts.upper.tobytes() == fresh.upper.tobytes()

    def test_memo_false_neither_reads_nor_fills_the_memo(self):
        w = canonicalize_biso(make_bsc(0.11))
        applications._residual.cache_clear()
        kept = fi_curve_bounds(w, _BUDGETS)
        unkept = [fi_curve_bounds(w, ts, memo=False) for ts in (_BUDGETS, _BUDGETS * 0.5)]
        assert applications._residual.cache_info()[:] == (0, 1, 4, 1)  # hits, misses, maxsize, currsize
        assert unkept[0].lower.tobytes() == kept.lower.tobytes()
        assert unkept[0].upper.tobytes() == kept.upper.tobytes()

    def test_long_curve_is_fast(self):
        w = random_biso(np.random.default_rng(57))
        ts = np.linspace(0.0, 1.2, 10_000)
        fi_curve_bounds(w, ts[:10])
        start = time.perf_counter()
        fi_curve_bounds(w, ts)
        assert time.perf_counter() - start < 0.1
