import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bisochan
from bisochan import (
    BisoChannel,
    Channel,
    ClassMismatchError,
    DegenerateParameterError,
    DimensionTooLargeError,
    NotBisoError,
    ParameterOutOfRangeError,
    bsc_degrading_map,
    canonicalize_biso,
    capacity_biso,
    channel_class,
    compose,
    dim3_channel,
    dim3_degrading_map,
    dim3_less_noisy_compare,
    doeblin_alpha,
    eta_kl_biso,
    eta_tv,
    general_binary_dominated,
    h2,
    h2_inv,
    is_degraded,
    is_less_noisy,
    make_bec,
    make_bsc,
    make_z,
    match_extremal,
    reverse_coefficients,
    verify_reverse_alpha,
    verify_reverse_beta,
)
from bisochan import checks, extremal
from bisochan.checks import (
    ALPHA_PAIR_F,
    ETA_PAIR_A,
    random_biso,
    random_dim3_equal_alpha,
    random_dim3_equal_eta,
)
from bisochan.search import bisect_threshold
from golden_oracle import verify_reverse_gamma


def _unguessed(pred, lo, hi, xtol, guess=None):
    """`bisect_threshold` with the guess dropped: the plain bisection, asking every midpoint."""
    return bisect_threshold(pred, lo, hi, xtol)


def _check10_channels():
    """The 50 channels check 10 of `paper-check` bisects."""
    channels = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "verify_reverse_alpha", lambda b: channels.append(b) or 0.0)
        mp.setattr(checks, "verify_reverse_beta", lambda b: 0.0)
        checks.check_reverse_coefficients()
    return channels


def _thresholds():
    """Thresholds in [0, 1/2]: the ends, dyadic ones, one ulp either side of midpoints the
    bisection of [0, 1/2] visits, and seeded uniform ones."""
    rng = np.random.default_rng(46)
    ts = [0.0, 0.5, 0.25, 0.125, 0.375, 0.3125, 2.0**-20, 0.5 - 2.0**-24]
    for t0 in rng.uniform(0.0, 0.5, 8):
        lo, hi = 0.0, 0.5
        for depth in range(24):
            mid = 0.5 * (lo + hi)
            if depth % 4 == 3:
                ts += [float(np.nextafter(mid, 0.0)), float(np.nextafter(mid, 1.0))]
            lo, hi = (lo, mid) if mid >= t0 else (mid, hi)
    return ts + [float(t) for t in rng.uniform(0.0, 0.5, 400)]


class TestMatchExtremal:
    def test_eta_self_match_on_bsc(self):
        m = match_extremal(make_bsc(0.2), "eta_kl")
        assert abs(m.bsc_p - 0.2) < 1e-12
        assert abs(m.bec_eps - (1 - 0.36)) < 1e-12

    def test_alpha_on_counterexample(self):
        m = match_extremal(ALPHA_PAIR_F.to_channel(), "alpha")
        assert abs(m.bsc_p - 0.24) < 1e-12
        assert abs(m.bec_eps - 0.48) < 1e-12

    def test_capacity_on_bec(self):
        m = match_extremal(make_bec(0.3), "capacity")
        assert abs(m.bec_eps - 0.3) < 1e-12
        assert abs(m.bsc_p - h2_inv(0.3)) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ParameterOutOfRangeError):
            channel_class(make_bsc(0.1), "nope")

    def test_coefficient_match_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            b = random_biso(rng, max_pairs=4)
            m_eta = match_extremal(b, "eta_kl")
            assert abs(eta_kl_biso(canonicalize_biso(make_bsc(m_eta.bsc_p))) - eta_kl_biso(b)) < 1e-9
            assert abs(eta_kl_biso(canonicalize_biso(make_bec(m_eta.bec_eps))) - eta_kl_biso(b)) < 1e-9
            m_alpha = match_extremal(b, "alpha")
            assert abs(doeblin_alpha(make_bsc(m_alpha.bsc_p)) - doeblin_alpha(b.to_channel())) < 1e-9
            assert abs(doeblin_alpha(make_bec(m_alpha.bec_eps)) - doeblin_alpha(b.to_channel())) < 1e-9
            m_cap = match_extremal(b, "capacity")
            assert abs(capacity_biso(canonicalize_biso(make_bsc(m_cap.bsc_p))) - capacity_biso(b)) < 1e-9
            assert abs(capacity_biso(canonicalize_biso(make_bec(m_cap.bec_eps))) - capacity_biso(b)) < 1e-9


class TestIndicatorMap:
    def test_bsc_below_half_gives_identity(self):
        m = bsc_degrading_map(canonicalize_biso(make_bsc(0.2)))
        np.testing.assert_allclose(m.entries, np.eye(2))

    def test_counterexample_indicators(self):
        m = bsc_degrading_map(ETA_PAIR_A)
        # flat outputs (-2, -1, +1, +2): votes (0, 1, 0, 1) for input 0
        np.testing.assert_allclose(m.entries[:, 0], [0, 1, 0, 1])
        composed = compose(ETA_PAIR_A.to_channel(), m)
        assert composed.isclose(make_bsc(0.33), atol=1e-12)

    def test_tied_pair_splits_evenly(self):
        b = BisoChannel([(0.25, 0.25), (0.4, 0.1)])
        m = bsc_degrading_map(b)
        # outputs (-2, -1, +1, +2): the tied -1 and +1 go half to each input
        np.testing.assert_array_equal(m.entries[:, 0], [0.0, 0.5, 0.5, 1.0])
        alpha = doeblin_alpha(b.to_channel())
        assert compose(b.to_channel(), m).isclose(make_bsc(alpha / 2), atol=1e-12)

    def test_composition_lands_on_matched_bsc(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            b = random_biso(rng)
            target = make_bsc(doeblin_alpha(b.to_channel()) / 2)
            assert compose(b.to_channel(), bsc_degrading_map(b)).isclose(target, atol=1e-12)

    def test_shuffled_columns_compose_onto_the_matched_bsc(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            ch = _shuffled_biso(rng)
            dmap = bsc_degrading_map(ch)
            assert dmap.shape == (ch.n_outputs, 2)
            assert compose(ch, dmap).isclose(make_bsc(doeblin_alpha(ch) / 2), atol=1e-12)
            np.testing.assert_array_equal(general_binary_dominated(ch)[1].entries, dmap.entries)
            # the same file with 2e-10 of rounding noise: a tied pair must still split
            noisy = ch.rows + rng.uniform(-1e-10, 1e-10, size=ch.rows.shape) * (ch.rows > 0.0)
            noisy = Channel(noisy / noisy.sum(axis=1, keepdims=True))
            target = make_bsc(doeblin_alpha(noisy) / 2)
            assert compose(noisy, bsc_degrading_map(noisy)).isclose(target, atol=1e-9)

    def test_untied_votes_match_the_flat_layout_rule(self):
        # +y votes for input 0 when p_y >= p_-y, -y when p_-y > p_y
        rng = np.random.default_rng(38)
        for _ in range(200):
            b = random_biso(rng)
            p, pm = b.pairs.T
            votes = np.concatenate(((pm > p)[::-1], p >= pm)).astype(float)
            assert bsc_degrading_map(b).entries[:, 0].tobytes() == votes.tobytes()

    def test_non_biso_channel_is_refused(self):
        with pytest.raises(NotBisoError):
            bsc_degrading_map(make_z(0.3))


def _shuffled_biso(rng):
    """A seeded BISO channel of 1-6 pairs, each plain, tied (p = p_-) or zero, on odd
    draws with a middle column of equal rows, its output columns shuffled."""
    l = int(rng.integers(1, 7))
    pairs = rng.uniform(0.02, 1.0, size=(l, 2))
    kind = rng.integers(0, 3, size=l)
    kind[0] = 0
    pairs[kind == 1, 1] = pairs[kind == 1, 0]
    pairs[kind == 2] = 0.0
    middle = rng.uniform(0.02, 1.0, size=int(rng.integers(0, 2)))
    rows = np.array([np.concatenate((pairs[:, 0], pairs[:, 1], middle)),
                     np.concatenate((pairs[:, 1], pairs[:, 0], middle))])
    rows /= pairs.sum() + middle.sum()
    return Channel(rows[:, rng.permutation(rows.shape[1])])


class TestDim3LessNoisy:
    def test_equal_channels_hold_both_ways(self):
        f = random_dim3_equal_eta(np.random.default_rng(33), 0.3)
        assert dim3_less_noisy_compare(f, f).holds

    def test_class_mismatch(self):
        f = random_dim3_equal_eta(np.random.default_rng(34), 0.3)
        g = random_dim3_equal_eta(np.random.default_rng(35), 0.5)
        with pytest.raises(ClassMismatchError):
            dim3_less_noisy_compare(f, g)

    def test_too_many_informative_pairs(self):
        with pytest.raises(DimensionTooLargeError):
            dim3_less_noisy_compare(ETA_PAIR_A, ETA_PAIR_A)

    def test_bec_like_dominates_bsc_of_equal_eta(self):
        eta = 0.36
        bsc = canonicalize_biso(make_bsc((1 - math.sqrt(eta)) / 2))
        bec_like = canonicalize_biso(make_bec(1 - eta))
        assert dim3_less_noisy_compare(bec_like, bsc).holds
        assert dim3_less_noisy_compare(bsc, bec_like).fails

    def test_agrees_with_grid_decision(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            eta = float(rng.uniform(0.1, 0.8))
            f = random_dim3_equal_eta(rng, eta)
            g = random_dim3_equal_eta(rng, eta)
            assert dim3_less_noisy_compare(f, g).holds == is_less_noisy(f, g).holds
            assert dim3_less_noisy_compare(g, f).holds == is_less_noisy(g, f).holds

    def test_at_least_one_direction_holds(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            eta = float(rng.uniform(0.1, 0.8))
            f = random_dim3_equal_eta(rng, eta)
            g = random_dim3_equal_eta(rng, eta)
            assert dim3_less_noisy_compare(f, g).holds or dim3_less_noisy_compare(g, f).holds


class TestDim3DegradingMap:
    def test_identical_channels_get_identity_like_map(self):
        f = BisoChannel([(0.1, 0.1), (0.5, 0.3)])
        deg = dim3_degrading_map(f, f)
        np.testing.assert_allclose(deg.map.entries[1], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(compose(deg.upper, deg.map).rows, deg.lower.rows, atol=1e-12)

    def test_worked_example_matrix(self):
        f = BisoChannel([(0.1, 0.1), (0.5, 0.3)])   # p0=0.2, p1=0.5, p-1=0.3
        g = BisoChannel([(0.2, 0.2), (0.4, 0.2)])   # q0=0.4, q1=0.4, q-1=0.2
        deg = dim3_degrading_map(f, g)
        assert not deg.swapped
        np.testing.assert_allclose(deg.map.entries[1], [0.25, 0.5, 0.25])
        np.testing.assert_allclose(compose(deg.upper, deg.map).rows, deg.lower.rows, atol=1e-12)

    def test_sign_flipped_pair(self):
        f = BisoChannel([(0.1, 0.1), (0.5, 0.3)])
        g_flipped = BisoChannel([(0.2, 0.2), (0.2, 0.4)])
        deg = dim3_degrading_map(f, g_flipped)
        np.testing.assert_allclose(deg.map.entries[0], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(compose(deg.upper, deg.map).rows, deg.lower.rows, atol=1e-12)

    def test_orientation_swap(self):
        f = BisoChannel([(0.1, 0.1), (0.5, 0.3)])
        g = BisoChannel([(0.2, 0.2), (0.4, 0.2)])
        deg = dim3_degrading_map(g, f)
        assert deg.swapped
        np.testing.assert_allclose(compose(deg.upper, deg.map).rows, deg.lower.rows, atol=1e-12)

    def test_two_output_route(self):
        deg = dim3_degrading_map(canonicalize_biso(make_bsc(0.2)), canonicalize_biso(make_bsc(0.2)))
        np.testing.assert_allclose(compose(deg.upper, deg.map).rows, deg.lower.rows, atol=1e-12)

    def test_class_mismatch(self):
        f = random_dim3_equal_alpha(np.random.default_rng(38), 0.4)
        g = random_dim3_equal_alpha(np.random.default_rng(39), 0.6)
        with pytest.raises(ClassMismatchError):
            dim3_degrading_map(f, g)

    def test_random_equal_alpha_pairs(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            alpha = float(rng.uniform(0.1, 0.9))
            f = random_dim3_equal_alpha(rng, alpha)
            g = random_dim3_equal_alpha(rng, alpha)
            deg = dim3_degrading_map(f, g)
            err = np.abs(compose(deg.upper, deg.map).rows - deg.lower.rows).max()
            assert err <= 1e-10
            np.testing.assert_allclose(deg.map.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_dim3_channel_layout(self):
        ch = dim3_channel(0.2, 0.5, 0.3)
        np.testing.assert_allclose(ch.rows, [[0.3, 0.2, 0.5], [0.5, 0.2, 0.3]])


class TestReverseCoefficients:
    def test_bsc_closed_forms(self):
        p = 0.2
        rc = reverse_coefficients(canonicalize_biso(make_bsc(p)))
        assert abs(rc.alpha_rev - 2 * p) < 1e-12
        assert abs(rc.beta_rev - 4 * p * (1 - p)) < 1e-12
        assert abs(rc.gamma_rev - (1 - h2(p))) < 1e-12

    def test_bec_closed_forms(self):
        eps = 0.35
        rc = reverse_coefficients(canonicalize_biso(make_bec(eps)))
        assert abs(rc.alpha_rev - eps) < 1e-12
        assert abs(rc.beta_rev - eps) < 1e-12
        assert abs(rc.gamma_rev - (1 - eps)) < 1e-12

    def test_counterexample_beta(self):
        rc = reverse_coefficients(ETA_PAIR_A)
        assert abs(rc.beta_rev - 0.806) < 1e-12

    def test_bisection_confirms_thresholds(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            b = random_biso(rng, max_pairs=3)
            rc = reverse_coefficients(b)
            assert abs(verify_reverse_alpha(b) - rc.alpha_rev) < 1e-6
            assert abs(verify_reverse_beta(b) - rc.beta_rev) < 1e-6

    def test_paired_bsc_equals_the_canonical_bsc(self):
        ps = np.concatenate((np.linspace(0.0, 0.5, 1001), np.random.default_rng(43).uniform(0.0, 0.5, 1000)))
        for p in ps:
            paired, canonical = BisoChannel([(p, 1.0 - p)]), canonicalize_biso(make_bsc(p))
            assert paired.pairs.tobytes() == canonical.pairs.tobytes(), p

    def test_beta_bisection_matches_the_canonical_bsc_targets(self):
        rng = np.random.default_rng(44)
        for b in [ETA_PAIR_A, ALPHA_PAIR_F] + [random_biso(rng, max_pairs=8) for _ in range(6)]:

            def dominated(p):
                return p >= 0.5 or is_less_noisy(b, canonicalize_biso(make_bsc(p))).holds

            p_star = bisect_threshold(dominated, 0.0, 0.5, 2e-7)
            assert verify_reverse_beta(b) == 4.0 * p_star * (1.0 - p_star)

    def test_unchecked_bsc_targets_bisect_as_validated_ones(self, monkeypatch):
        # `verify_reverse_beta` builds each BSC(p) target by `BisoChannel._valid`: on check 10's
        # 50 channels it bisects to the bits that validated `BisoChannel` targets give; the
        # unguessed bisection asks every midpoint, and the guessed one gives the same bits
        channels = _check10_channels()
        guessed = [verify_reverse_beta(b).hex() for b in channels]
        monkeypatch.setattr(extremal, "bisect_threshold", _unguessed)
        unchecked = [verify_reverse_beta(b).hex() for b in channels]
        built = []
        monkeypatch.setattr(BisoChannel, "_valid", staticmethod(lambda arr: built.append(arr) or BisoChannel(arr)))
        assert [verify_reverse_beta(b).hex() for b in channels] == unchecked == guessed
        assert len(channels) == 50 and len(built) > 1000

    def test_grid_confirms_gamma(self):
        b = canonicalize_biso(make_bsc(0.2))
        rc = reverse_coefficients(b)
        assert abs(verify_reverse_gamma(b) - rc.gamma_rev) < 1e-6


class TestBracketedBisection:
    XTOL = 2e-7

    def test_false_at_hi_returns_hi(self):
        calls = []
        assert bisect_threshold(lambda x: calls.append(x) or False, 0.0, 0.5, self.XTOL) == 0.5
        assert calls == [0.0, 0.5]

    def test_any_guess_gives_the_plain_bits(self):
        def inside(x):
            assert 0.0 <= x <= 0.5, x  # pred is asked only on [lo, hi]
            return x

        rng = np.random.default_rng(48)
        ts, xtol = _thresholds(), self.XTOL
        assert len(ts) == 504
        for t in ts:
            for pred in (lambda x: inside(x) >= t, lambda x: np.float64(inside(x)) >= t):  # a Python and a numpy bool
                plain = bisect_threshold(pred, 0.0, 0.5, xtol).hex()
                guesses = (t, t - 0.9 * xtol, t + 0.9 * xtol, t - 5 * xtol, t + 5 * xtol,
                           0.0, 0.5, -0.3, 0.8, float(rng.uniform(-0.1, 0.6)))
                for guess in guesses:
                    assert bisect_threshold(pred, 0.0, 0.5, xtol, guess).hex() == plain, (t, guess)

    def test_a_close_guess_asks_at_most_eight_times(self):
        xtol, worst = self.XTOL, 0
        for t in _thresholds():
            for guess in (t, t - 0.9 * xtol, t + 0.9 * xtol):
                calls = []
                bisect_threshold(lambda x: calls.append(x) or x >= t, 0.0, 0.5, xtol, guess)
                worst = max(worst, len(calls))
        assert worst <= 8

    def test_ends_at_adjacent_floats_without_a_tolerance(self):
        # in a child process, so that a bisection that never ends fails on the timeout
        code = (
            "import math\n"
            "from bisochan.search import bisect_threshold\n"
            "for xtol in (0.0, -1.0):\n"
            "    for t in (0.3, 0.0, 0.5, 0.25, 1e-300):\n"
            "        x = bisect_threshold(lambda x: x >= t, 0.0, 0.5, xtol)\n"
            "        assert abs(x - t) <= math.ulp(t), (xtol, t, x)\n"
            "        assert bisect_threshold(lambda x: x >= t, 0.0, 0.5, xtol, t).hex() == x.hex()\n"
            "print('ended')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bisochan.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout == "ended\n", proc.stderr

    def test_non_finite_guess_rejected(self):
        for guess in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(DegenerateParameterError):
                bisect_threshold(lambda x: x >= 0.3, 0.0, 0.5, self.XTOL, guess)

    def test_check_10_bisections_match_the_unguessed_path_bitwise(self, monkeypatch):
        rng = np.random.default_rng(49)
        cases = _check10_channels() + [random_biso(rng, max_pairs=6) for _ in range(300)]
        guessed = [(verify_reverse_alpha(b).hex(), verify_reverse_beta(b).hex()) for b in cases]
        monkeypatch.setattr(extremal, "bisect_threshold", _unguessed)
        assert [(verify_reverse_alpha(b).hex(), verify_reverse_beta(b).hex()) for b in cases] == guessed

    def test_check_10_makes_fewer_than_800_order_decisions(self, monkeypatch):
        calls = []

        def counting(pred, lo, hi, xtol, guess=None):
            return bisect_threshold(lambda p: calls.append(p) or pred(p), lo, hi, xtol, guess)

        monkeypatch.setattr(extremal, "bisect_threshold", counting)
        rows = checks.check_reverse_coefficients()
        assert len(calls) < 800
        assert all(computed <= tol for _, _, computed, tol in rows)


class TestGeneralBinary:
    def test_dominated_channel_preserves_doeblin_coefficient(self):
        rng = np.random.default_rng(42)
        for ch in (make_z(0.3), make_bsc(0.1)):
            target, dmap = general_binary_dominated(ch)
            assert abs(doeblin_alpha(target) - doeblin_alpha(ch)) < 1e-12
            assert compose(ch, dmap).isclose(target, atol=1e-15)
            assert is_degraded(ch, target).holds
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, size=(2, 5))
            ch = Channel(raw / raw.sum(axis=1, keepdims=True))
            target, dmap = general_binary_dominated(ch)
            assert abs(doeblin_alpha(target) - doeblin_alpha(ch)) < 1e-12
            assert abs(eta_tv(target) - eta_tv(ch)) < 1e-12
            assert is_degraded(ch, target).holds

    def test_tied_columns_split_and_keep_the_coefficients(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            r0 = rng.dirichlet(np.ones(6))
            r1 = r0.copy()
            free = rng.permutation(6)[: int(rng.integers(2, 5))]
            r1[free] = rng.dirichlet(np.ones(free.size)) * r0[free].sum()
            ch = Channel([r0, r1])
            target, dmap = general_binary_dominated(ch)
            tied = np.ones(6, dtype=bool)
            tied[free] = False
            np.testing.assert_array_equal(dmap.entries[tied], 0.5)
            assert abs(doeblin_alpha(target) - doeblin_alpha(ch)) < 1e-12
            assert abs(eta_tv(target) - eta_tv(ch)) < 1e-12
