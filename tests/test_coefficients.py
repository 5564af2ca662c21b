import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisochan import (
    BisoChannel,
    Channel,
    InfiniteDivergenceError,
    ParameterOutOfRangeError,
    alpha_max,
    canonicalize_biso,
    capacity_binary,
    capacity_binary_argmax,
    capacity_biso,
    chi2_generator,
    coefficient_report,
    compose,
    doeblin_alpha,
    eta_kl_binary,
    eta_kl_binary_argmax,
    eta_kl_biso,
    eta_tv,
    f_divergence,
    h2,
    h2_inv,
    kl_generator,
    make_bec,
    make_bsc,
    make_z,
    match_extremal,
    maximal_leakage,
    tv_generator,
)
from bisochan import coefficients
from bisochan.channels import parse_channel
from bisochan.checks import random_binary_channel, random_biso
from bisochan.coefficients import (
    _rho_and_slope,
    capacity,
    mutual_information_grid,
)
from bisochan.search import newton_max
import golden_oracle
from golden_oracle import golden_section_max

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestEntropy:
    def test_h2_endpoints(self):
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0
        assert h2(0.5) == 1.0

    def test_h2_spot(self):
        assert abs(h2(0.11) - 0.499915958164528) < 1e-14

    def test_h2_inv_spot(self):
        assert abs(h2_inv(0.5) - 0.11002786443835955) < 1e-12
        assert h2_inv(0.0) == 0.0
        assert h2_inv(1.0) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            h2(1.2)
        with pytest.raises(ParameterOutOfRangeError):
            h2_inv(-0.1)

    @given(units)
    def test_h2_inv_roundtrip(self, h):
        assert abs(h2(h2_inv(h)) - h) <= 1e-12

    def test_h2_inv_grid_is_the_masked_one_bitwise(self):
        # only 0 < h < 1 is halved, with h2 of each midpoint in (0, 1/2] formed unmasked
        rng = np.random.default_rng(25)
        edges = [0.0, 1.0, 1.0 - 2.0**-53, 5e-324, -0.0, 0.5, np.nextafter(1.0, 0.0) / 2, 1e-300]
        seeded = np.concatenate((edges, rng.uniform(size=2000), rng.uniform(size=200) ** 40))
        budgets = [np.linspace(0.0, 2.0, 81), np.linspace(0.0, 1.2, 999), np.linspace(0.0, 1.2, 10_000)]
        for h in [seeded, seeded.reshape(3, -1), np.array(0.3), *(np.maximum(1.0 - t, 0.0) for t in budgets)]:
            new, old = coefficients._h2_inv_grid(h), golden_oracle.masked_h2_inv_grid(h)
            assert new.shape == old.shape
            assert np.array_equal(new.view(np.int64), old.view(np.int64))


class TestContraction:
    def test_bsc_closed_form(self):
        for p in np.linspace(0, 1, 21):
            assert abs(eta_kl_biso(canonicalize_biso(make_bsc(p))) - (1 - 2 * p) ** 2) < 1e-14

    def test_counterexample_pairs(self):
        a = BisoChannel([(0.32, 0.48), (0.19, 0.01)])
        t = 17 / 997
        b = BisoChannel([(0.0, t), (0.7, 0.3 - t)])
        assert abs(eta_kl_biso(a) - 0.194) < 1e-12
        assert abs(eta_kl_biso(b) - 0.194) < 1e-12

    def test_zero_pair_contributes_nothing(self):
        assert eta_kl_biso(BisoChannel([(0.5, 0.5), (0.0, 0.0)])) == 0.0

    def test_optimizer_on_bsc(self):
        eta, qstar = eta_kl_binary_argmax(make_bsc(0.2))
        assert abs(eta - 0.36) < 1e-9
        assert abs(qstar - 0.5) < 1e-6

    def test_optimizer_on_z(self):
        for q in (0.2, 0.5, 0.8):
            assert abs(eta_kl_binary(make_z(q)) - (1 - q)) < 1e-9

    def test_optimizer_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = random_biso(rng)
            assert abs(eta_kl_binary(b.to_channel()) - eta_kl_biso(b)) < 1e-9

    def test_unoptimized_objective_never_exceeds_closed_form(self):
        rng = np.random.default_rng(4)
        qs = np.linspace(0.0001, 0.9999, 10_000)
        for _ in range(5):
            b = random_biso(rng)
            vals = _rho_and_slope(b.to_channel().rows, qs)[0]
            eta = eta_kl_biso(b)
            assert vals.max() <= eta + 1e-12
            assert abs(vals[np.abs(qs - 0.5).argmin()] - eta) < 1e-6

    def test_tv_sandwich_property(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            b = random_biso(rng)
            tv = eta_tv(b)
            eta = eta_kl_biso(b)
            assert tv**2 - 1e-9 <= eta <= tv + 1e-9


class TestDoeblin:
    def test_spot_values(self):
        assert abs(eta_tv(make_bsc(0.2)) - 0.6) < 1e-15
        assert abs(eta_tv(make_bec(0.3)) - 0.7) < 1e-15
        assert eta_tv(Channel([[0.5, 0.5], [0.5, 0.5]])) == 0.0
        assert abs(doeblin_alpha(BisoChannel([(0.05, 0.345), (0.19, 0.415)])) - 0.48) < 1e-15
        assert abs(doeblin_alpha(BisoChannel([(0.221, 0.515), (0.019, 0.245)])) - 0.48) < 1e-15

    def test_observation_chain(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ch = random_binary_channel(rng)
            tv = eta_tv(ch)
            assert abs(tv - (1 - doeblin_alpha(ch))) < 1e-12
            assert abs(tv - (alpha_max(ch) - 1)) < 1e-12
            assert abs(tv - math.expm1(maximal_leakage(ch))) < 1e-12

    def test_leakage_units(self):
        rep = coefficient_report(make_bsc(0.1))
        assert abs(rep.maximal_leakage - math.log(1.8)) < 1e-15
        assert abs(rep.maximal_leakage_bits - math.log2(1.8)) < 1e-15


class TestCapacity:
    def test_bsc(self):
        assert abs(capacity_biso(canonicalize_biso(make_bsc(0.25))) - (1 - h2(0.25))) < 1e-14
        assert abs(capacity_binary(make_bsc(0.25)) - (1 - h2(0.25))) < 1e-12

    def test_bec(self):
        assert abs(capacity_biso(canonicalize_biso(make_bec(0.3))) - 0.7) < 1e-14

    def test_constant_channel(self):
        assert capacity_binary(Channel([[1.0], [1.0]])) == 0.0

    def test_z_closed_form(self):
        for q in (0.2, 0.5, 0.8):
            closed = math.log2(1 + 2 ** (-h2(q) / (1 - q)))
            assert abs(capacity_binary(make_z(q)) - closed) < 1e-10

    def test_biso_maximizer_is_uniform(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = random_biso(rng)
            cap, pstar = capacity_binary_argmax(b.to_channel())
            assert abs(pstar - 0.5) < 1e-6
            assert abs(cap - capacity_biso(b)) < 1e-9


class TestMutualInformation:
    def test_bsc_formula(self):
        for x in (0.1, 0.37, 0.8):
            expected = h2(x * 0.8 + (1 - x) * 0.2) - h2(0.2)
            assert abs(mutual_information_grid(make_bsc(0.2), [x])[0] - expected) < 1e-13

    def test_z_formula(self):
        q = 0.35
        for x in (0.2, 0.5, 0.9):
            expected = h2(x + (1 - x) * q) - (1 - x) * h2(q)
            assert abs(mutual_information_grid(make_z(q), [x])[0] - expected) < 1e-13

    def test_degenerate_inputs(self):
        for x in (0.0, 1.0):
            assert mutual_information_grid(make_bsc(0.3), [x])[0] == 0.0

    def test_grid_matches_the_replaced_kernel_bitwise(self):
        rng = np.random.default_rng(41)
        grid = np.concatenate((np.arange(1, 1000) / 1000.0, [0.0, 1.0]))
        chans = [make_bsc(0.0), make_bsc(0.5), make_z(0.3), make_bec(1.0), Channel([[1.0], [1.0]])]
        for i in range(600):  # 1..12 outputs, a third of the entries zero
            n = 1 + i % 12
            raw = rng.uniform(0.0, 1.0, size=(2, n)) ** 3
            raw[rng.uniform(size=(2, n)) < 0.3] = 0.0
            raw[:, i % n] += 0.05
            chans.append(_normalized(raw))
        assert sum(ch.n_outputs >= 8 for ch in chans) >= 200
        for ch in chans:
            for ps in (grid, rng.uniform(size=3), np.array([rng.uniform()])):
                new, old = mutual_information_grid(ch, ps), _old_mutual_information_grid(ch, ps)
                assert new.shape == old.shape and new.tobytes() == old.tobytes(), ch

    def test_slope_flag_leaves_the_information_bitwise(self):
        rng = np.random.default_rng(43)
        xs = np.concatenate(([0.0, 1.0], rng.uniform(size=50)))
        for ch in (make_bsc(0.2), make_z(0.3), make_bec(0.4), random_binary_channel(rng, 12)):
            mi, slope = coefficients._mutual_information_and_slope(ch, xs)
            bare, none = coefficients._mutual_information_and_slope(ch, xs, slope=False)
            assert none is None and bare.tobytes() == mi.tobytes()
            assert mutual_information_grid(ch, xs).tobytes() == mi.tobytes()

    def test_slope_matches_central_differences(self):
        rng = np.random.default_rng(42)
        xs = np.linspace(0.01, 0.99, 99)
        for ch in (make_bsc(0.2), make_z(0.3), make_bec(0.4), random_binary_channel(rng, 12)):
            slope = coefficients._mutual_information_and_slope(ch, xs)[1]
            h = 1e-6
            fd = (mutual_information_grid(ch, xs + h) - mutual_information_grid(ch, xs - h)) / (2.0 * h)
            assert np.allclose(slope, fd, rtol=1e-6, atol=1e-6), ch

    def test_rows_that_need_not_sum_to_one(self):
        # netted columns: I sums the concave term of each column, so it scales with the
        # columns and vanishes at both ends, and its slope carries -sum(r0 - r1) / ln 2
        rng = np.random.default_rng(44)
        xs = np.linspace(0.01, 0.99, 99)
        for n in (1, 3, 7):
            rows = rng.uniform(0.0, 0.3, size=(2, n))
            mi, slope = coefficients._mutual_information_and_slope(rows, xs)
            assert abs(rows[0].sum() - rows[1].sum()) > 1e-3
            h = 1e-6
            up, down = (coefficients._mutual_information_and_slope(rows, xs + e, slope=False)[0] for e in (h, -h))
            assert np.allclose(slope, (up - down) / (2.0 * h), rtol=1e-6, atol=1e-8)
            twice = coefficients._mutual_information_and_slope(2.0 * rows, xs)
            assert np.allclose(twice[0], 2.0 * mi, rtol=1e-12, atol=1e-15)
            assert np.allclose(twice[1], 2.0 * slope, rtol=1e-12, atol=1e-15)
            ends = coefficients._mutual_information_and_slope(rows, np.array([0.0, 1.0]), slope=False)[0]
            assert np.all(np.abs(ends) <= 1e-15)

    def test_positive_path_matches_the_masked_kernel_bitwise(self):
        # with no zero output mass the kernel takes log2 without a mask, with the masked kernel's
        # bits; entries of 5e-324 to 1e-300 make x r0 + (1 - x) r1 underflow to 0 although every
        # entry is positive, so the guard reads the output masses; exact zeros keep the mask
        rng = np.random.default_rng(46)
        xs = np.concatenate(([0.0, 1.0, 0.5], np.arange(1, 1000) / 1000.0, rng.uniform(size=50)))
        underflows = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(300):
                rows = rng.uniform(size=(2, int(rng.integers(1, 24)))) ** 3
                if i % 3 == 1:
                    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
                elif i % 3 == 2:
                    tiny = rng.uniform(size=rows.shape) < 0.5
                    rows[tiny] = 10.0 ** rng.uniform(-323.3, -300.0, size=int(tiny.sum()))
                    rows[:, 0] = 5e-324
                    underflows += rows.all() and not (xs[:, None] * rows[0] + (1.0 - xs[:, None]) * rows[1]).all()
                assert coefficients._entropy_bits(rows).tobytes() == golden_oracle.masked_entropy_bits(rows).tobytes()
                for ps in [xs] + [xs[j : j + 1] for j in rng.integers(xs.size, size=8)]:
                    new = coefficients._mutual_information_and_slope(rows, ps)
                    old = golden_oracle.masked_mi_and_slope(rows, ps)
                    assert all(n.tobytes() == o.tobytes() for n, o in zip(new, old)), rows
        assert underflows == 100

    def test_tuple_of_arrays_gives_each_arrays_bits(self):
        # one call on (P's, Q's) columns forms out and its log once over both; each I, and the
        # last array's I', has the bits of a call on that array alone, with zeros, underflowing
        # entries or no columns on either side
        rng = np.random.default_rng(47)
        xs = np.concatenate(([0.0, 1.0], np.arange(1, 1000) / 1000.0))
        for i in range(200):
            arrays = []
            for n in rng.integers(0, 12, size=2):
                rows = rng.uniform(size=(2, int(n))) ** 3
                if i % 3 == 1:
                    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
                elif i % 3 == 2:
                    rows[rng.uniform(size=rows.shape) < 0.5] = 1e-310
                arrays.append(rows)
            for ps in (xs, xs[rng.integers(xs.size, size=1)]):
                (mi_p, mi_q), slope = coefficients._mutual_information_and_slope(tuple(arrays), ps)
                (p_mi, _), (q_mi, q_slope) = (coefficients._mutual_information_and_slope(a, ps) for a in arrays)
                assert mi_p.tobytes() == p_mi.tobytes() and mi_q.tobytes() == q_mi.tobytes(), arrays
                assert slope.tobytes() == q_slope.tobytes(), arrays

    def test_slope_is_infinite_where_an_output_has_zero_mass(self):
        ends = np.array([0.0, 1.0])
        assert coefficients._mutual_information_and_slope(make_bec(0.4), ends)[1].tolist() == [np.inf, -np.inf]
        z_slope = coefficients._mutual_information_and_slope(make_z(0.3), ends)[1]
        assert np.isfinite(z_slope[0]) and z_slope[1] == -np.inf
        assert np.all(np.isfinite(coefficients._mutual_information_and_slope(make_bsc(0.2), ends)[1]))


def _old_mutual_information_grid(channel, ps):
    """`mutual_information_grid` as it was: H(Y) and both row entropies from
    three `_entropy_bits` calls."""
    rows = channel.rows
    p = np.asarray(ps, dtype=float)[:, None]
    out = p * rows[0][None, :] + (1.0 - p) * rows[1][None, :]
    hy = coefficients._entropy_bits(out)
    hyx = p[:, 0] * coefficients._entropy_bits(rows[0]) + (1.0 - p[:, 0]) * coefficients._entropy_bits(rows[1])
    return np.maximum(hy - hyx, 0.0)


class TestDataProcessing:
    def test_coefficients_shrink_under_degradation(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            ch = random_binary_channel(rng, max_outputs=6)
            post = rng.dirichlet(np.ones(rng.integers(2, 5)), size=ch.n_outputs)
            degraded = compose(ch, post)
            assert eta_tv(degraded) <= eta_tv(ch) + 1e-9
            assert alpha_max(degraded) <= alpha_max(ch) + 1e-9
            assert doeblin_alpha(degraded) >= doeblin_alpha(ch) - 1e-9
            assert eta_kl_binary(degraded) <= eta_kl_binary(ch) + 1e-9
            assert capacity_binary(degraded) <= capacity_binary(ch) + 1e-9


class TestFDivergence:
    def test_self_divergence_vanishes(self):
        p = np.array([0.2, 0.3, 0.5])
        for gen in (tv_generator(), chi2_generator(), kl_generator()):
            assert f_divergence(gen, p, p) == 0.0

    def test_chi2_on_bernoullis(self):
        p, q = 0.3, 0.45
        expected = (p - q) ** 2 / (q * (1 - q))
        got = f_divergence(chi2_generator(), [p, 1 - p], [q, 1 - q])
        assert abs(got - expected) < 1e-13

    def test_kl_in_bits(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.4, 0.6])
        expected = float((p * np.log2(p / q)).sum())
        assert abs(f_divergence(kl_generator(), p, q) - expected) < 1e-13

    def test_tv_generator_recovers_tv(self):
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.1, 0.2, 0.7])
        assert abs(f_divergence(tv_generator(), p, q) - 0.6) < 1e-14

    def test_infinite_slope_raises(self):
        with pytest.raises(InfiniteDivergenceError):
            f_divergence(chi2_generator(), [0.5, 0.5], [0.0, 1.0])

    def test_vectors_of_different_lengths_are_rejected(self):
        with pytest.raises(ParameterOutOfRangeError, match="same length"):
            f_divergence(tv_generator(), [0.5, 0.5], [1.0])

    def test_tv_handles_zero_atoms(self):
        assert abs(f_divergence(tv_generator(), [0.5, 0.5], [0.0, 1.0]) - 0.5) < 1e-14

    def test_generator_probes_f1(self):
        from bisochan import FDivergenceGenerator

        with pytest.raises(ParameterOutOfRangeError):
            FDivergenceGenerator(lambda t: t, f0=0.0, slope_at_inf=1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_report_consistency(seed):
    rng = np.random.default_rng(seed)
    ch = random_binary_channel(rng, max_outputs=5)
    rep = coefficient_report(ch)
    assert abs(rep.eta_tv - (1 - rep.doeblin_alpha)) < 1e-12
    assert abs(rep.eta_tv - (rep.alpha_max - 1)) < 1e-12
    assert 0.0 <= rep.capacity <= 1.0
    assert 0.0 <= rep.eta_kl <= 1.0 + 1e-12
    assert 0.0 <= rep.eta_tv <= 1.0 and 0.0 <= rep.doeblin_alpha <= 1.0
    assert 1.0 <= rep.alpha_max <= 2.0


# ----------------------------------------------------------------------
# Newton optimizers against the procedure they replaced
# ----------------------------------------------------------------------


def scan_then_golden_max(f, f_grid, scan_points=1001, xtol=1e-10):
    """The replaced optimizer, kept as an oracle: 1001-point scan, then golden refinement.

    Returns (argmax, max) on [0, 1].
    """
    xs = np.linspace(0.0, 1.0, scan_points)
    vals = f_grid(xs)
    k = int(np.argmax(vals))
    gx, gf = golden_section_max(f, xs[max(k - 1, 0)], xs[min(k + 1, scan_points - 1)], xtol)
    if vals[k] >= gf:
        return float(xs[k]), float(vals[k])
    return float(gx), float(gf)


def scan_eta_kl(ch):
    rows = ch.rows

    return scan_then_golden_max(lambda q: float(_rho_and_slope(rows, [q])[0][0]), lambda qs: _rho_and_slope(rows, qs)[0])[1]


def scan_capacity(ch):
    return scan_then_golden_max(
        lambda p: float(mutual_information_grid(ch, np.array([p]))[0]),
        lambda ps: mutual_information_grid(ch, ps),
    )[1]


def _normalized(raw):
    return Channel(raw / raw.sum(axis=1, keepdims=True))


def optimizer_corpus(seed=2024):
    """320 seeded binary-input channels, degenerate shapes included."""
    rng = np.random.default_rng(seed)
    chans = []
    for i in range(200):  # 2..12 outputs with zero entries in either row
        n = 2 + i % 11
        raw = rng.uniform(0.0, 1.0, size=(2, n))
        raw[rng.uniform(size=(2, n)) < 0.3] = 0.0
        raw[:, i % n] += 0.05  # no empty row
        chans.append(_normalized(raw))
    chans += [make_z(q) for q in np.linspace(0.0, 1.0, 21)]
    chans += [Channel([[1.0], [1.0]])] * 2
    for i in range(30):  # identical rows, some with zero entries
        r = rng.dirichlet(np.ones(1 + i % 8))
        r[: min(i % 3, r.size - 1)] = 0.0
        r = r / r.sum()
        chans.append(Channel([r, r]))
    chans += [make_bsc(0.0), make_bsc(0.5), make_bec(0.0), make_bec(1.0)]
    for i in range(40):  # disjoint supports
        n = 2 + i % 9
        k = 1 + i % (n - 1)
        raw = np.zeros((2, n))
        raw[0, :k] = rng.uniform(0.05, 1.0, size=k)
        raw[1, k:] = rng.uniform(0.05, 1.0, size=n - k)
        chans.append(_normalized(raw[:, rng.permutation(n)]))
    chans += [random_biso(rng).to_channel() for _ in range(23)]
    return chans


CORPUS = optimizer_corpus()


def _kl_bits(r, out):
    pos = r > 0.0
    return float((r[pos] * np.log2(r[pos] / out[pos])).sum())


def _eta_slope(rows, q):
    """Derivative of the chi^2 ratio in q, term by term, with the endpoint limits."""
    total = 0.0
    for r0, r1 in rows.T:
        d = r0 - r1
        if d == 0.0:
            continue
        if q == 0.0:
            total += d * d / r1 if r1 > 0.0 else -r0
        elif q == 1.0:
            total += -d * d / r0 if r0 > 0.0 else r1
        else:
            total += d * d * (r1 * (1 - q) ** 2 - r0 * q * q) / (r1 + q * d) ** 2
    return total


class TestNewtonOptimizers:
    def test_corpus_shape(self):
        assert len(CORPUS) >= 300
        assert any((ch.rows == 0.0).any() for ch in CORPUS)

    def test_agrees_with_scan_then_golden(self):
        for ch in CORPUS:
            pairs = ((eta_kl_binary_argmax, scan_eta_kl), (capacity_binary_argmax, scan_capacity))
            for new, old in pairs:
                value, ref = new(ch)[0], old(ch)
                assert abs(value - ref) <= 1e-12, (ch, new.__name__)
                assert value >= ref - 1e-13, (ch, new.__name__)

    def test_capacity_dual_gap(self):
        # Csiszar-Korner: C <= max_x D(r_x || out) for every output law out
        for ch in CORPUS:
            cap, pstar = capacity_binary_argmax(ch)
            out = pstar * ch.rows[0] + (1.0 - pstar) * ch.rows[1]
            gap = max(_kl_bits(ch.rows[0], out), _kl_bits(ch.rows[1], out)) - cap
            assert gap <= 1e-12, ch

    def test_rho_kernel_is_the_eta_objective(self):
        # rho of the shared kernel is the objective eta_KL was read from, bit for bit, at the
        # maximizer, at both ends, next to them and on a grid; its slope is the term-by-term one
        grid = np.linspace(0.0, 1.0, 101)
        for ch in CORPUS:
            eta, qstar = eta_kl_binary_argmax(ch)
            for q in (qstar, 0.0, 1.0, 1e-300, 1.0 - 2.0**-53):
                assert float(_rho_and_slope(ch.rows, [q])[0][0]).hex() == golden_oracle.eta_objective(ch.rows, q).hex(), ch
            assert eta == min(max(golden_oracle.eta_objective(ch.rows, qstar), 0.0), 1.0)
            rho, slope = _rho_and_slope(ch.rows, grid)
            assert rho[1:-1].tobytes() == golden_oracle.eta_objective_grid(ch.rows, grid[1:-1]).tobytes(), ch
            ref = np.array([_eta_slope(ch.rows, q) for q in grid.tolist()])
            assert np.all(np.abs(slope - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)), ch

    def test_eta_tangent_bound(self):
        # concavity: f(q) <= f(q*) + f'(q*)(q - q*) on [0, 1]
        for ch in CORPUS:
            eta, qstar = eta_kl_binary_argmax(ch)
            g = _eta_slope(ch.rows, qstar)
            assert max(-g * qstar, g * (1.0 - qstar)) <= 1e-12, ch

    def test_values_lie_in_unit_interval(self):
        for ch in CORPUS:
            assert 0.0 <= eta_kl_binary_argmax(ch)[0] <= 1.0
            assert 0.0 <= capacity_binary_argmax(ch)[0] <= 1.0

    def test_noiseless_channels_clamp_to_one(self):
        for rows in ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]], [[0.1, 0.9, 0.0], [0.0, 0.0, 1.0]]):
            assert eta_kl_binary_argmax(Channel(rows))[0] == 1.0
            assert capacity_binary_argmax(Channel(rows))[0] == 1.0
        # row sums above 1 within the parse tolerance
        ch = parse_channel("3\n0.3 0.7000000001 0\n0 0 1\n")
        assert eta_kl_binary_argmax(ch)[0] == 1.0
        assert capacity_binary_argmax(ch)[0] == 1.0
        for kind in ("eta_kl", "capacity"):
            m = match_extremal(ch, kind)
            assert (m.channel_class.value, m.bsc_p, m.bec_eps) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("tiny", [1e-120, 1e-170, 1e-200, 1e-320])
    def test_tiny_entries_match_the_scan(self, tiny, monkeypatch):
        # d^2 and D^2, D^3 underflow here; the slopes must stay finite
        slopes = []

        def recording_newton_max(slope):
            def recorded(x):
                slopes.append((x, *slope(x)))
                return slopes[-1][1:]

            return newton_max(recorded)

        monkeypatch.setattr(coefficients, "newton_max", recording_newton_max)
        rows = [[tiny, 0.6, 0.4 - tiny], [0.0, 0.2, 0.8]]
        for ch in (Channel(rows), Channel(rows[::-1]), Channel(np.array(rows)[:, ::-1])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eta, cap = eta_kl_binary_argmax(ch)[0], capacity_binary_argmax(ch)[0]
            assert abs(eta - scan_eta_kl(ch)) <= 1e-12, ch
            assert abs(cap - scan_capacity(ch)) <= 1e-12, ch
            assert eta > 0.16
        assert all(math.isfinite(g) and math.isfinite(dg) for x, g, dg in slopes if 0.0 < x < 1.0)
        assert len(slopes) <= 6 * 20

    def test_biso_closed_forms_clamp(self):
        useless = parse_channel("biso 0.5000000001 0.5\n")  # pair mass above 1
        assert capacity(useless) == 0.0
        assert match_extremal(useless, "capacity").bec_eps == 1.0

    def test_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for ch in CORPUS[:150]:
                eta, cap = _mp_reference(ch, mpmath.mp)
                assert abs(eta_kl_binary_argmax(ch)[0] - eta) <= 1e-14, ch
                assert abs(capacity_binary_argmax(ch)[0] - cap) <= 1e-14, ch


def _mp_reference(ch, mp):
    """(eta_KL, capacity) at the working precision of mp, rounded to floats.

    Each maximizer is the root of the objective's derivative on
    [1e-20, 1 - 1e-20] (Anderson-Bjorck), or that interval's end.
    """
    r0 = [mp.mpf(float(v)) for v in ch.rows[0]]
    r1 = [mp.mpf(float(v)) for v in ch.rows[1]]
    cols = [(a, b, a - b) for a, b in zip(r0, r1) if a != b]
    eps = mp.mpf(10) ** -20

    def argmax(slope):
        if slope(eps) <= 0:
            return eps
        if slope(1 - eps) >= 0:
            return 1 - eps
        return mp.findroot(slope, (eps, 1 - eps), solver="anderson")

    def entropy(v):
        return -mp.fsum(x * mp.log(x, 2) for x in v if x > 0)

    def eta_slope(q):
        terms = (d * d * (b * (1 - q) ** 2 - a * q * q) / (b + q * d) ** 2 for a, b, d in cols)
        return mp.fsum(terms)

    def mi(p):
        out = [b + p * (a - b) for a, b in zip(r0, r1)]
        return entropy(out) - p * entropy(r0) - (1 - p) * entropy(r1)

    def mi_slope(p):
        terms = (d * (mp.log(b + p * d, 2) + 1 / mp.ln2) for a, b, d in cols)
        return entropy(r1) - entropy(r0) - mp.fsum(terms)

    q = argmax(eta_slope)
    eta = mp.fsum(d * d * q * (1 - q) / (b + q * d) for a, b, d in cols)
    return float(eta), float(mi(argmax(mi_slope)))


def _hostile(rng, n):
    """Near-symmetric non-BISO channel: n - 2 equal columns, two unpaired ones."""
    c = rng.uniform(0.6, 0.9) / n
    rest = 1.0 - (n - 2) * c
    s, t = rng.uniform(0.55, 0.75), rng.uniform(0.10, 0.20)
    row0 = np.concatenate([np.full(n - 2, c), [rest * s, rest * (1.0 - s)]])
    row1 = np.concatenate([np.full(n - 2, c), [rest * t, rest * (1.0 - t)]])
    return Channel([row0, row1])


class TestNewtonWorstCase:
    def test_step_cap(self):
        calls = []

        def creeping(x):  # Newton steps of 1e-10 that never close the bracket
            calls.append(x)
            return (1.0 if x < 1.0 else -1.0), -1e10

        x = newton_max(creeping)
        assert 0.5 < x < 0.5 + 1e-8
        assert len(calls) == 66

    def test_large_and_hostile_channels_are_fast(self):
        rng = np.random.default_rng(5)
        chans = [_normalized(rng.uniform(0.0, 1.0, size=(2, 64)))]
        chans += [_hostile(rng, n) for n in range(8, 13)]
        for ch in chans:
            for opt in (eta_kl_binary_argmax, capacity_binary_argmax):
                best = min(_elapsed(opt, ch) for _ in range(3))
                assert best < 5e-3, (ch.n_outputs, opt.__name__, best)


def _elapsed(fn, arg):
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start
