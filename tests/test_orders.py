import functools
import inspect
import math
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bisochan import (
    BisoChannel,
    Channel,
    DegenerateParameterError,
    DegradingMap,
    ParameterOutOfRangeError,
    canonicalize_biso,
    compose,
    guessing_probability,
    is_degraded,
    is_less_noisy,
    is_more_capable,
    less_noisy_criterion,
    make_bec,
    make_bsc,
    make_z,
    parse_channel,
)
from bisochan import checks, extremal, orders
from bisochan.channels import as_channel
from bisochan.checks import (
    ALPHA_PAIR_F,
    ALPHA_PAIR_G,
    ETA_PAIR_A,
    ETA_PAIR_B,
    random_binary_channel,
    random_biso,
    random_degraded_biso,
)
from bisochan.coefficients import _rho_and_slope, capacity_binary, doeblin_alpha, eta_kl_biso, h2_inv, mutual_information_grid
from bisochan.orders import CriterionViolation, InfeasibilityCertificate
from bisochan.search import bisect_threshold
import exact_oracle
import golden_oracle
from golden_oracle import mutual_information_difference
import simplex_oracle


# lopsided pairs put poles within 1e-4 of u = (1 - 2q)^2 = 1
NEAR_POLE_W = BisoChannel([
    (0.043543947535232115, 0.17433951386894594),
    (0.0004102749855720974, 0.08476246344550845),
    (0.006296967789173616, 0.09942303199624332),
    (0.015406822997320347, 0.05899619354658792),
    (8.438131541057604e-06, 0.22150776764295724),
    (0.10931671278552706, 0.02058763853338184),
    (0.0012030457417199843, 0.0967398299314285),
    (0.02152911539456377, 0.04592823567429689),
])
NEAR_POLE_V = BisoChannel([
    (0.0119859756863513, 0.045602459520241334),
    (0.26200295127754075, 0.175523857300093),
    (1.4016923184891106e-07, 0.12629296892859776),
    (0.00022140251923267345, 0.022075777713420463),
    (0.00534634387638017, 0.0026477509322508485),
    (0.005241514739235247, 0.14914061593046374),
    (0.12817844761791722, 0.06573979378904359),
])
# the canonical pairs of compare-corpus seed 3, op 184, whose less-noisy A >= B is the one decision of
# the corpus seeds 0-9 that reaches the search: K >= 0, and the halved first cell fails at q = 0.00025
SEARCHED_W = BisoChannel([(0.5305825982962071, 0.11281659125020235), (0.10959210537037047, 0.2470087050832201)])
SEARCHED_V = BisoChannel([
    (0.11107288429120467, 0.04532210586447801),
    (0.011438451382146648, 0.1563268592328835),
    (0.18864571598538543, 0.18343058682444083),
    (0.12954687206888724, 0.1742165243505737),
])


class TestGuessingProbability:
    def test_reference_points(self):
        # oracle: direct sum of the larger joint atoms, exact arithmetic
        assert abs(guessing_probability(ALPHA_PAIR_F, 0.12) - 0.88) < 1e-12
        assert abs(guessing_probability(ALPHA_PAIR_G, 0.12) - 0.89268) < 1e-12
        assert abs(guessing_probability(ALPHA_PAIR_F, 0.29) - 0.77455) < 1e-12
        assert abs(guessing_probability(ALPHA_PAIR_G, 0.29) - 0.76756) < 1e-12

    @pytest.mark.parametrize("x", [-0.1, 1.5, math.nan])
    def test_bias_outside_the_unit_interval_is_rejected(self, x):
        with pytest.raises(DegenerateParameterError, match="input bias must lie in"):
            guessing_probability(ALPHA_PAIR_F, x)

    def test_boundary_bias_guesses_perfectly(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            b = random_biso(rng)
            assert abs(guessing_probability(b, 0.0) - 1.0) < 1e-12
            assert abs(guessing_probability(b, 1.0) - 1.0) < 1e-12

    def test_symmetric_in_bias(self):
        for x in (0.1, 0.33, 0.47):
            a = guessing_probability(ETA_PAIR_A, x)
            b = guessing_probability(ETA_PAIR_A, 1.0 - x)
            assert abs(a - b) < 1e-14

    def test_degradation_never_helps_guessing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_biso(rng, max_pairs=3)
            q = random_degraded_biso(rng, p)
            assert is_degraded(p.to_channel(), q.to_channel()).holds
            for x in rng.uniform(0.0, 1.0, size=20):
                assert guessing_probability(p, x) >= guessing_probability(q, x) - 1e-9


class TestLessNoisyCriterion:
    def test_frozen_counterexample_values(self):
        assert abs(less_noisy_criterion(ETA_PAIR_A, ETA_PAIR_B, 0.001) - (-14.443939175483525)) < 1e-9
        assert abs(less_noisy_criterion(ETA_PAIR_A, ETA_PAIR_B, 0.02) - 0.9705362820271217) < 1e-9

    def test_identical_channels_cancel(self):
        for q in (0.001, 0.25, 0.5, 0.99):
            assert less_noisy_criterion(ETA_PAIR_A, ETA_PAIR_A, q) == 0.0

    def test_noiseless_mirror_pair_cancels_near_the_edges(self):
        # the criterion of these two noiseless channels is identically 0; the
        # q-form curvature sum gave -28.3 at q = 1e-9 and -8.0e11 at q = 1e-15
        w, v = BisoChannel([[0, 1]]), BisoChannel([[1, 0]])
        for q in (1e-9, 1e-15):
            assert abs(_curvature_sum(w, [q])[0] - _curvature_sum(v, [q])[0]) > 1.0
            assert abs(less_noisy_criterion(w, v, q)) <= 1e-12

    def test_degenerate_bias_rejected(self):
        for q in (0.0, 1.0, math.nan, np.array([0.5, 1.0])):
            with pytest.raises(DegenerateParameterError):
                less_noisy_criterion(ETA_PAIR_A, ETA_PAIR_B, q)

    def test_takes_no_primal_bias_argument(self):
        # the criterion depends on the reference bias only; the primal input
        # bias cancels, so the signature must not accept one
        params = list(inspect.signature(less_noisy_criterion).parameters)
        assert params == ["w", "v", "q"]

    def test_finite_difference_matches_closed_criterion(self):
        # chi2(W o Ber(p) || W o Ber(q)) - chi2(V o Ber(p) || V o Ber(q)) is quadratic in p, so its
        # second difference at p = q +- h over h^2 is its second derivative, twice the criterion
        def chi2(ch, p, q):
            r0, r1 = as_channel(ch).rows
            at_p, at_q = p * r0 + (1.0 - p) * r1, q * r0 + (1.0 - q) * r1
            out = at_q > 0.0
            return float(((at_p[out] - at_q[out]) ** 2 / at_q[out]).sum())

        rng = np.random.default_rng(4)
        pairs = [(random_biso(rng), random_biso(rng)) for _ in range(10)]
        pairs += [(Channel(rng.dirichlet(np.ones(n), size=2)), Channel(rng.dirichlet(np.ones(m), size=2)))
                  for n, m in rng.integers(2, 9, size=(10, 2))]
        pairs += [(make_z(z), make_bsc((1.0 - math.sqrt(1.0 - z)) / 2.0)) for z in (0.1, 0.3, 0.6, 0.9)]
        h = 1e-3
        for w, v in pairs:
            q = float(rng.uniform(0.05, 0.95))
            g = [chi2(w, p, q) - chi2(v, p, q) for p in (q - h, q, q + h)]
            second = (g[0] - 2.0 * g[1] + g[2]) / (h * h)
            closed = 2.0 * less_noisy_criterion(w, v, q)
            assert abs(second - closed) <= 1e-9 * max(1.0, abs(closed)), (w, v, q)

    def test_array_call_matches_scalar_calls_bitwise(self):
        # 8 or more rows a side, where numpy would sum one point's column pairwise
        rng = np.random.default_rng(5)
        qs = np.concatenate(([1e-9, 0.5, 1.0 - 1e-9], rng.uniform(0.0, 1.0, size=61)))
        for n in (4, 5, 8, 16):
            biso = [BisoChannel(raw / raw.sum()) for raw in rng.uniform(0.02, 1.0, size=(2, n, 2))]
            general = [Channel(rng.dirichlet(np.ones(2 * n), size=2)) for _ in range(2)]
            for w, v in (biso, general, (biso[0], general[0])):
                array = less_noisy_criterion(w, v, qs)
                assert array.shape == qs.shape
                assert [x.hex() for x in array.tolist()] == [less_noisy_criterion(w, v, q).hex() for q in qs]
                grid = less_noisy_criterion(w, v, qs.reshape(8, 8))
                assert grid.shape == (8, 8) and grid.tobytes() == array.tobytes()

    def test_non_biso_pair_is_summed_on_its_own_rows(self):
        # no symmetrization: the criterion of Z against a BISO channel differs at q and 1 - q
        z = make_z(0.3)
        qs = np.array([0.1, 0.25, 0.4])
        own = orders._criterion(orders._flat_rows(z.rows, ETA_PAIR_A.to_channel().rows), qs)
        assert less_noisy_criterion(z, ETA_PAIR_A, qs).tobytes() == own.tobytes()
        assert np.all(np.abs(less_noisy_criterion(z, ETA_PAIR_A, 1.0 - qs) - own) > 1e-3)


class TestIsLessNoisy:
    def test_self_comparison_holds(self):
        assert is_less_noisy(ETA_PAIR_A, ETA_PAIR_A).holds

    def test_counterexample_fails_both_directions(self):
        fwd = is_less_noisy(ETA_PAIR_A, ETA_PAIR_B)
        rev = is_less_noisy(ETA_PAIR_B, ETA_PAIR_A)
        assert fwd.fails and rev.fails
        for verdict, w, v in ((fwd, ETA_PAIR_A, ETA_PAIR_B), (rev, ETA_PAIR_B, ETA_PAIR_A)):
            witness = verdict.witness
            assert isinstance(witness, CriterionViolation)
            # re-evaluating at the witness reproduces a strict violation
            again = less_noisy_criterion(w, v, witness.parameter)
            assert again < -1e-9
            assert abs(again - witness.value) < 1e-12

    def test_witness_locations(self):
        # forward violation is the deep dip near the left edge; the reverse
        # one sits in the wide positive region of the forward criterion,
        # which is symmetric under q -> 1-q
        fwd = is_less_noisy(ETA_PAIR_A, ETA_PAIR_B)
        assert fwd.witness.parameter <= 0.01
        rev = is_less_noisy(ETA_PAIR_B, ETA_PAIR_A)
        q = rev.witness.parameter
        assert 0.0 < q < 1.0
        mirrored = less_noisy_criterion(ETA_PAIR_B, ETA_PAIR_A, 1.0 - q)
        assert abs(mirrored - rev.witness.value) < 1e-9

    def test_sandwich_single_instance(self):
        b = BisoChannel([(0.5, 0.1), (0.05, 0.35)])
        eta = 0.4**2 / 0.6 + 0.3**2 / 0.4
        bec = canonicalize_biso(make_bec(1 - eta))
        bsc = canonicalize_biso(make_bsc((1 - math.sqrt(eta)) / 2))
        assert is_less_noisy(bec, b).holds
        assert is_less_noisy(b, bsc).holds
        assert is_less_noisy(bsc, b).fails

    def test_noiseless_channel_beats_a_lopsided_one(self):
        # the second channel's mass exceeds 1 by 5.6e-17; through the q-form
        # curvature sum this failed with value -0.0018 at q = 8.3e-8
        w = BisoChannel([[0, 1]])
        v = BisoChannel([[0, 0.7451701144751403], [0.2548298855248598, 0]])
        assert is_less_noisy(w, v).holds

    def test_accepts_flat_channels(self):
        assert is_less_noisy(make_bsc(0.1), make_bsc(0.3)).holds

    def test_signature_has_no_grid(self):
        assert list(inspect.signature(is_less_noisy).parameters) == ["w", "v"]

    def test_violation_below_the_grid_fails(self):
        # the criterion is negative only for q below the first grid point
        # 1/1000, so a 999-point grid (refined or not) reported holds
        w = BisoChannel([
            (0.5305825982962071, 0.11281659125020235),
            (0.10959210537037047, 0.2470087050832201),
        ])
        v = BisoChannel([
            (0.11107288429120467, 0.04532210586447801),
            (0.011438451382146648, 0.1563268592328835),
            (0.18864571598538543, 0.18343058682444083),
            (0.12954687206888724, 0.1742165243505737),
        ])
        verdict = is_less_noisy(w, v)
        assert verdict.fails
        q = verdict.witness.parameter
        assert 0.0 < q < 1e-3
        assert less_noisy_criterion(w, v, q) < -1e-9
        assert _grid_oracle(w, v)[1].holds

    def test_violation_behind_a_pole_near_q_zero(self):
        # the criterion turns negative only for q below about 5e-5
        w, v = NEAR_POLE_W, NEAR_POLE_V
        verdict = is_less_noisy(w, v)
        assert verdict.fails
        assert less_noisy_criterion(w, v, verdict.witness.parameter) < -1e-9
        assert _dense_reference_min(w, v) < -1e-9

    def test_matches_grid_oracle(self):
        changed = 0
        for w, v in _seeded_pairs(12, 200):
            grid_shows, old = _grid_oracle(w, v)
            new = is_less_noisy(w, v)
            if grid_shows:
                # the witness is the old grid argmin, or its mirror in (0, 1/2]
                assert new.relation == old.relation
                q_old, q_new = old.witness.parameter, new.witness.parameter
                assert min(abs(q_new - q_old), abs(q_new - (1.0 - q_old))) <= 1e-15
                assert abs(new.witness.value - old.witness.value) <= 1e-12 * abs(old.witness.value)
            elif new.relation != old.relation:
                # only a violation the grid missed may change the verdict
                changed += 1
                assert new.fails
                assert less_noisy_criterion(w, v, new.witness.parameter) < -1e-9
        assert changed > 0

    def test_agrees_with_dense_reference(self):
        for w, v in _seeded_pairs(13, 200):
            verdict = is_less_noisy(w, v)
            if _dense_reference_min(w, v) < -1e-9:
                assert verdict.fails, (w, v)
            if verdict.fails:
                assert 0.0 < verdict.witness.parameter <= 0.5
                assert less_noisy_criterion(w, v, verdict.witness.parameter) < -1e-9

    def test_polynomial_matches_the_convolution_chains(self, monkeypatch):
        cases = list(_polynomial_cases(15))
        new = [golden_oracle.criterion_polynomial(w.pairs, v.pairs) for w, v in cases]
        relations = [golden_oracle.is_less_noisy(w, v).relation for w, v in cases]
        monkeypatch.setattr(golden_oracle, "criterion_polynomial", _convolution_polynomial)
        for (w, v), poly, relation in zip(cases, new, relations):
            old = _convolution_polynomial(w.pairs, v.pairs)
            scale = _convolution_polynomial(w.pairs, v.pairs, magnitude=True)
            assert poly.shape == old.shape
            assert np.all(np.abs(poly - old) <= 1e-12 * scale)
            assert golden_oracle.is_less_noisy(w, v).relation == relation

    def test_polynomial_matches_the_prefix_convolution_bitwise(self):
        cases = list(_polynomial_cases(16)) + list(_seeded_pairs(17, 400))
        cases += [(ETA_PAIR_A, ETA_PAIR_B), (ETA_PAIR_A, ETA_PAIR_A)]
        for w, v in cases:
            new, old = golden_oracle.criterion_polynomial(w.pairs, v.pairs), _prefix_convolution_polynomial(w, v)
            assert new.shape == old.shape and np.array_equal(new, old), (w, v)

    def test_flat_rows_match_the_flat_channels_bitwise(self):
        for w, v in list(_polynomial_cases(18)) + list(_seeded_pairs(19, 100)):
            for a, b in ((w, v), (w, v.to_channel()), (w.to_channel(), v)):
                (new, n_new), (old, n_old) = orders._flat_rows(a, b), _flat_rows_of_channels(a, b)
                assert n_new == n_old and new.shape == old.shape and new.tobytes() == old.tobytes()

    def test_large_channels_decide_quickly(self):
        rng = np.random.default_rng(14)
        raw = rng.uniform(0.0, 1.0, size=(32, 2)) ** 3
        w = BisoChannel(raw / raw.sum())
        v = random_degraded_biso(rng, w, max_pairs=32)
        v = BisoChannel(np.vstack([v.pairs, np.zeros((32 - v.num_pairs, 2))]))
        for a, b in ((w, v), (v, w)):
            start = time.perf_counter()
            verdict = is_less_noisy(a, b)
            assert time.perf_counter() - start < 0.5
            assert _dense_reference_min(a, b) >= -1e-9 or verdict.fails
        assert is_less_noisy(w, v).holds


    def test_self_comparison_of_large_channels_holds(self):
        # seven of these 128-pair self-comparisons raised LinAlgError in np.roots: the
        # polynomial's leading coefficients underflow and its companion matrix overflows
        for seed in range(7000, 7020):
            a = np.random.default_rng(seed).uniform(size=(128, 2))
            w = BisoChannel(a / a.sum())
            assert is_less_noisy(w, w).holds
            assert is_less_noisy(w, BisoChannel(w.pairs[::-1, ::-1])).holds  # mirrored pairs

    @pytest.mark.parametrize("seed", [44, 227, 321])
    def test_violation_between_zero_and_the_grid_fails(self, seed):
        # the criterion dips below -1e-9 only under the half grid, between large positive
        # values at 1e-3 and at its limit q -> 0; sign probes and a walk gated on the limit
        # both missed it (the seed-44 dip is -409.2 at q = 1.953125e-06)
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(48, 2)) ** 5
        b = rng.uniform(size=(48, 2)) ** 5
        w, v = BisoChannel(a / a.sum()), BisoChannel(b / b.sum())
        verdict = is_less_noisy(w, v)
        assert verdict.fails
        q = verdict.witness.parameter
        assert 0.0 < q < 1e-3
        assert verdict.witness.value == less_noisy_criterion(w, v, q) < -1e-9
        assert orders._criterion(orders._flat_rows(w, v), orders._HALF_GRID).min() >= -1e-9
        # a pair both share, halved in one, nets away: the search sees other rows, and
        # the witness value is still the criterion over all of them
        w = BisoChannel(np.vstack((w.pairs / 2.0, [(0.15, 0.1), (0.15, 0.1)])))
        v = BisoChannel(np.vstack((v.pairs / 2.0, [(0.3, 0.2)])))
        verdict = is_less_noisy(w, v)
        assert verdict.fails and 0.0 < verdict.witness.parameter < 1e-3
        assert verdict.witness.value == less_noisy_criterion(w, v, verdict.witness.parameter) < -1e-9

    def test_large_near_self_comparisons_are_bounded(self):
        # 128 pairs against themselves, their mirror, one pair halved (netted to nothing)
        # and one pair split at t, renormalized: f is 0 up to roundoff, so the last may be
        # undetermined, never a fails that the criterion does not confirm
        relations = Counter()
        for seed in range(7000, 7020):
            rng = np.random.default_rng(seed)
            a = rng.uniform(size=(128, 2)) ** (1, 3, 5)[seed % 3]
            w = BisoChannel(a / a.sum())
            i, t = int(rng.integers(128)), float(rng.uniform(0.1, 0.9))
            rest = np.delete(w.pairs, i, axis=0)
            halved = BisoChannel(np.vstack((rest, w.pairs[i] / 2.0, w.pairs[i] / 2.0)))
            split = np.vstack((rest, w.pairs[i] * t, w.pairs[i] * (1.0 - t)))
            split = BisoChannel(split / split.sum())
            cases = [(w, w), (w, BisoChannel(w.pairs[::-1, ::-1])), (w, halved), (halved, w), (w, split), (split, w)]
            for kind, (x, y) in zip(("self", "mirror", "dyadic", "dyadic", "split", "split"), cases):
                tracemalloc.start()
                try:
                    start = time.perf_counter()
                    verdict = is_less_noisy(x, y)
                    assert time.perf_counter() - start < 1.0
                    assert tracemalloc.get_traced_memory()[1] < 64e6
                finally:
                    tracemalloc.stop()
                relations[kind, verdict.relation] += 1
                if verdict.fails:
                    assert less_noisy_criterion(x, y, verdict.witness.parameter) < -1e-9
        assert relations["self", "holds"] == relations["mirror", "holds"] == 20
        assert relations["dyadic", "holds"] == 40
        assert relations["split", "holds"] + relations["split", "undetermined"] == 40

    def test_undetermined_past_the_cell_budget(self, monkeypatch):
        # a pair split at t and renormalized keeps its cells open near q = 0: the search
        # stops once halving would open more than 2^22 terms' worth of cells
        rng = np.random.default_rng(7001)
        a = rng.uniform(size=(128, 2)) ** 5
        w = BisoChannel(a / a.sum())
        i, t = int(rng.integers(128)), float(rng.uniform(0.1, 0.9))
        split = np.vstack((np.delete(w.pairs, i, axis=0), w.pairs[i] * t, w.pairs[i] * (1.0 - t)))
        split = BisoChannel(split / split.sum())
        terms = []  # points times columns of each kernel call, W's and V's for each sample
        kernel = orders._rho_and_slope
        monkeypatch.setattr(orders, "_rho_and_slope", lambda rows, qs: terms.append(qs.size * rows.shape[1]) or kernel(rows, qs))
        verdict = is_less_noisy(w, split)
        assert verdict.relation == "undetermined" and verdict.witness.value < -1e-9
        assert orders._TERMS // 5 < max(map(sum, zip(terms[::2], terms[1::2]))) <= orders._TERMS // 2

    def test_unconfirmed_sample_is_an_undetermined_cell(self, monkeypatch):
        # a search sample that the criterion over all flat rows does not confirm (0, or NaN)
        # is the uncertified cell [q, q]: the witness keeps the sample, below -1e-9
        rng = np.random.default_rng(44)
        a, b = rng.uniform(size=(48, 2)) ** 5, rng.uniform(size=(48, 2)) ** 5
        w, v = BisoChannel(a / a.sum()), BisoChannel(b / b.sum())
        for value in (0.0, math.nan):
            _confirm_with(monkeypatch, value)
            verdict = is_less_noisy(w, v)
            assert verdict.relation == "undetermined"
            assert 0.0 < verdict.witness.parameter < 1e-3 and verdict.witness.value < -1e-9
            monkeypatch.undo()

    def test_both_orders_run_one_search(self, monkeypatch):
        calls = []
        search = orders._dc_search
        monkeypatch.setattr(orders, "_dc_search", lambda *a: calls.append(len(a) == 5) or search(*a))
        verdict = is_less_noisy(SEARCHED_W, SEARCHED_V)
        assert verdict == orders.OrderVerdict("fails", CriterionViolation(0.00025, -0.0019318511940920047))
        assert is_more_capable(make_bsc(0.4), make_bsc(0.1)).fails
        assert calls == [True, False]

    def test_shared_pairs_cancel_as_multisets(self):
        # pairs of one posterior net by mass, a pair and its mirror alike
        # (the pairs of netted flat rows are their columns with r0 > r1)
        w = BisoChannel([(0.1, 0.2), (0.3, 0.1), (0.1, 0.2)])
        v = BisoChannel([(0.2, 0.1), (0.25, 0.35), (0.1, 0.0)])
        w_net, v_net = orders._net_rows(_flat(w), _flat(v))
        assert _pairs_of(w_net).tolist() == [[0.2, 0.1], [0.3, 0.1]]
        assert _pairs_of(v_net).tolist() == [[0.35, 0.25], [0.1, 0.0]]
        assert all(side.shape == (2, 0) for side in orders._net_rows(_flat(w), _flat(w)))
        assert all(side.shape == (2, 0) for side in orders._net_rows(_flat(w), _flat(BisoChannel(w.pairs[::-1, ::-1]))))
        # a net below zero moves to V's side
        w_net, v_net = orders._net_rows(_flat(BisoChannel([(0.2, 0.1), (0.7, 0.0)])), _flat(BisoChannel([(0.4, 0.2), (0.4, 0.0)])))
        assert _pairs_of(v_net).tolist() == [[0.2, 0.1]]
        assert np.allclose(_pairs_of(w_net), [[0.3, 0.0]], rtol=0.0, atol=1e-16)
        # with no posterior shared the rows come back as they are (p = p_- too, which
        # adds no row), and the terms of the row arrays are the channels' own
        a, b = BisoChannel([(0.5, 0.2), (0.3, 0.0)]), BisoChannel([(0.6, 0.3), (0.05, 0.05)])
        rows = [_flat(ch) for ch in (a, b)]
        assert all(side is row for side, row in zip(orders._net_rows(*rows), rows))
        (net_rows, n_net), (rows, n_rows) = orders._flat_rows(*rows), orders._flat_rows(a, b)
        assert n_net == n_rows and net_rows.tobytes() == rows.tobytes()

    def test_noiseless_masses_within_rounding_cancel(self):
        # three noiseless pairs of mass 1 + 2^-52 against one of mass 1: the net
        # noiseless mass is roundoff, so the pair holds both ways
        three = BisoChannel([(0.3, 0.0), (0.0, 0.5), (0.2000000000000001, 0.0)])
        one = BisoChannel([(1.0, 0.0)])
        assert three.pairs.sum() == 1.0 + 2.0**-52
        # as flat columns, the three against the one net to nothing on each side
        assert all(side.shape == (2, 0) for side in orders._net_rows(_flat(three), _flat(one)))
        assert is_less_noisy(three, one).holds and is_less_noisy(one, three).holds
        assert is_more_capable(three, one).holds and is_more_capable(one, three).holds

    def test_violation_below_the_probes_fails_at_the_limit(self):
        # the criterion is -0.664 at q = 9e-4 and -11,249 at 1e-5 but +3.88 at 1e-3, the
        # half grid's first point; it tends to a finite negative limit as q -> 0, and the
        # first cell (0, 1e-3] is halved toward 0 until a midpoint 1e-3 2^-j violates
        rng = np.random.default_rng(519)
        a = rng.uniform(size=(32, 2)) ** 5
        b = rng.uniform(size=(32, 2)) ** 5
        w, v = BisoChannel(a / a.sum()), BisoChannel(b / b.sum())
        verdict = is_less_noisy(w, v)
        assert verdict.fails
        q = verdict.witness.parameter
        j = round(math.log2(1e-3 / q))
        assert j >= 1 and q == 1e-3 * 2.0**-j
        assert verdict.witness.value == less_noisy_criterion(w, v, q) < -1e-9
        assert all(less_noisy_criterion(w, v, 1e-3 * 2.0**-i) >= -1e-9 for i in range(1, j))
        assert _dense_reference_min(w, v) < -1e-9

    def test_net_noiseless_mass_decides_the_first_cell(self, monkeypatch):
        # K, the net mass of the rows with r1 = 0, adds K / q to the criterion and is f at q = 0:
        # K < 0 fails near 0 ...
        w, v = BisoChannel([(0.9, 0.1)]), BisoChannel([(0.8, 0.2 - 1e-9), (1e-9, 0.0)])
        verdict = is_less_noisy(w, v)
        assert verdict.fails and 0.0 < verdict.witness.parameter < 1e-8
        assert verdict.witness.value == less_noisy_criterion(w, v, verdict.witness.parameter) < -1e-9
        # ... K > 0 holds: merging v's noiseless pair into its other pair degrades it, and with no
        # certificate the search decides ...
        monkeypatch.setattr(orders, "_bernstein_positive", lambda poly: False)
        searched = []
        search = orders._dc_search
        monkeypatch.setattr(orders, "_dc_search", lambda *a: searched.append(a) or search(*a))
        assert is_less_noisy(v, BisoChannel([(0.8, 0.2)])).holds and searched
        # ... and a K within rounding cancels
        lopsided = BisoChannel([[0, 0.7451701144751403], [0.2548298855248598, 0]])
        assert all(side.shape == (2, 0) for side in orders._net_rows(_flat(BisoChannel([[0, 1]])), _flat(lopsided)))
        assert is_less_noisy(BisoChannel([[0, 1]]), lopsided).holds
        eta = 0.4**2 / 0.6 + 0.3**2 / 0.4
        b = BisoChannel([(0.5, 0.1), (0.05, 0.35)])
        assert is_less_noisy(canonicalize_biso(make_bec(1 - eta)), b).holds  # K = 1 - eta > 0
        assert is_less_noisy(b, canonicalize_biso(make_bsc((1 - math.sqrt(eta)) / 2))).holds  # no K

    def test_tiny_noiseless_mass_fails_at_a_finite_violation(self):
        # d^2 and q d of a noiseless row of mass below 1.5e-154 underflow: its term was
        # 0 / 0 = NaN at q = 1.69e-24, where the criterion is -5.9e-277, and the NaN passed
        # as a violation; stored as d / q it fails only where the criterion is below -1e-9
        one = Channel([[1.0], [1.0]])
        tiny = Channel([[1.943808437406911e-300, 1.0, 0.0], [1.0046502987042566e-299, 1.0, 0.0]])
        cases = [(one, tiny)]
        cases += [(BisoChannel([(0.5, 0.5)]), BisoChannel([(0.5, 0.5 - m), (m, 0.0)])) for m in (1e-300, 1e-200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w, v in cases:
                verdict = is_less_noisy(w, v)
                assert verdict.fails, (w, v)
                value = less_noisy_criterion(w, v, verdict.witness.parameter)
                assert math.isfinite(value) and value < -1e-9 and value == verdict.witness.value

    def test_net_noiseless_mass_below_the_band_fails(self, monkeypatch):
        # f(0) = K = -7.7e-301 lies within the band eps of 0, and a sample shifted by 1e-9 loses it
        # to rounding; its sign is exact, so the pair fails, before any search, where the criterion,
        # tending to K / q, is below -1e-9, and the referee agrees
        m = 7.7e-301
        w, v = BisoChannel([(0.9, 0.1)]), BisoChannel([(0.9, 0.1 - m), (m, 0.0)])
        net = orders._net_rows(_flat(w), _flat(v))
        assert orders._rho_samples(net, np.zeros(1))[1, 0] == -m
        monkeypatch.setattr(orders, "_dc_search", _forbidden_search)
        verdict = is_less_noisy(w, v)
        monkeypatch.undo()  # the reverse pair, K > 0, is decided by the search
        assert verdict.fails and verdict.witness.value == less_noisy_criterion(w, v, verdict.witness.parameter)
        assert exact_oracle.criterion(w.pairs, v.pairs, verdict.witness.parameter) < -exact_oracle.TOL
        assert not exact_oracle.is_less_noisy(w.pairs, v.pairs) and is_less_noisy(v, w).holds

    @pytest.mark.parametrize("w, v, witness", [
        (BisoChannel([(0.9, 0.1)]), BisoChannel([(0.9, 0.1 - 7.7e-301), (7.7e-301, 0.0)]),
         CriterionViolation(4.104536801298376e-292, -1.875973154596977e-09)),
        (Channel([[1.0], [1.0]]), Channel([[1.943808437406911e-300, 1.0, 0.0], [1.0046502987042566e-299, 1.0, 0.0]]),
         CriterionViolation(1.6418147205193505e-291, -1.1839389750336942e-09)),
    ])
    def test_negative_net_noiseless_mass_fails_without_a_search(self, w, v, witness, monkeypatch):
        # K < 0 past a half grid that finds no violation: f(0) = K of the netted columns decides it
        # before any search, at the first q = 1e-3 2^-j where the criterion is below -1e-9, whose
        # bits are pinned here
        rows = [canonicalize_biso(ch).to_channel().rows for ch in (w, v)]
        assert orders._criterion(orders._flat_rows(*rows), orders._HALF_GRID).min() >= -1e-9
        assert orders._rho_samples(orders._net_rows(*rows), np.zeros(1))[1, 0] < 0.0
        monkeypatch.setattr(orders, "_dc_search", _forbidden_search)
        assert _same_bits(is_less_noisy(w, v), orders.OrderVerdict("fails", witness))

    def test_toward_zero_in_one_call_matches_the_point_loop_bitwise(self):
        # the ladder q = 1e-3 2^-j valued in one call gives each q the bits of a call at q alone:
        # K < 0 pairs, V a copy of W or an independent draw, plus a noiseless pair of mass m
        rng = np.random.default_rng(2901)
        relations = Counter()
        for l in (1, 2, 5, 16, 64):
            for m in (1e-300, 1e-200, 1e-9):
                for copy in (True, False):
                    w_pairs = rng.uniform(0.02, 1.0, size=(l, 2))
                    w_pairs /= w_pairs.sum()
                    v_pairs = w_pairs.copy() if copy else rng.uniform(0.02, 1.0, size=(l, 2)) / (2 * l)
                    v_pairs[0, 1] += 1.0 - m - v_pairs.sum()
                    w, v = BisoChannel(w_pairs), BisoChannel(np.vstack((v_pairs, [(m, 0.0)])))
                    assert orders._rho_samples(orders._net_rows(_flat(w), _flat(v)), np.zeros(1))[1, 0] < 0.0
                    rows = orders._flat_rows(_flat(w), _flat(v))
                    new = orders._toward_zero(rows)
                    assert _same_bits(new, golden_oracle.point_loop_toward_zero(rows)), (w, v)
                    relations[new.relation] += 1
        assert relations["fails"] == 30

    def test_toward_zero_is_one_call_at_1024_pairs(self):
        # the point loop, one criterion call per q down to the fail near 1e-292, took 2-3.5 s on a
        # 2-CPU Xeon host, and the one call under 0.1 s
        rng = np.random.default_rng(2902)
        w_pairs = rng.uniform(0.02, 1.0, size=(1024, 2))
        w_pairs /= w_pairs.sum()
        w, v = BisoChannel(w_pairs), BisoChannel(np.vstack((w_pairs, [(1e-300, 0.0)])))
        rows = orders._flat_rows(_flat(w), _flat(v))
        start = time.perf_counter()
        verdict = orders._toward_zero(rows)
        assert time.perf_counter() - start < 0.5
        assert verdict.fails and verdict.witness.parameter < 1e-290

    def test_toward_zero_with_no_double_witness_is_undetermined(self):
        # K = -0.1, but W's (0.5, 5e-324) pair acts as noiseless mass down to q near 1e-323: along
        # the ladder the criterion is at least 800 down to q near 5.7e-309, +inf at 2.8e-309, then
        # NaN, so no q of it is below -1e-9.  The exact referee fails the pair, yet its criterion is at
        # least -1e-9 at every q of the ladder: no double witnesses the failure
        w, v = (parse_channel(text) for text in ("biso 0.1 0.0 5e-324 0.5 0.3 0.1", "biso 0.3 0.0 0.4 0.3"))
        rows = [canonicalize_biso(ch).to_channel().rows for ch in (w, v)]
        assert orders._rho_samples(orders._net_rows(*rows), np.zeros(1))[1, 0] == pytest.approx(-0.1)
        vals = orders._criterion(orders._flat_rows(*rows), orders._TOWARD_ZERO)
        assert vals[:1014].min() >= 800.0 and vals[1014] == math.inf and np.isnan(vals[1015:]).all()
        assert orders._TOWARD_ZERO[1014] == pytest.approx(2.8e-309, rel=0.01)
        assert _same_bits(is_less_noisy(w, v), orders.OrderVerdict("undetermined", CriterionViolation(0.0, -math.inf)))
        w_pairs, v_pairs = (canonicalize_biso(ch).pairs for ch in (w, v))
        assert not exact_oracle.is_less_noisy(w_pairs, v_pairs)
        assert all(exact_oracle.criterion(w_pairs, v_pairs, q) >= -exact_oracle.TOL for q in orders._TOWARD_ZERO)

    def test_slopes_near_the_least_normal_q_bound_no_cell_from_a_false_tangent(self):
        # a noiseless column's slope is -d; as term * (d / D), d / D = 1 / q overflowed near
        # q = 3e-309 to a +inf right-end slope, and that tangent bounded a cell by min(f(a), f(b)),
        # certifying a cell with a violation inside.  Formed as (term / D) d it stays -d, and an
        # overflowed +inf slope at b bounds the cell by min(f(a) - (B(b) - B(a)), f(b))
        rows = np.array([[0.5, 0.3, 0.2], [0.0, 0.4, 0.6]])
        for q in (3e-309, 1e-320):
            slope = _rho_and_slope(rows[:, :1], [q])[1][0]
            assert slope == -0.5 and np.isfinite(_rho_and_slope(rows, [q])[1][0])
        lo = np.array([[0.0], [0.0], [0.0], [np.inf]])  # x, f, B and B' at a
        hi = np.array([[1e-300], [0.0], [0.13], [np.inf]])
        assert orders._dc_bounds(lo, hi)[0] == -0.13

    def test_bernstein_coefficients_match_the_power_polynomial(self):
        # power coefficients a_j (lowest first), as exact rationals, have the Bernstein
        # coefficients sum_(j <= k) C(k, j) / C(n, j) a_j.  The new build is within
        # gamma_(5n) B_k(Mag) of its exact value and the oracle's within gamma_(3n+2); their
        # factors' coefficient 1 and a + c differ by 10u at most: (18n + 3) u B_k(Mag) in all
        def bernstein(power):
            power = [Fraction(c) for c in power[::-1].tolist()]
            n = len(power) - 1
            return np.array([
                float(sum(Fraction(math.comb(k, j), math.comb(n, j)) * power[j] for j in range(k + 1)))
                for k in range(n + 1)
            ])

        certified = 0
        for w, v in list(_polynomial_cases(20)) + list(_seeded_pairs(21, 100)):
            new = orders._criterion_bernstein(*orders._bernstein_factors(_flat(w), _flat(v)))
            old = bernstein(golden_oracle.criterion_polynomial(w.pairs, v.pairs))
            mag = bernstein(_convolution_polynomial(w.pairs, v.pairs, magnitude=True))
            n = new.size - 1
            assert old.shape == new.shape and np.all(np.abs(new - old) <= (18 * n + 3) * 2.0**-53 * mag), (w, v)
            assert orders._bernstein_positive(new) == bool(np.all(old > 4.0 * (n + 4) * 2.0**-52 * 9.0))
            certified += orders._bernstein_positive(new)
        assert certified > 20

    def test_bernstein_certificate(self):
        positive = np.array([1.0, 2.0])  # 1 + x
        assert orders._bernstein_positive(positive)
        assert orders._bernstein_positive(np.array([orders.VERDICT_TOL]))  # identical channels
        interior_root = np.array([0.25, -0.25, 0.25])  # (x - 1/2)^2 >= 0, zero at 1/2
        end_touch = np.array([0.0, 0.5, 2.0])  # x (1 + x), zero at x = 0
        for b in (interior_root, end_touch):
            assert not orders._bernstein_positive(b)
        thin = np.array([1e-16])  # positive, but by less than its margin
        assert not orders._bernstein_positive(thin)

    def test_paper_check_never_searches(self, monkeypatch):
        # every less-noisy pair of paper-check that the half grid does not refute is
        # certified: the branch and bound behind the certificate never runs.  The checks run
        # here, in this process, where the calls are counted (run_checks forks workers)
        calls = []
        search = orders._dc_search
        monkeypatch.setattr(orders, "_dc_search", lambda *a: calls.append(len(a) == 5) or search(*a))
        for _, _, check in checks.CHECKS:
            check()
        assert True not in calls and len(calls) > 0

    def test_bernstein_gate_is_the_builds_last_coefficient(self):
        # the gate 1e-9 + sum k = 1e-9 + 4 (eta_KL(W) - eta_KL(V)) is the full build's b_n, bit for
        # bit up to the sign of a zero; where it misses the margin the full build fails the
        # certificate too, so skipping it changes nothing
        cases = list(_polynomial_cases(24)) + list(_seeded_pairs(25, 400))
        cases += [(ETA_PAIR_A, ETA_PAIR_B), (ETA_PAIR_A, ETA_PAIR_A)]
        skipped = 0
        for w, v in cases:
            k, a = orders._bernstein_factors(_flat(w), _flat(v))
            full, last = orders._criterion_bernstein(k, a), sum(k, orders.VERDICT_TOL)
            assert np.float64(last).tobytes() == full[-1].tobytes() or last == full[-1] == 0.0, (w, v)
            if not last > orders._bernstein_margin(len(k)):
                skipped += 1
                assert not orders._bernstein_positive(full), (w, v)
        assert skipped > 20

    def test_bernstein_factors_are_the_pairs_own(self):
        # one (k, a) per pair with p != p_-, read from its column with r0 > r1 of the flat
        # rows: as a multiset, numpy's (k, a) of the pairs themselves, bit for bit; of the rows
        # `_net_rows` leaves, zero entries and u^5 pairs of up to 128 pairs among them, numpy's
        # (k, a) of those columns in their order
        def hexed(k, a):
            return [(x.hex(), y.hex()) for x, y in zip(k, a)]

        def numpy_factors(w_pairs, v_pairs):
            p, pm = np.concatenate((w_pairs, v_pairs)).T
            s = p + pm
            k = np.repeat([4.0, -4.0], (len(w_pairs), len(v_pairs))) * (p - pm) ** 2 / s
            return hexed(k.tolist(), (4.0 * (p / s) * (pm / s)).tolist())

        netted = 0
        cases = list(_polynomial_cases(26)) + list(_seeded_pairs(27, 200)) + list(_less_noisy_differential_pairs())
        for w, v in cases:
            own = [pairs[pairs[:, 0] != pairs[:, 1]] for pairs in (canonicalize_biso(w).pairs, canonicalize_biso(v).pairs)]
            new = orders._bernstein_factors(_flat(w), _flat(v))
            assert Counter(hexed(*new)) == Counter(numpy_factors(*own)), (w, v)
            net = orders._net_rows(_flat(w), _flat(v))
            netted += net[0] is not _flat(w)
            assert hexed(*orders._bernstein_factors(*net)) == numpy_factors(*map(_pairs_of, net)), (w, v)
        assert len(cases) > 2500 and netted > 100

    def test_row_sums_are_the_row_loop_bitwise(self):
        # `_criterion` sums each side's rows by one numpy reduction at 2 or more
        # points and by a row loop at one: at 1, 2 and 500 points they are the loop's bits, on
        # pairs of 8 rows a side or more, where numpy's pairwise sum of one point rounds otherwise
        rng = np.random.default_rng(38)
        pairwise = 0
        for i in range(300):
            w, v = (_skewed_biso(rng, 64) for _ in "wv")
            if i % 3 == 0:
                w, v = _with_zeros(rng, w), _with_zeros(rng, v)
            rows = orders._flat_rows(_flat(w), _flat(v))
            if min(rows[1], rows[0].shape[1] - rows[1]) < 8:
                continue
            for qs in (rng.uniform(size=1), np.array([0.5]), np.sort(rng.uniform(size=2)), orders._HALF_GRID):
                old = golden_oracle.row_loop_ln_samples(rows, qs)
                assert orders._criterion(rows, qs).tobytes() == old[1].tobytes(), (w, v, qs)
                (a, b, c), n_w = rows
                terms = a / (qs * b + c)
                pairwise += qs.size == 1 and (terms[:n_w].sum(axis=0) - terms[n_w:].sum(axis=0)).tobytes() != old[1].tobytes()
        assert pairwise > 200  # a plain numpy sum at one point would fail here

    def test_high_degree_decision_skips_the_full_build(self, monkeypatch):
        # 2,048 pairs against an 8-pair garbling: b_n = 1e-9 + sum k clears the margin, but past
        # the degree limit the O(n^2) build (0.5 s on a 2-CPU Xeon host) never runs, and the
        # branch and bound decides
        raw = np.random.default_rng(5).uniform(0.02, 1.0, size=(2048, 2))
        w = BisoChannel(raw / raw.sum())
        v = random_degraded_biso(np.random.default_rng(7), w, max_pairs=8)
        k, a = orders._bernstein_factors(_flat(w), _flat(v))
        assert len(k) == 2056 > orders._CERTIFY_FIRST and sum(k, orders.VERDICT_TOL) > orders._bernstein_margin(len(k))

        def forbidden(*args):
            raise AssertionError("full Bernstein build at degree 2,056")

        monkeypatch.setattr(orders, "_criterion_bernstein", forbidden)
        start = time.perf_counter()
        assert is_less_noisy(w, v).holds
        assert time.perf_counter() - start < 0.5
        assert is_less_noisy(v, w).fails

    def test_certificate_is_bounded_at_high_degree(self):
        # 1,100 pairs against an 8-pair garbling: the product of the a_j underflows, and no
        # coefficient may overflow, warn or be kept; an (n + 1)^2 float matrix would be 9.8 MB
        raw = np.random.default_rng(5).uniform(0.02, 1.0, size=(1100, 2))
        w = BisoChannel(raw / raw.sum())
        v = random_degraded_biso(np.random.default_rng(7), w, max_pairs=8)
        assert v.num_pairs == 8
        rows = _flat(w), _flat(v)  # memoized on the channels: not the certificate's memory
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                certified = orders._bernstein_positive(orders._criterion_bernstein(*orders._bernstein_factors(*rows)))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(certified, bool)
        assert peak < 1e6 and kept < 1e4

    def test_matches_root_probe_oracle(self, monkeypatch):
        # wherever the half grid or the certificate decides, the verdict and witness are
        # the np.roots path's own; behind them the branch and bound finds what it found
        results, searched = [], []
        bernstein, search = orders._bernstein_positive, orders._dc_search
        monkeypatch.setattr(orders, "_bernstein_positive", lambda poly: results.append(bernstein(poly)) or results[-1])
        monkeypatch.setattr(orders, "_dc_search", lambda *a: searched.append(a) or search(*a))
        seen = Counter()
        for w, v in _less_noisy_differential_pairs():
            results.clear()
            searched.clear()
            new = is_less_noisy(w, v)
            try:
                old = golden_oracle.is_less_noisy(w, v)
            except np.linalg.LinAlgError:
                old = None
            dense = _dense_reference_min(w, v)
            assert new.relation != "undetermined", (w, v)
            if new.fails:
                q = new.witness.parameter
                assert 0.0 < q <= 0.5 and new.witness.value == less_noisy_criterion(w, v, q) < -1e-9
            else:
                assert dense >= -1e-9, (w, v)
            if old is None or (old.holds and dense < -1e-9):
                seen["oracle wrong"] += 1
            elif searched:
                seen["searched"] += 1
                assert new.relation == old.relation, (w, v)
            elif new != old:
                # a noiseless mass the oracle saw as 1 + 2.2e-16 against 1 nets to nothing
                seen["cancelled"] += 1
                assert new.holds and not any(side.size for side in orders._net_rows(_flat(w), _flat(v)))
            else:
                seen["certified" if any(results) else old.relation] += 1
        assert seen["certified"] > 1300 and seen["fails"] > 1000 and seen["searched"] > 20
        assert seen["oracle wrong"] > 0 and seen["cancelled"] == 1
        print(seen)

    def test_matches_the_grid_first_oracle_bitwise(self, monkeypatch):
        # the certificate runs ahead of the half grid up to the degree limit, and the search runs
        # on the chi-squared contraction curves: every relation and witness bit is the grid-first
        # path's, whose search ran on the criterion, and most holding pairs never sample the grid.
        # Each failing witness, of paper-check's pairs among them, is below -1e-9 exactly
        grids = []
        criterion = orders._criterion
        monkeypatch.setattr(orders, "_criterion", lambda *a: grids.append(1) or criterion(*a))
        certified_first = 0
        for w, v in _less_noisy_differential_pairs():
            grids.clear()
            new = is_less_noisy(w, v)
            certified_first += new.holds and not grids
            assert _same_bits(new, golden_oracle.grid_first_is_less_noisy(w, v)), (w, v)
            if new.fails:
                pairs = (canonicalize_biso(ch).pairs for ch in (w, v))
                assert exact_oracle.criterion(*pairs, new.witness.parameter) < -exact_oracle.TOL, (w, v)
        assert certified_first > 1000

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_interior_violation_past_the_degree_limit_fails_on_the_grid(self, n, monkeypatch):
        # a 2- against a 3-pair channel whose criterion dips to -20 near q = 0.005 while its b_n,
        # 1e-9 + sum k, clears the margin, padded with near-useless pairs of distinct ratios:
        # past the degree limit the half grid refutes it before any O(n^2) build, as fast as before
        rng = np.random.default_rng(n)
        w = _padded([(0.0, 0.166), (0.013, 0.82)], n, rng)
        v = _padded([(0.005, 0.017), (0.014, 0.007), (0.952, 0.005)], n, rng)
        k, a = orders._bernstein_factors(*orders._net_rows(_flat(w), _flat(v)))
        assert len(k) > orders._CERTIFY_FIRST and sum(k, orders.VERDICT_TOL) > orders._bernstein_margin(len(k))

        def forbidden(*args):
            raise AssertionError("full Bernstein build of a pair the half grid refutes")

        monkeypatch.setattr(orders, "_criterion_bernstein", forbidden)
        new, old = is_less_noisy(w, v), golden_oracle.grid_first_is_less_noisy(w, v)
        assert _same_bits(new, old) and new.fails and new.witness.value < -1.0
        times = {is_less_noisy: [], golden_oracle.grid_first_is_less_noisy: []}
        for _ in range(7):
            for decide, spent in times.items():
                start = time.perf_counter()
                decide(w, v)
                spent.append(time.perf_counter() - start)
        assert min(times[is_less_noisy]) <= 1.25 * min(times[golden_oracle.grid_first_is_less_noisy])

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_holding_pair_under_the_degree_limit_never_samples(self, n, monkeypatch):
        # a channel against itself with its first four pairs merged, a degraded copy: the other
        # pairs net away, and the certificate of the five left holds before any grid sample
        raw = np.random.default_rng(n).uniform(size=(n, 2))
        w = BisoChannel(raw / raw.sum())
        v = BisoChannel(np.vstack((w.pairs[:4].sum(axis=0), w.pairs[4:])))
        k, _ = orders._bernstein_factors(*orders._net_rows(_flat(w), _flat(v)))
        assert len(k) <= orders._CERTIFY_FIRST

        def forbidden(*args):
            raise AssertionError("half-grid sample of a pair the certificate decides")

        monkeypatch.setattr(orders, "_criterion", forbidden)
        assert is_less_noisy(w, v).holds

    def test_past_the_degree_limit_matches_the_late_certificate_bitwise(self, monkeypatch):
        # above the degree limit the certificate no longer runs behind the half grid: the search
        # decides every pair it would have certified, with the relation and witness bits of the
        # grid-first path, which still builds it.  Matched BEC/BSC, garbled, merged-pair and
        # independent pairs of 24 to 256 pairs a side, both ways round
        certified = []
        positive = orders._bernstein_positive
        monkeypatch.setattr(orders, "_bernstein_positive", lambda b: certified.append(positive(b)) or certified[-1])
        rng = np.random.default_rng(24)
        seen = Counter()
        for n in (24, 48, 96, 256):
            w = BisoChannel((raw := rng.uniform(0.02, 1.0, size=(n, 2))) / raw.sum())
            eta = eta_kl_biso(w)
            bec, bsc = (canonicalize_biso(ch) for ch in (make_bec(1.0 - eta), make_bsc((1.0 - math.sqrt(eta)) / 2.0)))
            merged = BisoChannel(w.pairs[0::2] + w.pairs[1::2])
            other = BisoChannel((raw := rng.uniform(0.02, 1.0, size=(n, 2))) / raw.sum())
            for a, b in ((bec, w), (w, bsc), (w, random_degraded_biso(rng, w, max_pairs=n)), (w, merged), (w, other)):
                for x, y in ((a, b), (b, a)):
                    assert sum(np.count_nonzero(r[0] > r[1]) for r in orders._net_rows(_flat(x), _flat(y))) > 20
                    new = is_less_noisy(x, y)
                    assert not certified
                    assert _same_bits(new, golden_oracle.grid_first_is_less_noisy(x, y)), (n, x, y)
                    seen[new.relation] += 1
                    seen["certified late"] += any(certified)
                    certified.clear()
        assert seen["holds"] >= 16 and seen["fails"] >= 16 and seen["certified late"] >= 8, seen

    def test_subnormal_entries_do_not_certify_a_violating_pair(self):
        # the first pair's criterion is -13334 at q = 1e-5; with 0.0 or 1e-300 in place of
        # 5e-324 it fails at q = 1.5625e-5.  BSC(a) is less noisy than BSC(b) iff a <= b
        w = BisoChannel([(0.5, 5e-324), (0.5 - 1e-5, 1e-5)])
        v = BisoChannel([(0.8, 5e-324), (0.1, 0.1)])
        assert less_noisy_criterion(w, v, 1e-5) < -1e4
        pairs = [(w, v), (canonicalize_biso(make_bsc(1e-310)), canonicalize_biso(make_bsc(5e-324)))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert [is_less_noisy(a, b).holds for a, b in pairs] == [False, False]


class TestNetRows:
    def test_net_rows_without_a_column_to_key(self):
        # r0 = r1 everywhere: no key, so the rows come back as they are, and nothing is reduced
        for a, b in ((make_bsc(0.5), make_bsc(0.5)), (make_bec(1.0), make_bsc(0.5)), (make_bsc(0.5), make_bec(1.0))):
            net = orders._net_rows(a.rows, b.rows)
            assert net[0] is a.rows and net[1] is b.rows
            assert is_more_capable(a, b).holds and is_less_noisy(a, b).holds
        empty = np.zeros((2, 0))
        assert all(side is empty for side in orders._net_rows(empty, empty))

    def test_net_rows_of_a_subnormal_first_column_stay_finite(self):
        # a group rescales its first column to the net mass: from a subnormal first column the scale
        # |net| / s overflowed, the netted rows held inf and NaN, and the pair held; the shares of
        # that column take the mass instead
        w = BisoChannel([(1.21512286998016e-310, 0.0), (0.7589778426390633, 0.24102215736093663)])
        v = BisoChannel([(1.9773820605095918e-300, 1.9773820605095918e-300), (0.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w_net, v_net = orders._net_rows(_flat(w), _flat(v))
            assert _pairs_of(v_net).tolist() == [[1.0, 0.0]] and np.isfinite(w_net).all()
            assert is_less_noisy(w, v).fails and not exact_oracle.is_less_noisy(w.pairs, v.pairs)

    def test_net_rows_key_a_column_of_zeros_without_a_warning(self):
        # 0 / 0 is never formed: a column no input reaches drops out like any with r0 = r1,
        # and the columns beside it net or come back as they are
        w = np.array([[0.6, 0.0, 0.4], [0.3, 0.0, 0.7]])
        v = np.array([[0.0, 0.6, 0.4], [0.0, 0.3, 0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(side.shape == (2, 0) for side in orders._net_rows(w, v))
            assert orders._net_rows(w, np.array([[0.5, 0.5], [0.2, 0.8]]))[0] is w
            assert is_more_capable(Channel(w), Channel(v)).holds

    def test_net_rows_keep_noiseless_columns_of_opposite_orientation(self):
        # (x, 0) and (0, x) both have t = 0; which row is larger tells them apart
        zero, one = np.array([[0.3], [0.0]]), np.array([[0.0], [0.3]])
        net = orders._net_rows(zero, one)
        assert net[0] is zero and net[1] is one
        w, v = np.array([[0.3, 0.0], [0.0, 0.3]]), np.array([[0.0, 0.3], [0.3, 0.0]])
        w_net, v_net = orders._net_rows(w, v)
        assert w_net.shape == v_net.shape == (2, 0)
        assert orders._net_rows(w, w[:, ::-1])[0].shape == (2, 0)

    def test_net_rows_net_a_pair_against_its_mirror(self):
        # the columns of the flat layout of a BISO channel and of its mirror net one by one
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = random_biso(rng, max_pairs=8)
            mirror = BisoChannel(w.pairs[::-1, ::-1])
            net = orders._net_rows(w.to_channel().rows, mirror.to_channel().rows)
            assert all(side.shape == (2, 0) for side in net)
            assert orders._bernstein_factors(*net) == ([], [])  # no pair is left to certify

    def test_net_rows_net_a_channel_against_itself_to_nothing(self):
        # flat rows against themselves and against their mirror, and BEC(eps) against itself
        rng = np.random.default_rng(29)
        cases = []
        for eps in (0.0, 0.3, 0.999):
            cases += [(make_bec(eps).rows, make_bec(eps).rows), (_flat(make_bec(eps)), _flat(make_bec(eps)))]
        for _ in range(20):
            w = _with_zeros(rng, random_biso(rng, max_pairs=8))
            cases += [(_flat(w), _flat(w)), (_flat(w), _flat(BisoChannel(w.pairs[::-1, ::-1])))]
        for a, b in cases:
            assert all(side.shape == (2, 0) for side in orders._net_rows(a, b)), (a, b)

    def test_net_rows_net_columns_of_one_ratio_within_a_channel(self):
        # (0.2, 0.1) and (0.4, 0.2) share t = 1/3 bit for bit: one column of mass 0.9 is left
        w = np.array([[0.2, 0.4, 0.4], [0.1, 0.2, 0.7]])
        v = np.array([[0.3, 0.7], [0.6, 0.4]])
        w_net, v_net = orders._net_rows(w, v)
        assert np.allclose(w_net, [[0.6, 0.4], [0.3, 0.7]], rtol=0.0, atol=1e-15)
        assert w_net[:, 1].tolist() == [0.4, 0.7] and v_net.tolist() == v.tolist()
        # the first column of a group keeps its place, and netted columns keep their order
        w_net, _ = orders._net_rows(w[:, ::-1], np.zeros((2, 0)))
        assert w_net[:, 0].tolist() == [0.4, 0.7]
        assert np.allclose(w_net[:, 1], [0.6, 0.3], rtol=0.0, atol=1e-15)


def _grid_oracle(w, v):
    """The less-noisy decision the exact one replaced: a 999-point q-grid,
    golden refinement around dips, then a re-check of the minimum.

    Returns (whether the grid itself shows a violation, the verdict).
    """
    qs = np.arange(1, 1000) / 1000.0
    vals = _curvature_sum(w, qs) - _curvature_sum(v, qs)

    def f(q):
        return float((_curvature_sum(w, [q]) - _curvature_sum(v, [q]))[0])

    best_x, best_v = golden_oracle.refined_minimum(qs, vals, f)
    return bool(vals.min() < -1e-9), golden_oracle.verdict_from_minimum(best_x, best_v, f)


def _curvature_sum(biso, qs):
    """The q-form curvature sum the flat-row kernel replaced: sum over pairs of
    (p - p_-)^2 / (s conv (1 - conv)), conv = q (1 - delta) + (1 - q) delta,
    delta = p / s.  conv (1 - conv) cancels as q -> 0 when delta is near 1.
    """
    p = biso.pairs[:, 0][None, :]
    pm = biso.pairs[:, 1][None, :]
    s = p + pm
    keep = s > 0.0
    safe_s = np.where(keep, s, 1.0)
    delta = np.where(keep, p / safe_s, 0.0)
    weight = np.where(keep, (p - pm) ** 2 / safe_s, 0.0)
    q = np.asarray(qs, dtype=float)[:, None]
    conv = q * (1.0 - delta) + (1.0 - q) * delta
    den = conv * (1.0 - conv)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(keep & (den > 0.0), weight / np.where(den > 0.0, den, 1.0), np.inf)
        terms = np.where(keep, terms, 0.0)
    return terms.sum(axis=1)


def _convolution_polynomial(w_pairs, v_pairs, magnitude=False):
    """The polynomial of `golden_oracle.criterion_polynomial` as it was first built:
    one chain of np.convolve per dropped factor, quadratic in the pairs.
    With magnitude=True every k enters as |k|, which bounds each coefficient's
    terms, since the factors' coefficients are nonnegative.
    """
    pairs = np.concatenate((w_pairs, v_pairs))
    moving = pairs[:, 0] != pairs[:, 1]
    p, pm = pairs[moving].T
    s = p + pm
    k = np.repeat([4.0, -4.0], (len(w_pairs), len(v_pairs)))[moving] * (p - pm) ** 2 / s
    if magnitude:
        k = np.abs(k)
    factors = np.stack((((p - pm) / s) ** 2, 4.0 * p * pm / s**2), axis=1)
    poly = orders.VERDICT_TOL * functools.reduce(np.convolve, factors, np.ones(1))
    for i in range(k.size):
        poly[1:] += k[i] * functools.reduce(np.convolve, np.delete(factors, i, axis=0), np.ones(1))
    return poly


def _prefix_convolution_polynomial(w, v):
    """`golden_oracle.criterion_polynomial` as it was: a running product and a
    running sum, two np.convolve per factor."""
    pairs = np.concatenate((w.pairs, v.pairs))
    moving = pairs[:, 0] != pairs[:, 1]
    p, pm = pairs[moving].T
    s = p + pm
    k = np.repeat([4.0, -4.0], (w.num_pairs, v.num_pairs))[moving] * (p - pm) ** 2 / s
    prod, acc = np.ones(1), np.zeros(1)
    for ki, factor in zip(k.tolist(), np.stack((((p - pm) / s) ** 2, 4.0 * p * pm / s**2), axis=1)):
        acc = np.convolve(acc, factor)
        acc[1:] += ki * prod
        prod = np.convolve(prod, factor)
    return orders.VERDICT_TOL * prod + acc


def _flat(ch):
    """The canonical flat rows of a BISO channel, as `is_less_noisy` reads them."""
    return canonicalize_biso(ch).to_channel().rows


def _same_bits(new, old):
    """Whether two verdicts have one relation and witnesses of the same bits."""
    def bits(verdict):
        w = verdict.witness
        return verdict.relation, None if w is None else (w.parameter.hex(), w.value.hex())

    return bits(new) == bits(old)


def _padded(pairs, n, rng):
    """A channel of n pairs: the given pairs, normalized, at half the mass, and near-useless
    pairs (p, p_-) of distinct (p - p_-) / (p + p_-) in [1e-5, 1e-4] at the other half."""
    pairs = np.array(pairs) / np.sum(pairs) / 2.0
    delta = rng.uniform(1e-5, 1e-4, size=n - len(pairs))
    useless = np.stack((1.0 + delta, 1.0 - delta), axis=1) / (4.0 * delta.size)
    return BisoChannel(np.vstack((pairs, useless)))


def _pairs_of(rows):
    """The pairs (p, p_-), p > p_-, of flat rows: their columns with r0 > r1."""
    return rows[:, rows[0] > rows[1]].T


def _forbidden_search(*args):
    raise AssertionError("the branch and bound ran on a pair decided before it")


def _confirm_with(monkeypatch, value):
    """Make `orders._confirmed` see f = value on all of the pair's rows."""
    confirmed = orders._confirmed
    monkeypatch.setattr(orders, "_confirmed", lambda verdict, f: confirmed(verdict, lambda xs: np.full(xs.shape, value)))


def _flat_rows_of_channels(w, v):
    """`orders._flat_rows` rebuilt from the rows of the flat Channels, a
    BisoChannel's built as `to_channel` built them; a noiseless row (r1 = 0)
    is (d, 1, 0) and a row with r0 = 0 is (-d, -1, 1)."""

    def flat(ch):
        if isinstance(ch, BisoChannel):
            row = np.concatenate([ch.pairs[::-1, 1], ch.pairs[:, 0]])
            return Channel([row, row[::-1]], tol=1e-9)
        return ch

    w_ch, v_ch = flat(w), flat(v)
    r0, r1 = np.concatenate((w_ch.rows, v_ch.rows), axis=1)
    d = r0 - r1
    keep = d != 0.0
    one = np.ones_like(d)
    terms = np.where(r1 == 0.0, np.stack((d, one, r1)), np.stack((d * d, d, r1)))
    terms = np.where(r0 == 0.0, np.stack((-d, -one, one)), terms)
    return terms[:, keep, None], int(np.count_nonzero(keep[: w_ch.n_outputs]))


def _polynomial_cases(seed):
    """Seeded pairs of 1-32 pairs each, every third with zero entries, and the
    pair whose poles lie within 1e-4 of q = 0."""
    rng = np.random.default_rng(seed)
    yield NEAR_POLE_W, NEAR_POLE_V
    for n in range(1, 33):
        w, v = _skewed_biso(rng, n), _skewed_biso(rng, n)
        if n % 3 == 0:
            w, v = _with_zeros(rng, w), _with_zeros(rng, v)
        yield w, v


_DEEP_QS = np.concatenate((np.logspace(-300, -3, 3000), np.linspace(1e-3, 0.5, 4000)))


def _dense_reference_min(w, v, qs=_DEEP_QS):
    """The least value, less its roundoff, of the criterion on a dense q-grid
    (by default log-spaced down to 1e-300, plus uniform; the criterion is
    symmetric under q -> 1 - q).  It uses conv(1 - conv) = q(1 - q) +
    (1 - 2q)^2 p p_- / s^2, which keeps its precision as q -> 0.
    """
    q = qs[:, None]
    total = magnitude = 0.0
    for biso, sign in ((w, 1.0), (v, -1.0)):
        p, pm = biso.pairs[:, 0], biso.pairs[:, 1]
        s = np.where(p + pm > 0.0, p + pm, 1.0)
        terms = (p - pm) ** 2 / s / (q * (1.0 - q) + (1.0 - 2.0 * q) ** 2 * p * pm / s**2)
        total = total + sign * terms.sum(axis=1)
        magnitude = magnitude + terms.sum(axis=1)
    return float(np.min(total + 1e-14 * magnitude))


@functools.lru_cache(maxsize=1)
def _check_pairs():
    """Every pair checks 05, 09, 10 and 12 of `paper-check` hand to `is_less_noisy`, with
    check 10's bisections run unguessed, so that they ask every midpoint as they did."""
    pairs = []

    def recording(w, v):
        pairs.append((w, v))
        return is_less_noisy(w, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "is_less_noisy", recording)
        mp.setattr(extremal, "is_less_noisy", recording)
        mp.setattr(extremal, "bisect_threshold", lambda pred, lo, hi, xtol, guess=None: bisect_threshold(pred, lo, hi, xtol))
        for check in (
            checks.check_less_noisy_sandwich, checks.check_dim3_comparability,
            checks.check_reverse_coefficients, checks.check_order_hierarchy,
        ):
            check()
    return tuple(pairs)


@functools.lru_cache(maxsize=1)
def _check12_more_capable_pairs():
    """The 500 pairs of check 12 of `paper-check`, drawn in its order, as channels."""
    rng = np.random.default_rng(20240212)
    pairs = []
    for trial in range(500):
        p = random_biso(rng, max_pairs=4)
        q = random_degraded_biso(rng, p) if trial % 2 == 0 else random_biso(rng, max_pairs=4)
        pairs.append((p.to_channel(), q.to_channel()))
    return tuple(pairs)


def _less_noisy_differential_pairs():
    """The `paper-check` pairs; random, garbled, touching BEC/BSC and zero-entry
    pairs in both directions; lopsided pairs with u^3 and u^5 entries of up to
    64 pairs each, and u^5 entries of 96 and 128 pairs."""
    yield from _check_pairs()
    for w, v in _seeded_pairs(42, 200):
        yield w, v
        yield v, w
    rng = np.random.default_rng(43)
    for power in (3, 5):
        for n in (8, 16, 24, 32, 48, 64):
            for _ in range(12):
                a, b = rng.uniform(size=(n, 2)) ** power, rng.uniform(size=(n, 2)) ** power
                yield BisoChannel(a / a.sum()), BisoChannel(b / b.sum())
    for n in (96, 128):
        for _ in range(6):
            a, b = rng.uniform(size=(n, 2)) ** 5, rng.uniform(size=(n, 2)) ** 5
            yield BisoChannel(a / a.sum()), BisoChannel(b / b.sum())


def _skewed_biso(rng, max_pairs=8):
    """A random channel with cubed uniform entries, so some pairs are lopsided."""
    raw = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, max_pairs + 1)), 2)) ** 3
    return BisoChannel(raw / raw.sum())


def _with_zeros(rng, biso):
    """The channel with about a third of its entries set to zero, renormalized."""
    pairs = np.where(rng.random(biso.pairs.shape) < 0.35, 0.0, biso.pairs)
    if pairs.sum() == 0.0:
        pairs[0, 0] = 1.0
    return BisoChannel(pairs / pairs.sum())


def _seeded_pairs(seed, n):
    """Random, garbled, touching BEC/BSC and zero-entry pairs of 1-8 pairs each."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        w = random_biso(rng, max_pairs=8)
        kind = i % 4
        if kind == 0:
            w, v = _skewed_biso(rng), _skewed_biso(rng)
        elif kind == 1:
            v = random_degraded_biso(rng, w, max_pairs=8)
        elif kind == 2:
            eta = eta_kl_biso(w)
            bec, bsc = make_bec(1.0 - eta), make_bsc((1.0 - math.sqrt(eta)) / 2.0)
            v = canonicalize_biso(bec if i % 8 == 2 else bsc)
        else:
            w, v = _with_zeros(rng, w), _with_zeros(rng, random_biso(rng, max_pairs=8))
        yield (w, v) if rng.random() < 0.5 else (v, w)


def _mc_pairs(seed, n):
    """Check-12 degraded and independent pairs, capacity-matched BEC/BSC
    pairs touching at x = 1/2, zero-entry pairs, Z pairs and general
    binary-input pairs, each in a random direction."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        kind = i % 6
        p = random_biso(rng, max_pairs=4)
        if kind == 0:
            a, b = p, random_degraded_biso(rng, p)
        elif kind == 1:
            a, b = p, random_biso(rng, max_pairs=4)
        elif kind == 2:
            cap = capacity_binary(p.to_channel())
            a, b = p, make_bec(1.0 - cap) if i % 12 == 2 else make_bsc(h2_inv(1.0 - cap))
        elif kind == 3:
            a, b = _with_zeros(rng, p), _with_zeros(rng, random_biso(rng, max_pairs=8))
        elif kind == 4:
            a = make_z(float(rng.uniform(0.05, 0.95)))
            b = make_z(float(rng.uniform(0.05, 0.95))) if i % 12 == 4 else make_bsc(h2_inv(1.0 - capacity_binary(a)))
        else:
            a, b = random_binary_channel(rng), random_binary_channel(rng)
        a, b = (as_channel(c) for c in (a, b))
        yield (a, b) if rng.random() < 0.5 else (b, a)


def _netting_pairs(seed, n):
    """Pairs of Z, BEC, BSC, 2-6-output channels with zero entries and general
    channels, drawn at random: noiseless and erasure columns are shared often."""
    rng = np.random.default_rng(seed)

    def draw():
        u = float(rng.uniform(0.02, 0.98))
        kind = int(rng.integers(5))
        if kind < 3:
            return (make_z, make_bec, make_bsc)[kind](u / (1.0 + (kind == 2)))
        return _general_channel(rng, zeros=kind == 3)

    for _ in range(n):
        yield draw(), draw()


def _open_coarse_interior(sample, xs):
    """Whether a sample of `_dc_search`'s coarse round is below -1e-9, and the indices of the
    grid points inside the coarse cells it leaves open: those whose `_dc_bounds`, NaN too,
    are not above the coarse minimum + 2e-9 if so, else not at least -1e-9."""
    at = np.arange(0, xs.size, orders._COARSE)
    assert at[-1] == xs.size - 1
    coarse = sample(xs[at])
    low, bounds = coarse[1].min(), orders._dc_bounds(coarse[:, :-1], coarse[:, 1:])
    fails = low < -orders.VERDICT_TOL
    shut = bounds > low + 2.0 * orders.VERDICT_TOL if fails else bounds >= -orders.VERDICT_TOL
    inside = [np.arange(at[j] + 1, at[j + 1]) for j in np.flatnonzero(~shut)]
    return fails, np.concatenate(inside or [np.zeros(0, dtype=int)])


def _general_outputs(n, seed):
    """The rows of a general channel of n outputs with entries in U[0.02, 1), an
    output index and the generator that drew them."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.02, 1.0, size=(2, n))
    return raw / raw.sum(axis=1, keepdims=True), int(rng.integers(n)), rng


_DENSE_XS = np.unique(
    np.concatenate((np.logspace(-15, -1, 4000), 1.0 - np.logspace(-15, -1, 4000), np.linspace(0.0, 1.0, 8001)))
)


def _dense_mc_reference_fails(a, b):
    """Whether I_A - I_B falls below -1e-9 by more than its roundoff on a dense
    bias grid, log-spaced down to 1e-15 from both ends and uniform inside."""
    ia, ib = mutual_information_grid(a, _DENSE_XS), mutual_information_grid(b, _DENSE_XS)
    return bool(np.any(ia - ib + 1e-14 * (ia + ib + 1.0) < -1e-9))


class TestIsMoreCapable:
    def test_self_comparison_holds(self):
        ch = ETA_PAIR_A.to_channel()
        assert is_more_capable(ch, ch).holds

    def test_bsc_ordering(self):
        assert is_more_capable(make_bsc(0.1), make_bsc(0.4)).holds
        verdict = is_more_capable(make_bsc(0.4), make_bsc(0.1))
        assert verdict.fails
        x = verdict.witness.parameter
        assert mutual_information_difference(make_bsc(0.4), make_bsc(0.1), x) < -1e-9

    def test_z_and_matched_bsc_are_incomparable(self):
        # capacity-matched Z and BSC each win on part of the bias range
        q = 0.5
        z = make_z(q)
        p = h2_inv(1.0 - capacity_binary(z))
        bsc = make_bsc(p)
        assert is_more_capable(bsc, z).fails
        assert is_more_capable(z, bsc).fails

    def test_difference_rejects_biases_outside_the_unit_interval(self):
        a, b = make_bsc(0.1), make_bsc(0.2)
        for x in (1.5, -0.1, math.nan, math.inf):
            with pytest.raises(ParameterOutOfRangeError):
                mutual_information_difference(a, b, x)
        assert mutual_information_difference(a, b, 0.0) == mutual_information_difference(a, b, 1.0) == 0.0

    def test_violation_below_the_first_grid_point(self):
        # I_A - I_B dips to about -1.8e-5 near x = 6e-5, inside the first grid cell
        a, b = make_bsc(0.1), Channel([[0.2, 0.8], [0.0, 1.0]])
        verdict = is_more_capable(a, b)
        assert verdict.fails
        x = verdict.witness.parameter
        assert 0.0 < x < 1e-3
        assert verdict.witness.value == mutual_information_difference(a, b, x) < -1e-9
        assert golden_oracle.is_more_capable(a, b) == (False, orders.OrderVerdict("holds"))

    def test_matches_golden_oracle(self):
        mirrored = 0
        for a, b in _mc_pairs(31, 120):
            grid_shows, old = golden_oracle.is_more_capable(a, b)
            new = is_more_capable(a, b)
            if grid_shows and orders._symmetric(a) and orders._symmetric(b):
                # only [0, 1/2] is searched: the grid argmin or its mirror, x -> 1 - x
                x_old, x_new = old.witness.parameter, new.witness.parameter
                assert new.fails and x_new <= 0.5, (a, b)
                assert min(abs(x_new - x_old), abs(x_new - (1.0 - x_old))) <= 1e-15, (a, b)
                assert new.witness.value < -1e-9
                mirrored += x_old > 0.5
            elif grid_shows:
                assert new == old, (a, b)  # the grid argmin, to the last bit
            elif new.relation != old.relation:
                # only a violation the grid missed may change the verdict
                assert new.fails, (a, b)
                assert mutual_information_difference(a, b, new.witness.parameter) < -1e-9
            assert new.relation in ("holds", "fails")
        assert mirrored > 0

    def test_matches_the_full_grid_oracle_bitwise(self, monkeypatch):
        # the coarse pass, the unmasked kernel and the unconfirmed un-netted samples move no
        # relation and no witness bit; the coarse pass alone decides many holding pairs
        cases = list(_mc_pairs(7, 600)) + list(_netting_pairs(8, 600)) + list(_check12_more_capable_pairs())
        assert len(cases) == 1700
        rounds = []
        sample = orders._mc_samples
        monkeypatch.setattr(orders, "_mc_samples", lambda rows, xs: rounds.append(xs.size) or sample(rows, xs))
        coarse_only = 0
        for a, b in cases:
            rounds.clear()
            new = is_more_capable(a, b)
            coarse_only += new.holds and len(rounds) == 1
            assert _same_bits(new, golden_oracle.full_grid_is_more_capable(a, b)), (a, b)
        assert coarse_only > 300

    def test_one_round_samples_inside_the_open_coarse_cells(self):
        # past the coarse round one call samples exactly the grid points inside the coarse cells
        # left open, so never a point of a certified cell, and the halving rounds then sample the
        # full-grid search's midpoints: a failing coarse round opens the cells where the argmin
        # of xs can lie, any other the cells it did not certify.  No verdict or witness bit moves
        held, failed, points = 0, 0, []
        for a, b in list(_mc_pairs(7, 300)) + list(_netting_pairs(8, 300)):
            xs = orders._MC_HALF if orders._symmetric(a) and orders._symmetric(b) else orders._MC_GRID
            rows = orders._net_rows(a.rows, b.rows)
            calls = {"new": [], "old": []}

            def counted(key):
                return lambda pts: calls[key].append(pts) or orders._mc_samples(rows, pts)

            new = orders._dc_search(counted("new"), xs, orders._MIN_CELL, orders._MC_CELLS)
            old = golden_oracle.full_grid_dc_search(counted("old"), xs, orders._MIN_CELL, orders._MC_CELLS)
            assert _same_bits(new, old), (a, b)
            coarse_fails, inside = _open_coarse_interior(functools.partial(orders._mc_samples, rows), xs)
            assert calls["new"][0].tobytes() == xs[:: orders._COARSE].tobytes(), (a, b)
            if not inside.size:  # nothing open: the coarse round held
                assert new.holds and len(calls["new"]) == 1, (a, b)
                continue
            assert calls["new"][1].tobytes() == xs[inside].tobytes(), (a, b)
            assert [c.tobytes() for c in calls["new"][2:]] == [c.tobytes() for c in calls["old"][1:]], (a, b)
            if coarse_fails:
                failed += 1
                assert new.fails and len(calls["new"]) == 2, (a, b)
            else:
                held += 1
            points.append((inside.size, xs.size - xs[:: orders._COARSE].size))
        assert failed > 300 and held > 20
        open_points, grid_points = np.sum(points, axis=0)
        assert open_points < grid_points / 4
        print(f"{failed} failing and {held} holding coarse rounds sampled {open_points} of {grid_points} points")

    def test_symmetric_channels(self):
        shuffled = Channel(ETA_PAIR_A.to_channel().rows[:, [1, 0, 2, 3]])  # not the flat layout
        for ch in (make_bsc(0.2), make_bec(0.3), ETA_PAIR_A.to_channel(), shuffled, make_bsc(0.0)):
            assert orders._symmetric(ch)
        off = Channel([[0.2, 0.8], [0.8 + 2**-52, 0.2 - 2**-52]])  # within every tolerance, not exact
        for ch in (make_z(0.3), off, Channel([[0.5, 0.5], [0.25, 0.75]])):
            assert not orders._symmetric(ch)

    def test_half_interval_agrees_with_the_whole(self, monkeypatch):
        # symmetric pairs search [0, 1/2]; the whole interval gives the same relation
        pairs = [
            (a, b) for a, b in _mc_pairs(34, 120) if orders._symmetric(a) and orders._symmetric(b)
        ]
        half = [is_more_capable(a, b) for a, b in pairs]
        monkeypatch.setattr(orders, "_symmetric", lambda ch: False)
        whole = [is_more_capable(a, b) for a, b in pairs]
        assert len(pairs) > 40 and {v.relation for v in half} == {"holds", "fails"}
        for (a, b), h, f in zip(pairs, half, whole):
            assert h.relation == f.relation, (a, b)
            if h.fails:
                assert 0.0 <= h.witness.parameter <= 0.5
                assert h.witness.value == mutual_information_difference(a, b, h.witness.parameter) < -1e-9

    def test_agrees_with_dense_reference(self):
        outcomes = {"holds": 0, "fails": 0}
        for a, b in _mc_pairs(32, 160):
            verdict = is_more_capable(a, b)
            outcomes[verdict.relation] += 1
            if _dense_mc_reference_fails(a, b):
                assert verdict.fails, (a, b)
            if verdict.fails:
                assert mutual_information_difference(a, b, verdict.witness.parameter) < -1e-9
        assert min(outcomes.values()) > 40

    def test_infinite_end_slopes(self):
        # zero-mass outputs at x = 0 or 1 make I' infinite there; the other tangent bounds the cell
        bec, z = make_bec(0.3), make_z(0.3)
        for a, b, relation in (
            (bec, bec, "holds"), (z, z, "holds"), (make_bsc(0.0), make_bec(0.5), "holds"),
            (make_bec(0.3), make_bec(0.5), "holds"), (make_bec(0.5), make_bec(0.3), "fails"),
            (make_bsc(0.0), make_bsc(0.0), "holds"),
        ):
            assert is_more_capable(a, b).relation == relation

    def test_undetermined_when_no_cell_may_be_halved(self, monkeypatch):
        # I_A - I_B >= 0, but the cells at the ends need halving; two BSCs share no
        # likelihood ratio, so nothing nets and the search meets the min-cell stop
        a, b = make_bsc(0.1), make_bsc(0.1 + 1e-6)
        assert orders._net_rows(a.rows, b.rows)[0] is a.rows
        assert is_more_capable(a, b).holds
        monkeypatch.setattr(orders, "_MIN_CELL", 2e-3)
        verdict = is_more_capable(a, b)
        assert verdict.relation == "undetermined"
        assert -1e-3 < verdict.witness.value < -1e-9

    def test_large_self_comparison_is_bounded(self):
        # f = 0 everywhere, so every cell is halved until its bound clears -1e-9
        rng = np.random.default_rng(33)
        raw = rng.uniform(0.0, 1.0, size=(2, 64)) ** 3
        raw[rng.uniform(size=(2, 64)) < 0.3] = 0.0
        ch = Channel(raw / raw.sum(axis=1, keepdims=True))
        start = time.perf_counter()
        assert is_more_capable(ch, ch).holds
        assert time.perf_counter() - start < 1.5
        tracemalloc.start()
        try:
            assert is_more_capable(ch, ch).holds
            assert tracemalloc.get_traced_memory()[1] < 100e6
        finally:
            tracemalloc.stop()


    def test_netting_moves_no_relation(self, monkeypatch):
        # Z, BEC and BSC families and 2-6-output channels with zero entries, whose noiseless
        # and erasure columns net: the searches on netted and on all columns agree
        cases = list(_netting_pairs(35, 600))
        shared = sum(orders._net_rows(a.rows, b.rows)[0] is not a.rows for a, b in cases)
        netted = [is_more_capable(a, b) for a, b in cases]
        monkeypatch.setattr(orders, "_net_rows", lambda w_rows, v_rows: (w_rows, v_rows))
        moved = 0
        for (a, b), new in zip(cases, netted):
            old = is_more_capable(a, b)
            assert new.relation == old.relation, (a, b)
            moved += new != old
            if new.fails:
                assert new.witness.value == mutual_information_difference(a, b, new.witness.parameter) < -1e-9
        assert shared > 200 and {v.relation for v in netted} == {"holds", "fails"}
        print(f"{shared} of {len(cases)} pairs netted, {moved} witnesses moved")

    def test_unconfirmed_sample_is_an_undetermined_cell(self, monkeypatch):
        # the rule of less-noisy: a sample of netted rows that the two channels do not
        # confirm is the cell [x, x]; Z(0.6) and Z(0.3) share their noiseless column
        a, b = make_z(0.6), make_z(0.3)
        assert orders._net_rows(a.rows, b.rows)[0] is not a.rows
        fails = is_more_capable(a, b)
        assert fails.fails and fails.witness.value == mutual_information_difference(a, b, fails.witness.parameter)
        _confirm_with(monkeypatch, 0.0)
        verdict = is_more_capable(a, b)
        assert verdict.relation == "undetermined" and verdict.witness.value < -1e-9
        assert verdict.witness.parameter == fails.witness.parameter

    def test_confirmation_kernels_are_the_public_criteria_bitwise(self):
        # `_confirmed` re-values a failing sample by the order's own function on all rows:
        # that is less_noisy_criterion and mutual_information_difference, bit for bit
        failing = 0
        for w, v in _seeded_pairs(31, 200):
            verdict = is_less_noisy(w, v)
            if verdict.fails:
                q = verdict.witness.parameter
                at = orders._criterion(orders._flat_rows(_flat(w), _flat(v)), np.array([q]))[0]
                assert at.hex() == less_noisy_criterion(w, v, q).hex() == verdict.witness.value.hex()
                failing += 1
        for a, b in list(_mc_pairs(32, 200)) + list(_netting_pairs(33, 200)):
            verdict = is_more_capable(a, b)
            if verdict.fails:
                x = verdict.witness.parameter
                at = orders._mc_samples((a.rows, b.rows), np.array([x]))[1, 0]
                assert at.hex() == mutual_information_difference(a, b, x).hex() == verdict.witness.value.hex()
                failing += 1
        assert failing > 200

    def test_slices_sample_as_one_round(self, monkeypatch):
        # a round sampled in slices of 100 biases is the round sampled at once, bit for bit
        rng = np.random.default_rng(37)
        rows = (_general_channel(rng, zeros=True).rows, _general_channel(rng).rows)
        whole = orders._mc_samples(rows, orders._MC_GRID)
        monkeypatch.setattr(orders, "_TERMS", 4 * 100 * (rows[0].shape[1] + rows[1].shape[1]))
        sizes = []
        slope = orders._mutual_information_and_slope
        monkeypatch.setattr(
            orders, "_mutual_information_and_slope", lambda r, xs: sizes.append(xs.size) or slope(r, xs)
        )
        assert orders._mc_samples(rows, orders._MC_GRID).tobytes() == whole.tobytes()
        assert sizes == [100] * 10 + [1]

    @pytest.mark.parametrize("n", [128, 256, 1024])
    def test_large_near_self_comparisons_net_at_once(self, n):
        # against itself, a column-shuffled copy or one column halved, every column nets
        w, i, rng = _general_outputs(n, 5)
        halved = np.hstack((np.delete(w, i, axis=1), w[:, [i]] / 2.0, w[:, [i]] / 2.0))
        for other in (w, w[:, rng.permutation(n)], halved):
            for a, b in ((w, other), (other, w)):
                a, b = Channel(a), Channel(b)
                tracemalloc.start()
                try:
                    start = time.perf_counter()
                    assert is_more_capable(a, b).holds
                    assert time.perf_counter() - start < 0.05
                    assert tracemalloc.get_traced_memory()[1] < 1e6
                finally:
                    tracemalloc.stop()

    def test_large_split_comparisons_are_bounded(self, monkeypatch):
        # one column split at t and the rows renormalized: few columns net, f is 0 up to
        # roundoff, and each round is sampled in slices of at most 2^20 biases times columns
        sizes = []
        slope = orders._mutual_information_and_slope
        monkeypatch.setattr(
            orders, "_mutual_information_and_slope", lambda rows, xs: sizes.append(xs.size) or slope(rows, xs)
        )
        open_rounds = 0
        for n in (256, 512, 1024):
            for seed in range(6):
                w, i, rng = _general_outputs(n, seed)
                t = float(rng.uniform(0.1, 0.9))
                split = np.hstack((np.delete(w, i, axis=1), w[:, [i]] * t, w[:, [i]] * (1.0 - t)))
                a, b = Channel(w), Channel(split / split.sum(axis=1, keepdims=True))
                rows = orders._net_rows(a.rows, b.rows)
                columns = sum(side.shape[1] for side in rows)
                inside = _open_coarse_interior(functools.partial(orders._mc_samples, rows), orders._MC_GRID)[1]
                sizes.clear()
                tracemalloc.start()
                try:
                    assert is_more_capable(a, b).holds
                    assert tracemalloc.get_traced_memory()[1] < 64e6
                finally:
                    tracemalloc.stop()
                # the coarse pass comes first; where it leaves cells open, one round of the grid
                # points inside them follows, in slices, and then the halving rounds
                step = orders._TERMS // 4 // max(columns, 1)
                slices = [min(step, inside.size - j) for j in range(0, inside.size, step)]
                assert sizes[0] == orders._MC_GRID[:: orders._COARSE].size
                assert sizes[1 : 1 + len(slices)] == slices
                open_rounds += len(slices) > 0
                assert max(sizes) * columns <= orders._TERMS // 4
        assert open_rounds >= 12


class TestIsDegraded:
    def test_self_degradation_holds_with_valid_witness(self):
        ch = ETA_PAIR_A.to_channel()
        verdict = is_degraded(ch, ch)
        assert verdict.holds
        assert isinstance(verdict.witness, DegradingMap)
        np.testing.assert_allclose(compose(ch, verdict.witness).rows, ch.rows, atol=1e-8)

    def test_constructed_degradation_recovered(self):
        rng = np.random.default_rng(6)
        base = random_biso(rng, max_pairs=3)
        post = rng.dirichlet(np.ones(4), size=base.to_channel().n_outputs)
        target = compose(base.to_channel(), post)
        verdict = is_degraded(base.to_channel(), target)
        assert verdict.holds
        np.testing.assert_allclose(
            compose(base.to_channel(), verdict.witness).rows, target.rows, atol=1e-8
        )

    def test_bec_dominates_any_binary_channel_at_its_doeblin_coefficient(self):
        from bisochan import doeblin_alpha

        for ch in (make_z(0.35), ALPHA_PAIR_F.to_channel(), make_bsc(0.2)):
            alpha = doeblin_alpha(ch)
            assert is_degraded(make_bec(alpha), ch).holds
            # strictly smaller erasure probability is strictly more informative
            if alpha > 0.05:
                assert is_degraded(make_bec(alpha - 0.05), ch).holds

    def test_counterexample_fails_both_directions_with_refutation(self):
        f = ALPHA_PAIR_F.to_channel()
        g = ALPHA_PAIR_G.to_channel()
        for a, b, ba, bb in ((f, g, ALPHA_PAIR_F, ALPHA_PAIR_G), (g, f, ALPHA_PAIR_G, ALPHA_PAIR_F)):
            verdict = is_degraded(a, b)
            assert verdict.fails
            cert = verdict.witness
            assert isinstance(cert, InfeasibilityCertificate)
            assert cert.guessing_x is not None
            gap = guessing_probability(bb, cert.guessing_x) - guessing_probability(ba, cert.guessing_x)
            assert gap > 1e-9

    def test_mixed_alphabet_sizes(self):
        # degrading a 4-output channel onto its own 2-output collapse
        f = ALPHA_PAIR_F.to_channel()
        collapse = np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]])
        target = compose(f, collapse)
        assert is_degraded(f, target).holds
        assert is_degraded(target, f).fails

    def test_matches_lp_oracle(self):
        outcomes = {True: 0, False: 0}
        for p, q in _degradation_pairs(21):
            holds = is_degraded(p, q, witness=False).holds
            assert holds == _lp_oracle(p, q), (p, q)
            outcomes[holds] += 1
        assert min(outcomes.values()) > 100

    def test_relation_never_builds_a_witness(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("degrading map built on the relation-only path")

        monkeypatch.setattr(orders, "_degrading_map", forbidden)
        f, g = ALPHA_PAIR_F.to_channel(), ALPHA_PAIR_G.to_channel()
        assert is_degraded(f, make_bsc(doeblin_alpha(f) / 2.0), witness=False).holds
        assert is_degraded(f, g, witness=False).fails
        assert is_degraded(f, g, witness=False).witness is None

    @pytest.mark.parametrize(
        "d, relation", [(2e-10, "holds"), (3e-10, "holds"), (4e-10, "holds"), (6e-10, "fails")]
    )
    def test_tolerance_edge_below_the_matched_bsc(self, d, relation):
        # gaps of at most 5e-10 hold with a map that drifts by about d; beyond, a certificate
        f = random_biso(np.random.default_rng(1)).to_channel()
        target = make_bsc(doeblin_alpha(f) / 2.0 - d)
        verdict = is_degraded(f, target)
        assert verdict.relation == relation
        if verdict.holds:
            assert np.abs(compose(f, verdict.witness).rows - target.rows).max() <= 1e-8
        else:
            assert isinstance(verdict.witness, InfeasibilityCertificate)

    def test_witnesses_are_sound(self):
        outcomes = {"holds": 0, "fails": 0}
        for p, q in _degradation_pairs(21):
            verdict = is_degraded(p, q)
            outcomes[verdict.relation] += 1
            if verdict.holds:
                assert np.abs(compose(p, verdict.witness).rows - q.rows).max() <= 1e-8, (p, q)
                continue
            cert = verdict.witness
            x = cert.guessing_x
            gap = _guessing_by_hand(q.rows, x) - _guessing_by_hand(p.rows, x)
            assert abs(cert.guessing_gap - gap) <= 1e-12, (p, q)
            assert cert.guessing_gap > orders.VERDICT_TOL / 2.0
        assert min(outcomes.values()) > 100

    def test_large_channels_decide_quickly(self):
        rng = np.random.default_rng(22)
        p = Channel(rng.dirichlet(np.ones(256), size=2))
        q = compose(p, rng.dirichlet(np.ones(256), size=256))
        for a, b, relation in ((p, q, "holds"), (q, p, "fails")):
            start = time.perf_counter()
            verdict = is_degraded(a, b, witness=False)
            assert time.perf_counter() - start < 0.1
            assert verdict.relation == relation
            start = time.perf_counter()
            verdict = is_degraded(a, b, witness=True)
            assert time.perf_counter() - start < 0.5
            assert verdict.relation == relation
            if verdict.holds:
                assert np.abs(compose(a, verdict.witness).rows - b.rows).max() <= 1e-8
            else:
                assert isinstance(verdict.witness, InfeasibilityCertificate)


def _guessing_by_hand(rows, x):
    """sum_y max(x r0_y, (1 - x) r1_y), one output at a time."""
    return sum(max(x * r0, (1.0 - x) * r1) for r0, r1 in zip(*rows))


def _lp_oracle(p, q):
    """The degradability relation the guessing-probability test replaced:
    feasibility of P D = Q over row-stochastic D by the phase-1 simplex."""
    m, n = p.n_outputs, q.n_outputs
    a_eq = np.vstack(
        (np.kron(np.eye(m), np.ones(n)), np.kron(p.rows[0], np.eye(n)), np.kron(p.rows[1], np.eye(n)))
    )
    b_eq = np.concatenate((np.ones(m), q.rows[0], q.rows[1]))
    return simplex_oracle.lp_feasibility(a_eq, b_eq).feasible


def _stochastic(rng, shape, zeros=False):
    """Random rows summing to one; with `zeros`, about a third of the entries are zero."""
    raw = rng.uniform(0.0, 1.0, size=shape)
    if zeros:
        raw = np.where(rng.random(shape) < 0.35, 0.0, raw)
        raw[:, 0] += raw.sum(axis=1) == 0.0
    return raw / raw.sum(axis=1, keepdims=True)


def _general_channel(rng, zeros=False):
    return Channel(_stochastic(rng, (2, int(rng.integers(2, 7))), zeros))


def _garbling(rng, channel, zeros=False):
    """The channel followed by a random stochastic map onto 2-6 outputs."""
    return compose(channel, _stochastic(rng, (channel.n_outputs, int(rng.integers(2, 7))), zeros))


def _degradation_pairs(seed):
    """Touching BEC/BSC pairs, the reverse-alpha bisection's neighbourhood of
    BSC(alpha/2), garblings of general channels, independent pairs, channels
    with zero entries and column-shuffled BISO channels, in both directions."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        flat = random_biso(rng).to_channel()
        alpha = doeblin_alpha(flat)
        yield make_bec(alpha), flat
        yield flat, make_bsc(alpha / 2.0)
        for d in (1e-7, 1e-9, 1e-11):
            yield flat, make_bsc(alpha / 2.0 - d)
            yield flat, make_bsc(alpha / 2.0 + d)
    for i in range(400):
        zeros = i % 2 == 1
        p = _general_channel(rng, zeros)
        q = _garbling(rng, p, zeros)
        yield p, q
        yield q, p
        yield p, _general_channel(rng, zeros)
    for _ in range(100):
        biso = random_biso(rng)
        flat = biso.to_channel()
        shuffled = Channel(flat.rows[:, rng.permutation(flat.n_outputs)])
        yield shuffled, _garbling(rng, shuffled)
        yield shuffled, random_degraded_biso(rng, biso).to_channel()
        yield random_degraded_biso(rng, biso).to_channel(), shuffled
