import inspect
import math

import numpy as np
import pytest

from bisochan import (
    BisoChannel,
    DegenerateParameterError,
    DegradingMap,
    canonicalize_biso,
    compose,
    criterion_profile,
    guessing_probability,
    is_degraded,
    is_less_noisy,
    is_more_capable,
    less_noisy_criterion_biso,
    less_noisy_criterion_fd,
    make_bec,
    make_bsc,
    make_z,
    mutual_information_difference,
)
from bisochan.checks import (
    ALPHA_PAIR_F,
    ALPHA_PAIR_G,
    ETA_PAIR_A,
    ETA_PAIR_B,
    random_biso,
    random_degraded_biso,
)
from bisochan.orders import CriterionViolation, InfeasibilityCertificate


class TestGuessingProbability:
    def test_reference_points(self):
        # oracle: direct sum of the larger joint atoms, exact arithmetic
        assert abs(guessing_probability(ALPHA_PAIR_F, 0.12) - 0.88) < 1e-12
        assert abs(guessing_probability(ALPHA_PAIR_G, 0.12) - 0.89268) < 1e-12
        assert abs(guessing_probability(ALPHA_PAIR_F, 0.29) - 0.77455) < 1e-12
        assert abs(guessing_probability(ALPHA_PAIR_G, 0.29) - 0.76756) < 1e-12

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
        assert abs(less_noisy_criterion_biso(ETA_PAIR_A, ETA_PAIR_B, 0.001) - (-14.443939175483525)) < 1e-9
        assert abs(less_noisy_criterion_biso(ETA_PAIR_A, ETA_PAIR_B, 0.02) - 0.9705362820271217) < 1e-9

    def test_identical_channels_cancel(self):
        for q in (0.001, 0.25, 0.5, 0.99):
            assert less_noisy_criterion_biso(ETA_PAIR_A, ETA_PAIR_A, q) == 0.0

    def test_degenerate_bias_rejected(self):
        for q in (0.0, 1.0):
            with pytest.raises(DegenerateParameterError):
                less_noisy_criterion_biso(ETA_PAIR_A, ETA_PAIR_B, q)

    def test_takes_no_primal_bias_argument(self):
        # the criterion depends on the reference bias only; the primal input
        # bias cancels, so the signature must not accept one
        params = list(inspect.signature(less_noisy_criterion_biso).parameters)
        assert params == ["w", "v", "q"]

    def test_finite_difference_matches_closed_criterion(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = random_biso(rng, max_pairs=3)
            v = random_biso(rng, max_pairs=3)
            q = float(rng.uniform(0.05, 0.95))
            fd = less_noisy_criterion_fd(w.to_channel(), v.to_channel(), 0.4, q)
            closed = 2.0 * less_noisy_criterion_biso(w, v, q)
            assert abs(fd - closed) < 1e-12 * max(1.0, abs(closed))

    def test_profile_parameters_are_interior_and_increasing(self):
        prof = criterion_profile(ETA_PAIR_A, ETA_PAIR_B, 99)
        assert prof.parameters[0] > 0.0 and prof.parameters[-1] < 1.0
        assert np.all(np.diff(prof.parameters) > 0)
        assert prof.values.shape == prof.parameters.shape


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
            again = less_noisy_criterion_biso(w, v, witness.parameter)
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
        mirrored = less_noisy_criterion_biso(ETA_PAIR_B, ETA_PAIR_A, 1.0 - q)
        assert abs(mirrored - rev.witness.value) < 1e-9

    def test_sandwich_single_instance(self):
        b = BisoChannel([(0.5, 0.1), (0.05, 0.35)])
        eta = 0.4**2 / 0.6 + 0.3**2 / 0.4
        bec = canonicalize_biso(make_bec(1 - eta))
        bsc = canonicalize_biso(make_bsc((1 - math.sqrt(eta)) / 2))
        assert is_less_noisy(bec, b).holds
        assert is_less_noisy(b, bsc).holds
        assert is_less_noisy(bsc, b).fails

    def test_accepts_flat_channels(self):
        assert is_less_noisy(make_bsc(0.1), make_bsc(0.3)).holds


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
        from bisochan import capacity_binary, h2_inv

        q = 0.5
        z = make_z(q)
        p = h2_inv(1.0 - capacity_binary(z))
        bsc = make_bsc(p)
        assert is_more_capable(bsc, z).fails
        assert is_more_capable(z, bsc).fails


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
            assert cert.residual > 1e-9
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
