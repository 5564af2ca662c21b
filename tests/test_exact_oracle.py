"""The exact referees of `exact_oracle`: known truths, and `is_less_noisy` and `is_degraded` never against them.

A failing less-noisy verdict is wrong where the referee holds, and a holding
one where it fails even within `BAND` (see `exact_oracle.is_less_noisy`); an
undetermined verdict is counted and printed.  Every failing witness of
`paper-check` and of the differential pairs is checked exactly in
`test_orders.TestIsLessNoisy.test_matches_the_grid_first_oracle_bitwise`.
A degradability verdict may differ from the referee's only where the exact
guessing peak lies within `GAP_BAND` of the threshold VERDICT_TOL / 2.
"""

import contextlib
import importlib.util
import math
import os
import signal
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bisochan import BisoChannel, Channel, canonicalize_biso, is_degraded, is_less_noisy, make_bec, make_bsc
from bisochan.channels import as_channel, parse_channel
from bisochan.checks import ALPHA_PAIR_F, ALPHA_PAIR_G, random_binary_channel, random_biso, random_degraded_biso
from bisochan.coefficients import doeblin_alpha, eta_kl_biso
from bisochan.orders import VERDICT_TOL
import exact_oracle

LADDER = (0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-20)
# eps = (n + 8) 2^-51 of the search up to n = 24 netted columns, and the certificate's rounding
BAND = 2.0**-46
# the cases of `_hostile_pairs` whose referee took under 5 ms when this list was drawn (2-CPU
# x86-64 host), and every case where the search of the criterion with its closed-form first cell
# gave a wrong holds: 0, 121, 128, 159 and 295
HOSTILE = (
    0, 2, 5, 8, 9, 12, 18, 20, 21, 23, 29, 32, 35, 37, 41, 44, 45, 46, 50, 52, 55, 56, 58, 61,
    62, 64, 68, 70, 71, 73, 74, 78, 83, 84, 87, 92, 93, 95, 97, 98, 102, 111, 113, 116, 117,
    121, 122, 125, 126, 128, 131, 133, 136, 141, 145, 146, 149, 153, 155, 158, 159, 162, 163,
    164, 167, 170, 173, 175, 177, 179, 186, 187, 192, 193, 194, 201, 203, 209, 210, 217, 220,
    225, 226, 233, 235, 236, 238, 246, 249, 255, 258, 261, 266, 268, 270, 271, 274, 275, 277,
    279, 284, 285, 286, 287, 288, 290, 292, 294, 295, 299,
)
LIMIT = 2.0  # seconds a referee call may take here; a case past it is reported, not judged
# the degradability threshold, and how far `is_degraded`'s float peak may lie from the exact one:
# each G sums at most 24 columns' terms, each at most 1 and a rounding or two from its value, at
# a prior within 2 ulps of the exact kink, where G_Q - G_P has a slope of at most 2
HALF_TOL = Fraction(VERDICT_TOL) / 2
GAP_BAND = 2.0**-46


def _bsc(p):
    return canonicalize_biso(make_bsc(p))


def _hostile_pairs(n=300):
    """Pairs of 1-3 pairs a side with entries in U[0.02, 1), each set with probability 0.3 to
    0, 5e-324, 1e-310 or 1e-300, renormalized."""
    rng = np.random.default_rng(12)
    pairs = []
    for _ in range(n):
        sides = []
        for _side in "wv":
            raw = rng.uniform(0.02, 1.0, size=(int(rng.integers(1, 4)), 2))
            special = rng.random(raw.shape) < 0.3
            raw = np.where(special, rng.choice([0.0, 5e-324, 1e-310, 1e-300], size=raw.shape), raw)
            if raw.sum() == 0.0:
                raw[0, 0] = 1.0
            sides.append(BisoChannel(raw / raw.sum()))
        pairs.append(tuple(sides))
    return pairs


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _judge(cases):
    """Counter of is_less_noisy's verdicts against the referee; wrong ones fail at once."""
    seen = Counter()
    for w, v in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            verdict = is_less_noisy(w, v)
        try:
            with _time_limit(LIMIT):
                strict = exact_oracle.is_less_noisy(w.pairs, v.pairs)
                relaxed = strict or exact_oracle.is_less_noisy(w.pairs, v.pairs, BAND)
        except TimeoutError:
            seen["past the limit"] += 1
            continue
        if verdict.fails:
            assert not strict, (w, v, verdict)
            assert exact_oracle.criterion(w.pairs, v.pairs, verdict.witness.parameter) < -exact_oracle.TOL
        elif verdict.holds:
            assert relaxed, (w, v, verdict)
        seen[verdict.relation, strict] += 1
    print(dict(seen))
    return seen


class TestReferee:
    def test_bsc_ladder(self):
        # BSC(a) is less noisy than BSC(b) iff a <= b
        for a in LADDER:
            for b in LADDER:
                assert exact_oracle.is_less_noisy(_bsc(a).pairs, _bsc(b).pairs) == (a <= b), (a, b)

    def test_less_noisy_sandwich(self):
        # check 05's first channels: BEC(1 - eta) >= W >= BSC((1 - sqrt(eta)) / 2), touching at
        # q = 1/2, hold within 1e-9; a BEC erasing a little more and a BSC a little cleaner fail
        rng = np.random.default_rng(20240205)
        for _ in range(25):
            w = random_biso(rng)
            eta = eta_kl_biso(w)
            for margin, holds in ((0.0, True), (1e-6, False)):
                bec = canonicalize_biso(make_bec(1.0 - eta + margin))
                bsc = canonicalize_biso(make_bsc((1.0 - math.sqrt(eta)) / 2.0 - margin))
                assert exact_oracle.is_less_noisy(bec.pairs, w.pairs) == holds, (w, margin)
                assert exact_oracle.is_less_noisy(w.pairs, bsc.pairs) == holds, (w, margin)

    def test_band_relaxes_only_near_zero(self):
        # a noiseless mass short by 2^-52 fails exactly, since the criterion tends to -2^-52 / q,
        # and holds within the band; the band does not let a violation at q = 1/2 through
        one, short = BisoChannel([(1.0, 0.0)]), [(1.0 - 2.0**-52, 0.0)]
        assert not exact_oracle.is_less_noisy(short, one.pairs)
        assert exact_oracle.is_less_noisy(short, one.pairs, BAND)
        assert exact_oracle.criterion(short, one.pairs, 1e-10) < -exact_oracle.TOL
        worse = _bsc(0.11 + 1e-6).pairs
        assert not exact_oracle.is_less_noisy(worse, _bsc(0.11).pairs, BAND)


class TestIsLessNoisyAgainstTheReferee:
    def test_bsc_ladder(self):
        # the closed-form first cell of the criterion's search gave 3 wrong holds here
        seen = _judge([(_bsc(a), _bsc(b)) for a in LADDER for b in LADDER])
        assert sum(seen.values()) == 64 and seen["undetermined", True] <= 3

    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(11)
        seen = _judge([(random_biso(rng, 4), random_biso(rng, 4)) for _ in range(32)])
        assert seen["holds", True] + seen["fails", False] == 32

    def test_hostile_corpus(self):
        pairs = _hostile_pairs()
        seen = _judge([pairs[i] for i in HOSTILE])
        assert seen["past the limit"] <= 2 and seen["holds", True] + seen["fails", False] > len(HOSTILE) // 2

    @pytest.mark.xfail(strict=True, reason="the float criterion alone confirms a witness where large terms cancel")
    @pytest.mark.parametrize("case, direction", [(154, "w>=v"), (189, "w>=v"), (214, "w>=v"), (117, "v>=w")])
    def test_failing_witness_is_below_the_tolerance_exactly(self, case, direction):
        # these pairs fail rightly (the referee fails them too), but each witness, at q = 5.68e-17,
        # 3.05e-8, 6.10e-8 and 7.63e-9 with printed values -2.0, -3.7e-9, -1.9e-9 and -1.49e-8, has
        # the exact criterion -6.3e-268, +1.8e-9, -9.1e-10 and +7.28e-9: not below -1e-9.  Case 117
        # fails so only with v first, which `_judge` never asks
        w, v = _hostile_pairs()[case][:: 1 if direction == "w>=v" else -1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            verdict = is_less_noisy(w, v)
        assert verdict.fails and not exact_oracle.is_less_noisy(w.pairs, v.pairs)
        assert exact_oracle.criterion(w.pairs, v.pairs, verdict.witness.parameter) < -exact_oracle.TOL


def _exact_bsc(p):
    """The rows of BSC(p) in Fractions: 1 - p in floats rounds to 1 for p below 2^-54."""
    p = Fraction(p)
    return [[1 - p, p], [p, 1 - p]]


def _sandwich_channels(n=25):
    """Check 07's first n channels as flat Channels, with their Doeblin coefficients."""
    rng = np.random.default_rng(20240207)
    channels = [random_biso(rng).to_channel() for _ in range(n)]
    return [(f, doeblin_alpha(f)) for f in channels]


def _general_hostile(rng, n):
    """Pairs of general channels of 2-5 outputs with entries in U[0.02, 1), each set with
    probability 0.3 to 0, 5e-324, 1e-310 or 1e-300, each row renormalized."""
    pairs = []
    for _ in range(n):
        sides = []
        for _side in "pq":
            raw = rng.uniform(0.02, 1.0, size=(2, int(rng.integers(2, 6))))
            special = rng.random(raw.shape) < 0.3
            raw = np.where(special, rng.choice([0.0, 5e-324, 1e-310, 1e-300], size=raw.shape), raw)
            raw[raw.sum(axis=1) == 0.0, 0] = 1.0
            sides.append(Channel(raw / raw.sum(axis=1, keepdims=True)))
        pairs.append(tuple(sides))
    return pairs


def _judge_degraded(cases):
    """Counter of is_degraded(witness=False) against the referee at VERDICT_TOL / 2; a verdict
    that differs fails at once unless the exact peak lies within GAP_BAND of the threshold."""
    seen = Counter()
    for p, q in cases:
        peak = exact_oracle.guessing_peak(as_channel(p).rows, as_channel(q).rows)
        verdict = is_degraded(p, q, witness=False)
        if verdict.holds != (peak <= HALF_TOL):
            assert abs(peak - HALF_TOL) <= GAP_BAND, (p, q, float(peak))
            seen["tie"] += 1
        seen[verdict.relation] += 1
    print(dict(seen))
    return seen


def _bench_corpus():
    """The benchmark's seeded input sets (`bench/corpus.py`), loaded by path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "corpus.py")
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDegradabilityReferee:
    def test_bsc_ladder(self):
        # BSC(a) degrades onto BSC(b) iff a <= b, exactly
        for a in LADDER:
            for b in LADDER:
                assert exact_oracle.is_degraded(_exact_bsc(a), _exact_bsc(b), 0) == (a <= b), (a, b)

    def test_degradability_sandwich(self):
        # check 07's first channels: BEC(alpha) degrades onto f and f onto BSC(alpha / 2) within
        # VERDICT_TOL / 2; a BEC erasing 1e-6 more and a BSC 1e-6 cleaner fail
        for f, alpha in _sandwich_channels():
            for margin, holds in ((0.0, True), (1e-6, False)):
                bec, bsc = make_bec(alpha + margin).rows, make_bsc(alpha / 2.0 - margin).rows
                assert exact_oracle.is_degraded(bec, f.rows, HALF_TOL) == holds, (f, margin)
                assert exact_oracle.is_degraded(f.rows, bsc, HALF_TOL) == holds, (f, margin)


class TestIsDegradedAgainstTheReferee:
    def test_bsc_ladder(self):
        # every crossover lies far within VERDICT_TOL / 2 of every other, so all 64 pairs hold
        seen = _judge_degraded([(make_bsc(a), make_bsc(b)) for a in LADDER for b in LADDER])
        assert seen["holds"] == 64 and not seen["tie"]

    def test_seeded_pairs(self):
        # BISO channels against a degraded copy, both ways, and an independent partner; general pairs
        rng = np.random.default_rng(30)
        cases = []
        for _ in range(100):
            w = random_biso(rng)
            cases += [(w, random_degraded_biso(rng, w)), (random_degraded_biso(rng, w), w), (w, random_biso(rng))]
        cases += [(random_binary_channel(rng), random_binary_channel(rng)) for _ in range(200)]
        seen = _judge_degraded(cases)
        assert seen["holds"] >= 100 and seen["fails"] >= 100 and not seen["tie"]

    def test_hostile_pairs(self):
        # zeros and subnormal entries, in the BISO pairs of the less-noisy corpus and in general rows
        seen = _judge_degraded(_hostile_pairs() + _general_hostile(np.random.default_rng(31), 200))
        assert seen["holds"] > 0 and seen["fails"] > 0 and not seen["tie"]

    def test_ties_lie_within_the_rounding_band(self):
        # BSC targets within 12 ulps of the threshold p = alpha / 2 - VERDICT_TOL / 2 of check 07's
        # channels, where the gap at prior 1/2 is alpha / 2 - p: the float peak may round either way
        cases = []
        for f, alpha in _sandwich_channels():
            p = alpha / 2.0 - VERDICT_TOL / 2.0
            cases += [(f, make_bsc(p + k * math.ulp(p))) for k in range(-12, 13)]
        seen = _judge_degraded(cases)
        assert seen["holds"] > 0 and seen["fails"] > 0

    def test_failing_certificates_are_exact(self):
        # every refuting prior of check 08 and of compare-corpus seed 0 has an exact gap above
        # VERDICT_TOL / 2
        cases = [(ALPHA_PAIR_F, ALPHA_PAIR_G), (ALPHA_PAIR_G, ALPHA_PAIR_F)]
        corpus = _bench_corpus()
        for op in corpus.make_ops("compare-corpus", 0):
            a, b = (parse_channel(text) for text in op.files.values())
            cases += [(a, b), (b, a)]
        failed = 0
        for p, q in cases:
            p, q = as_channel(p), as_channel(q)
            verdict = is_degraded(p, q)
            if verdict.fails:
                failed += 1
                gap = exact_oracle.guessing_gap(p.rows, q.rows, verdict.witness.guessing_x)
                assert gap > HALF_TOL, (p, q, float(gap))
        assert failed > 100
