"""The exact less-noisy referee of `exact_oracle`: known truths, and `is_less_noisy` never against it.

A failing verdict is wrong where the referee holds, and a holding one where
it fails even within `BAND` (see `exact_oracle.is_less_noisy`); an
undetermined verdict is counted and printed.  Every failing witness of
`paper-check` and of the differential pairs is checked exactly in
`test_orders.TestIsLessNoisy.test_matches_the_grid_first_oracle_bitwise`.
"""

import contextlib
import math
import signal
import warnings
from collections import Counter

import numpy as np

from bisochan import BisoChannel, canonicalize_biso, is_less_noisy, make_bec, make_bsc
from bisochan.checks import random_biso
from bisochan.coefficients import eta_kl_biso
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
        # q = 1/2, hold within 1e-9; a BEC a little less erasing and a BSC a little cleaner fail
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
