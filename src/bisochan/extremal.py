"""Extremal BSC/BEC representatives and explicit degrading maps.

For a BISO channel, the BSC and BEC sharing its capacity, KL contraction
coefficient, or Doeblin coefficient bound it from below and above in the
matching partial order.  This module constructs those representatives, the
vote map collapsing a binary-input channel onto a two-output channel of its
Doeblin coefficient (the matched BSC if BISO), the dimension-3 comparability
tests and degrading maps, and the reverse (BSC-anchored) coefficients.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channels import (
    PAIRING_TOL,
    BisoChannel,
    Channel,
    DegradingMap,
    as_channel,
    canonicalize_biso,
    compose,
    make_bsc,
)
from .coefficients import (
    capacity,
    capacity_biso,
    doeblin_alpha,
    eta_kl,
    eta_kl_biso,
    eta_tv,
    h2_inv,
)
from .errors import (
    ClassMismatchError,
    DimensionTooLargeError,
    ParameterOutOfRangeError,
)
from .orders import OrderVerdict, is_degraded, is_less_noisy
from .search import bisect_threshold

# each class kind: the channel's coefficient, and the matched BSC crossover (the p <= 1/2 branch)
# and BEC erasure of a class value c
_Class = namedtuple("_Class", "coefficient bsc_p bec_eps")
CLASSES = {
    "capacity": _Class(capacity, lambda c: h2_inv(1.0 - c), lambda c: 1.0 - c),
    "eta_kl": _Class(eta_kl, lambda c: (1.0 - math.sqrt(c)) / 2.0, lambda c: 1.0 - c),
    "alpha": _Class(doeblin_alpha, lambda c: c / 2.0, lambda c: c),
}
KINDS = tuple(CLASSES)
CLASS_TOL = 1e-9  # how far the class constants of two dimension-3 channels may differ


@dataclass(frozen=True)
class ChannelClass:
    """A channel class: all channels sharing one coefficient value."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterOutOfRangeError(f"unknown class kind {self.kind!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ParameterOutOfRangeError(f"class constant must lie in [0, 1], got {self.value!r}")


@dataclass(frozen=True)
class ExtremalMatch:
    """BSC and BEC parameters matching one coefficient of a channel."""

    channel_class: ChannelClass
    bsc_p: float
    bec_eps: float


def channel_class(channel, kind):
    """Compute the class constant of a channel for the given kind."""
    if kind not in CLASSES:
        raise ParameterOutOfRangeError(f"unknown class kind {kind!r}")
    return ChannelClass(kind, float(CLASSES[kind].coefficient(channel)))


def match_extremal(channel, kind):
    """BSC/BEC parameters with the same coefficient as the channel, by the formulas of `CLASSES`:

    eta_kl:   p = (1 - sqrt(eta)) / 2 (the p <= 1/2 branch), eps = 1 - eta.
    alpha:    p = alpha / 2, eps = alpha.
    capacity: p = h2_inv(1 - C), eps = 1 - C.
    """
    return _matched(channel_class(channel, kind))


def _matched(cls):
    """The ExtremalMatch of one class constant."""
    matched = CLASSES[cls.kind]
    return ExtremalMatch(cls, float(matched.bsc_p(cls.value)), float(matched.bec_eps(cls.value)))


# ----------------------------------------------------------------------
# Vote map onto the Doeblin-matched two-output channel
# ----------------------------------------------------------------------


def _vote_map(channel):
    """Each output column (r0, r1) of `channel` to the input it favours, rows in its own column
    order: output 0 if r0 > r1, output 1 if r0 < r1, half to each if |r0 - r1| <= PAIRING_TOL.
    The composition keeps the Doeblin coefficient, up to the tied columns' row differences."""
    r0, r1 = as_channel(channel).rows
    a = np.where(np.abs(r0 - r1) <= PAIRING_TOL, 0.5, (r0 > r1).astype(float))
    return DegradingMap(np.stack([a, 1.0 - a], axis=1))


def bsc_degrading_map(channel):
    """`_vote_map` of a BISO channel: a pair and its mirror vote for opposite inputs, so in any
    column order it composes onto BSC(alpha / 2) within the pairing tolerance.  Raises
    NotBisoError for other channels."""
    canonicalize_biso(channel)
    return _vote_map(channel)


# ----------------------------------------------------------------------
# Dimension-3 comparability
# ----------------------------------------------------------------------


def _dim3_parts(biso):
    """Split a dimension-<=3 BISO channel into (p0, p_plus, p_minus).

    Accepts one pair, or two pairs of which the tied ones came from a
    0-split.  More than one informative (untied) pair is rejected.
    """
    biso = canonicalize_biso(biso)
    p0 = 0.0
    informative = None
    for p, pm in biso.pairs:
        if abs(p - pm) <= 1e-12:
            p0 += p + pm
        elif informative is None:
            informative = (float(p), float(pm))
        else:
            raise DimensionTooLargeError(
                "channel has more than one informative pair; output dimension exceeds 3"
            )
    if informative is None:
        informative = (0.0, 0.0)
    return float(p0), informative[0], informative[1]


def dim3_channel(p0, p_plus, p_minus):
    """Three-output BISO channel with columns ordered (-1, 0, +1)."""
    return Channel([[p_minus, p0, p_plus], [p_plus, p0, p_minus]], tol=1e-9)


def _dim3_ratio(p0, p_plus, p_minus):
    s = p_plus + p_minus
    if s <= 0.0:
        return 0.0
    return p_plus * p_minus / (s * s)


@dataclass(frozen=True)
class Dim3Ratios:
    """The two product ratios compared by the dimension-3 less-noisy test."""

    rho_first: float
    rho_second: float


def dim3_less_noisy_compare(f_biso, g_biso):
    """Less-noisy verdict for two dimension-<=3 BISO channels of equal eta.

    With a single informative pair each, the grid criterion collapses to a
    comparison of rho = p_1 p_-1 / (1 - p_0)^2: the channel with the smaller
    rho dominates.  Returns the verdict for "first is less noisy than
    second"; swap the arguments for the reverse direction.
    """
    eta_f = eta_kl_biso(f_biso)
    eta_g = eta_kl_biso(g_biso)
    if abs(eta_f - eta_g) > CLASS_TOL:
        raise ClassMismatchError(f"contraction coefficients differ: {eta_f!r} vs {eta_g!r}")
    rho_f = _dim3_ratio(*_dim3_parts(f_biso))
    rho_g = _dim3_ratio(*_dim3_parts(g_biso))
    ratios = Dim3Ratios(rho_f, rho_g)
    if rho_f <= rho_g + 1e-12:
        return OrderVerdict("holds", ratios)
    return OrderVerdict("fails", ratios)


@dataclass(frozen=True)
class Dim3Degradation:
    """A degrading map between two equal-alpha dimension-3 channels.

    `upper` degrades onto `lower` via `map`: compose(upper, map) == lower.
    `swapped` records whether the inputs were reordered to satisfy the
    p0 <= q0 orientation.
    """

    map: DegradingMap
    upper: Channel
    lower: Channel
    swapped: bool


def dim3_degrading_map(f_biso, g_biso):
    """Explicit degrading map between two equal-alpha dimension-<=3 channels.

    The channel with the larger 0-mass degrades onto the other.  The map is
    one of two case matrices depending on whether the informative pairs have
    matching or flipped orientation; both are row-stochastic by the shared
    total-variation constraint.
    """
    f_parts, g_parts = _dim3_parts(f_biso), _dim3_parts(g_biso)
    alpha_f = 1.0 - abs(f_parts[1] - f_parts[2])
    alpha_g = 1.0 - abs(g_parts[1] - g_parts[2])
    if abs(alpha_f - alpha_g) > CLASS_TOL:
        raise ClassMismatchError(f"Doeblin coefficients differ: {alpha_f!r} vs {alpha_g!r}")

    swapped = f_parts[0] > g_parts[0]
    if swapped:
        lower_parts, upper_parts = g_parts, f_parts
    else:
        lower_parts, upper_parts = f_parts, g_parts
    p0, p1, pm1 = lower_parts
    q0, q1, qm1 = upper_parts

    same_orientation = (p1 - pm1) * (q1 - qm1) >= 0.0
    if q0 <= 0.0:
        middle = [0.0, 1.0, 0.0]
    elif same_orientation:
        x = (p1 - q1) / q0
        middle = [x, p0 / q0, x]
    else:
        x = (p1 - qm1) / q0
        middle = [x, p0 / q0, x]
    if same_orientation:
        entries = [[1.0, 0.0, 0.0], middle, [0.0, 0.0, 1.0]]
    else:
        entries = [[0.0, 0.0, 1.0], middle, [1.0, 0.0, 0.0]]
    dmap = DegradingMap(entries)
    upper = dim3_channel(*upper_parts)
    lower = dim3_channel(*lower_parts)
    return Dim3Degradation(dmap, upper, lower, swapped)


# ----------------------------------------------------------------------
# Reverse coefficients (BSC-anchored)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReverseCoefficients:
    """Smallest dominated-BSC parameters, one per order, in their natural scale.

    alpha_rev: smallest 2p over BSCs the channel degrades onto. 1 - eta_tv.
    beta_rev:  smallest 4p(1-p) over BSCs the channel is less noisy than.
               1 - eta_kl.
    gamma_rev: capacity of the weakest dominated BSC in the more-capable
               order, i.e. 1 - h2 of the threshold parameter, which equals
               the channel capacity.
    """

    alpha_rev: float
    beta_rev: float
    gamma_rev: float


def reverse_coefficients(biso):
    """Reverse coefficients of a BISO channel via the closed identities."""
    biso = canonicalize_biso(biso)
    return ReverseCoefficients(
        alpha_rev=1.0 - eta_tv(biso),
        beta_rev=1.0 - eta_kl_biso(biso),
        gamma_rev=capacity_biso(biso),
    )


def _reverse_threshold(dominated, guess):
    """The smallest p in [0, 1/2] with `dominated(p)`, bisected to 2e-7; the bracket at `guess` moves no bit."""
    return bisect_threshold(dominated, 0.0, 0.5, 2e-7, guess)


def verify_reverse_alpha(biso):
    """Smallest 2p with the channel degradable onto BSC(p), bisected from a bracket at 1 - eta_tv."""
    flat = canonicalize_biso(biso).to_channel()
    guess = (1.0 - eta_tv(flat)) / 2.0
    return 2.0 * _reverse_threshold(lambda p: is_degraded(flat, make_bsc(p), witness=False).holds, guess)


def verify_reverse_beta(biso):
    """Smallest 4p(1-p) with the channel less noisy than BSC(p), bisected from a bracket at 1 - eta_kl."""
    biso = canonicalize_biso(biso)
    guess = CLASSES["eta_kl"].bsc_p(eta_kl_biso(biso))
    # (p, 1 - p) is the canonical BSC(p) for p < 1/2, valid as built
    p_star = _reverse_threshold(lambda p: p >= 0.5 or is_less_noisy(biso, BisoChannel._valid(np.array([[p, 1.0 - p]]))).holds, guess)
    return 4.0 * p_star * (1.0 - p_star)


# ----------------------------------------------------------------------
# General binary channels
# ----------------------------------------------------------------------


def general_binary_dominated(channel):
    """A two-output channel every general binary channel degrades onto.

    `_vote_map` collapses the channel onto a two-output channel with its
    Doeblin coefficient.  Unlike the BISO constructions, the target depends on
    the channel itself, not only on its class constant.  Returns (target, map).
    """
    ch = as_channel(channel)
    dmap = _vote_map(ch)
    return compose(ch, dmap), dmap
