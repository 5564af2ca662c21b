"""Wiretap secrecy capacities, f-divergence output bounds, and budgeted-information bounds.

All formulas anchor a BISO channel to the BSC/BEC sharing one of its
coefficients, so each output is a closed-form expression in the channel's
contraction coefficient, Doeblin coefficient, or capacity.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import canonicalize_biso
from .coefficients import (
    _h2_grid,
    _h2_inv_grid,
    capacity_biso,
    eta_kl,
    eta_kl_biso,
    h2,
)
from .errors import LeakageOutOfRangeError


def secrecy_capacity_vs_bec(w):
    """Secrecy capacity of the contraction-matched BEC main channel against eavesdropper w.

    Equals eta_KL(w) - C(w).  Nonnegative for every BISO channel; a negative
    value would flag a violation of the less-noisy ordering and is returned
    as computed rather than clipped.
    """
    b = canonicalize_biso(w)
    return eta_kl_biso(b) - capacity_biso(b)


def secrecy_capacity_vs_bsc(w):
    """Secrecy capacity of main channel w against its contraction-matched BSC eavesdropper.

    Equals C(w) - 1 + h2((1 - sqrt(eta_KL(w))) / 2); returned as computed,
    negatives flagged to the caller by sign.
    """
    b = canonicalize_biso(w)
    eta = eta_kl_biso(b)
    p = (1.0 - math.sqrt(eta)) / 2.0
    return capacity_biso(b) - 1.0 + h2(p)


# ----------------------------------------------------------------------
# f-divergence output bounds from maximal leakage
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OutputDivergenceBounds:
    """Bounds on the worst-case output f-divergence of a channel.

    Unbounded sides carry +inf in the value and True in the matching flag;
    no sentinel other than the explicit flag is used for control flow.
    """

    lower: float
    upper: float
    lower_unbounded: bool
    upper_unbounded: bool


def f_divergence_output_bounds(gen, leakage_nats):
    """Sandwich the worst-case output f-divergence using maximal leakage.

    The supremum over input-law pairs of D_f between the two output
    distributions is reached at the rows.  Degrading onto the matched BSC
    and from the matched BEC gives

        lower = row divergence of BSC((2 - e^L) / 2)
        upper = row divergence of BEC(2 - e^L) = (e^L - 1) (f(0) + f'(inf))

    where f'(inf) = lim f(t)/t.  The upper bound is unbounded whenever f(0)
    or f'(inf) is infinite.

    Parameters
    ----------
    gen : FDivergenceGenerator
    leakage_nats : float
        Maximal leakage L in nats; requires 1 < e^L < 2.
    """
    el = math.exp(float(leakage_nats))
    if not 1.0 < el < 2.0:
        raise LeakageOutOfRangeError(f"need 1 < e^L < 2, got e^L = {el!r}")
    scale = el - 1.0

    lo_small = (2.0 - el) / el
    lo_large = el / (2.0 - el)
    lower = (el / 2.0) * gen(lo_small) + (1.0 - el / 2.0) * gen(lo_large)
    lower_unbounded = math.isinf(lower)

    if gen.f0 is None or gen.slope_at_inf is None:
        return OutputDivergenceBounds(float(lower), math.inf, lower_unbounded, True)
    upper = scale * (gen.f0 + gen.slope_at_inf)
    return OutputDivergenceBounds(float(lower), float(upper), lower_unbounded, False)


# ----------------------------------------------------------------------
# Budgeted-information curve bounds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FICurveBounds:
    """Bounds on the best-possible processed information at input budget t (bits).

    Floats for a scalar budget; arrays of the budget's shape for an array.
    Array results are neither hashable nor comparable with ==, since the
    generated methods compare the fields as tuples of arrays.
    """

    t: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray


def fi_upper_bound(channel, t):
    """Upper bound eta * min(t, 1); valid for general binary-input channels."""
    t = float(t)
    if not t >= 0.0:  # negative or NaN
        raise LeakageOutOfRangeError(f"budget t must be nonnegative, got {t!r}")
    return eta_kl(channel) * min(t, 1.0)


_MEMO_POINTS = 4096  # sweeps keep their grid-only work for grids of up to this many points


@functools.lru_cache(maxsize=4)
def _residual(key, shape):
    """h2_inv(max(1 - t, 0)), read-only, of the float64 budgets t whose bytes are `key`."""
    residual = _h2_inv_grid(np.maximum(1.0 - np.frombuffer(key).reshape(shape), 0.0))
    residual.flags.writeable = False
    return residual


def fi_curve_bounds(w, t):
    """Lower and upper bounds on the budgeted-information curve of a BISO channel.

    lower = 1 - h2(p_eta * h2_inv(max(1 - t, 0))) with p_eta = (1 - sqrt(eta)) / 2,
    the exact curve of the contraction-matched BSC; upper = eta * min(t, 1),
    the exact curve of the matched BEC.

    t may be a float or an array of budgets; eta and p_eta are computed once
    and h2 is inverted over the whole array with the same 60 halvings as
    `h2_inv`, once per budget array: the last few of up to `_MEMO_POINTS`
    budgets are kept by value and shape.  lower and upper are new arrays at
    every call.  The lower bounds may differ from the per-budget scalar
    formula by an ulp, since numpy's log2 and math.log2 round differently on
    a few inputs; the upper bounds are equal.
    """
    ts = np.asarray(t, dtype=float)
    bad = ts[~(ts >= 0.0)]  # negative or NaN
    if bad.size:
        raise LeakageOutOfRangeError(f"budget t must be nonnegative, got {float(bad[0])!r}")
    b = canonicalize_biso(w)
    eta = eta_kl_biso(b)
    p_eta = (1.0 - math.sqrt(eta)) / 2.0
    residual = (_residual if ts.size <= _MEMO_POINTS else _residual.__wrapped__)(ts.tobytes(), ts.shape)
    lower = 1.0 - _h2_grid(p_eta * (1.0 - residual) + (1.0 - p_eta) * residual)
    upper = eta * np.minimum(ts, 1.0)
    if ts.ndim == 0:
        return FICurveBounds(float(ts), float(lower), float(upper))
    return FICurveBounds(ts, lower, upper)
