"""Scalar functionals of binary-input channels.

Entropy utilities, f-divergences, KL and total-variation contraction
coefficients, Doeblin coefficients, maximal leakage, mutual information, and
capacity.  Entropies and capacities are in bits; maximal leakage is stored in
nats (its defining identity exp(L) = alpha_max uses the natural logarithm)
with a base-2 accessor.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import as_channel, canonicalize_biso
from .errors import InfiniteDivergenceError, NotBisoError, ParameterOutOfRangeError
from .search import newton_max

_LN2 = math.log(2.0)


def h2(p):
    """Binary entropy in bits; h2(0) = h2(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRangeError(f"h2 argument must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def h2_inv(h):
    """Inverse of h2 on [0, 1/2], by bisection.

    The returned x satisfies |h2(x) - h| <= 1e-12.
    """
    h = float(h)
    if not 0.0 <= h <= 1.0:
        raise ParameterOutOfRangeError(f"h2_inv argument must lie in [0, 1], got {h!r}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    # h2 is strictly increasing on [0, 1/2]; 60 halvings reach the ulp scale
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if h2(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _h2_grid(p):
    """Vectorized h2 over an array in [0, 1]; no range check.

    `_entropy_bits` of the stacked (p, 1 - p) is equal but twice as slow.
    """
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + q * np.log2(q))
    return np.where((p > 0.0) & (q > 0.0), h, 0.0)


def _h2_inv_grid(h):
    """Vectorized h2_inv over an array in [0, 1]: the same 60 halvings, no range check, of the
    entries other than 0 and 1 alone.  Every midpoint lies in (0, 1/2], where h2 needs no mask."""
    h = np.asarray(h, dtype=float)
    out, inner = np.where(h == 1.0, 0.5, 0.0), (h != 0.0) & (h != 1.0)
    target = h[inner]
    lo, hi = np.zeros_like(target), np.full_like(target, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = -(mid * np.log2(mid) + (1.0 - mid) * np.log2(1.0 - mid)) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[inner] = 0.5 * (lo + hi)
    return out


def _entropy_bits(vec):
    """Shannon entropy of a probability vector (last axis), 0 log 0 = 0."""
    v = np.asarray(vec, dtype=float)
    if v.all():  # no zero entry: the masked path's bits without its masks
        return (-v * np.log2(v)).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, -v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0)
    return terms.sum(axis=-1)


# ----------------------------------------------------------------------
# Contraction and Doeblin coefficients
# ----------------------------------------------------------------------


def eta_kl_biso(biso):
    """Closed-form KL contraction coefficient of a BISO channel.

    eta = sum over pairs of (p_y - p_-y)^2 / (p_y + p_-y), with 0/0 := 0, capped at 1.
    """
    biso = canonicalize_biso(biso)
    p = biso.pairs[:, 0]
    q = biso.pairs[:, 1]
    s = p + q
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(s > 0.0, (p - q) ** 2 / np.where(s > 0.0, s, 1.0), 0.0)
    return min(float(terms.sum()), 1.0)


def _rho_and_slope(rows, qs):
    """rho(q) = q(1 - q) sum_y d^2 / D and rho'(q) at each q in [0, 1], d = r0 - r1, D = q r0 + (1 - q) r1.

    rho is the chi-squared ratio whose maximum is eta_KL; `rows` are 2 x n
    columns (r0, r1), netted ones too.  Each term is concave and lies in
    [0, r0 + r1].  Where D = 0 (q = 0 and r1 = 0, or q = 1 and r0 = 0) the
    term is r0 (1 - q) or r1 q: rho is those columns' mass, summed alone, and
    the slope -d.  Elsewhere a slope term, d^2 (r1 (1 - q)^2 - r0 q^2) / D^2,
    is (c d / D) d, c = (b / D)(1 - q) - (a / D) q with a = q r0, b = (1 - q) r1
    and |c| <= 1: neither d / D nor a q, which overflow and underflow near
    q = 3e-309, is formed, and a slope is +inf only where it overflows.
    """
    r0, r1 = rows
    q = np.asarray(qs, dtype=float)[:, None]
    d = r0 - r1
    a, b = q * r0, (1.0 - q) * r1
    den = a + b
    inner = den > 0.0
    safe = np.where(inner, den, 1.0)
    rho = np.where(inner, d**2 * q * (1.0 - q) / safe, 0.0).sum(axis=1)
    rho[q[:, 0] == 0.0], rho[q[:, 0] == 1.0] = r0[r1 == 0.0].sum(), r1[r0 == 0.0].sum()
    with np.errstate(over="ignore"):
        return rho, np.where(inner, ((b / safe) * (1.0 - q) - (a / safe) * q) * d / safe * d, -d).sum(axis=1)


def eta_kl_binary_argmax(channel):
    """KL contraction coefficient of a binary-input channel, with its maximizer.

    Maximizes rho of `_rho_and_slope` over the reference input probability q
    by `newton_max` on rho' and rho'' = -2 sum_y d^2 r0 r1 / D^3 <= 0, both
    summed from the ratios d / D, r0 / D and r1 / D (D floored at the least
    normal double) lest a power of D underflow.  At q = 0 a term of rho' tends
    to d^2 / r1, or to -r0 where r1 = 0; q = 1 swaps the rows.  Returns (eta,
    q_star), eta = rho(q_star) clamped to [0, 1].
    """
    rows = as_channel(channel).rows
    r0, r1 = rows[:, rows[0] != rows[1]]
    d = r0 - r1

    def slope(q):
        if q == 0.0 or q == 1.0:
            a, b, sign = (r0, r1, 1.0) if q == 0.0 else (r1, r0, -1.0)
            with np.errstate(over="ignore"):  # d / b overflows only where the end slope is that steep
                return sign * ((d[b > 0.0] * (d[b > 0.0] / b[b > 0.0])).sum() - a[b == 0.0].sum()), 0.0
        den = np.maximum(r1 + q * d, np.finfo(float).tiny)
        w, s0, s1 = d * (d / den), r0 / den, r1 / den
        return (w * (s1 * (1.0 - q) - q)).sum(), -2.0 * (w * s0 * s1).sum()

    qstar = newton_max(slope)
    return min(max(float(_rho_and_slope(rows, [qstar])[0][0]), 0.0), 1.0), qstar


def eta_kl_binary(channel):
    """KL contraction coefficient of a binary-input channel (supremum value only)."""
    return eta_kl_binary_argmax(channel)[0]


def eta_tv(channel):
    """Dobrushin coefficient: total variation between the two rows."""
    rows = as_channel(channel).rows
    return float(0.5 * np.abs(rows[0] - rows[1]).sum())


def doeblin_alpha(channel):
    """Doeblin coefficient: sum of columnwise row minima, capped at 1."""
    rows = as_channel(channel).rows
    return min(float(np.minimum(rows[0], rows[1]).sum()), 1.0)


def alpha_max(channel):
    """Max-Doeblin coefficient: sum of columnwise row maxima."""
    rows = as_channel(channel).rows
    return float(np.maximum(rows[0], rows[1]).sum())


def maximal_leakage(channel):
    """Maximal leakage in nats: log of the max-Doeblin coefficient."""
    return float(math.log(alpha_max(channel)))


# ----------------------------------------------------------------------
# Mutual information and capacity
# ----------------------------------------------------------------------


def mutual_information_grid(channel, ps):
    """Vectorized mutual information over an array of input probabilities.

    H(Y) is summed over each bias's contiguous row of outputs, so each sum
    rounds as `_entropy_bits` of that row alone.
    """
    return _mutual_information_and_slope(channel, ps, slope=False)[0]


def _mutual_information_and_slope(channel, ps, slope=True):
    """I and I' = H(r1) - H(r0) - sum_y d log2(out_y) - sum_y d / ln 2, d = r0 - r1, at each bias.

    `channel` may also be a 2 x n array of columns (r0, r1) that need not sum
    to 1, such as netted ones: I is H(out) - p H(r0) - (1 - p) H(r1) over them,
    the sum of p r0 log2(r0 / out) + (1 - p) r1 log2(r1 / out), and the last
    term of I', 0 for a channel, is not 0 for those.  An output that only
    input 0 reaches has out = 0 at p = 0, where I' is +inf; one that only
    input 1 reaches makes I' = -inf at p = 1.  With `slope=False` I' is not
    computed, and None takes its place.

    `channel` may also be a tuple of such arrays, valued in one pass: out and
    its log are formed once over their columns side by side, and each array's
    sums run over its own contiguous copy, so each I has the bits of a call on
    that array alone.  I is then a list of one array per entry, and I' is the
    last entry's.
    """
    single = not isinstance(channel, tuple)
    blocks = (channel if isinstance(channel, np.ndarray) else as_channel(channel).rows,) if single else channel
    rows = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
    p = np.asarray(ps, dtype=float)[:, None]
    out = p * rows[0]
    out += (1.0 - p) * rows[1]
    log = np.log2(out) if out.all() else np.log2(out, out=np.zeros_like(out), where=out > 0.0)
    plogp, mi, start = np.multiply(out, log, out=out), [], 0  # out is not read again
    for block in blocks:
        cols = slice(start, start + block.shape[1])
        start = cols.stop
        h0, h1 = _entropy_bits(block)
        hy = -np.ascontiguousarray(plogp[:, cols]).sum(axis=1)
        mi.append(np.maximum(hy - (p[:, 0] * h0 + (1.0 - p[:, 0]) * h1), 0.0))
    if not slope:
        return mi[0] if single else mi, None
    d = block[0] - block[1]  # block, cols, h0 and h1 are the last array's
    grad = h1 - h0 - np.ascontiguousarray(log[:, cols]) @ d - d.sum() / _LN2
    if not block.all():
        grad[(p[:, 0] == 0.0) & np.any((block[1] == 0.0) & (d != 0.0))] = np.inf
        grad[(p[:, 0] == 1.0) & np.any((block[0] == 0.0) & (d != 0.0))] = -np.inf
    return mi[0] if single else mi, grad


def capacity_binary_argmax(channel):
    """Capacity of a binary-input channel and its maximizing input probability.

    Maximizes I(p), concave in p = P(X=0), by `newton_max` on I' = H(r1) -
    H(r0) - sum_y d log2(out_y) and I'' = -(1/ln 2) sum_y d^2 / out_y, with
    out = r1 + p d, over the outputs with d = r0 - r1 != 0.  The value is
    p D(r0 || out) + (1 - p) D(r1 || out), which keeps the digits of small
    capacities that H(out) - H(Y|X) cancels.  Returns (capacity, p_star), the
    capacity clamped to [0, 1] bit.
    """
    ch = as_channel(channel)
    r0, r1 = ch.rows[:, ch.rows[0] != ch.rows[1]]
    d = r0 - r1
    gap = _entropy_bits(r1) - _entropy_bits(r0)

    def slope(p):
        out = r1 + p * d
        with np.errstate(divide="ignore", over="ignore"):
            return gap - (d * np.log2(out)).sum(), -(d * (d / out)).sum() / _LN2

    pstar = newton_max(slope)
    out, cap = r1 + pstar * d, 0.0
    for w, r in ((pstar, r0), (1.0 - pstar, r1)):
        cap += w * (r[r > 0.0] * np.log2(r[r > 0.0] / out[r > 0.0])).sum()
    return min(max(float(cap), 0.0), 1.0), pstar


def capacity_binary(channel):
    return capacity_binary_argmax(channel)[0]


def capacity_biso(biso):
    """Closed-form capacity of a BISO channel in bits, clamped to [0, 1]."""
    biso = canonicalize_biso(biso)
    p = biso.pairs[:, 0]
    q = biso.pairs[:, 1]
    s = p + q
    keep = s > 0.0
    delta = np.where(keep, p / np.where(keep, s, 1.0), 0.0)
    return min(max(1.0 - float((s * _h2_grid(delta)).sum()), 0.0), 1.0)  # h2 is 0 where s = 0


def eta_kl(channel):
    """KL contraction coefficient: the closed form for BISO channels, the optimizer otherwise."""
    try:
        return eta_kl_biso(canonicalize_biso(channel))
    except NotBisoError:
        return eta_kl_binary(channel)


def capacity(channel):
    """Capacity in bits: the closed form for BISO channels, the optimizer otherwise."""
    try:
        return capacity_biso(canonicalize_biso(channel))
    except NotBisoError:
        return capacity_binary(channel)


# ----------------------------------------------------------------------
# Coefficient report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientReport:
    """All scalar functionals of one channel; leakage is stored in nats."""

    eta_kl: float
    eta_tv: float
    doeblin_alpha: float
    alpha_max: float
    maximal_leakage: float
    capacity: float

    @property
    def maximal_leakage_bits(self):
        return self.maximal_leakage / _LN2


def coefficient_report(channel):
    """Compute every coefficient of a binary-input channel.

    BISO channels use the closed forms for eta_KL and capacity; general
    binary channels fall back to the scalar optimizers.
    """
    ch = as_channel(channel)
    return CoefficientReport(
        eta_kl=eta_kl(ch),
        eta_tv=eta_tv(ch),
        doeblin_alpha=doeblin_alpha(ch),
        alpha_max=alpha_max(ch),
        maximal_leakage=maximal_leakage(ch),
        capacity=capacity(ch),
    )


# ----------------------------------------------------------------------
# f-divergences
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FDivergenceGenerator:
    """A convex generator f with f(1) = 0.

    `f0` is the limit of f at 0 and `slope_at_inf` the limit of f(t)/t as
    t -> inf; either may be None to flag +infinity.  The generator is probed
    at 1 on construction.
    """

    fn: callable
    f0: float | None
    slope_at_inf: float | None
    name: str = field(default="f")

    def __post_init__(self):
        probe = self.fn(1.0)
        if abs(probe) > 1e-12:
            raise ParameterOutOfRangeError(f"generator {self.name} has f(1) = {probe!r} != 0")

    def __call__(self, t):
        return self.fn(t)


def tv_generator():
    return FDivergenceGenerator(lambda t: 0.5 * abs(t - 1.0), f0=0.5, slope_at_inf=0.5, name="tv")


def chi2_generator():
    return FDivergenceGenerator(lambda t: (t - 1.0) ** 2, f0=1.0, slope_at_inf=None, name="chi2")


def kl_generator():
    """KL generator in bits: f(t) = t log2 t, with f(0) = 0."""

    def f(t):
        return t * math.log2(t) if t > 0.0 else 0.0

    return FDivergenceGenerator(f, f0=0.0, slope_at_inf=None, name="kl")


def f_divergence(gen, p_vec, q_vec):
    """D_f(P || Q) = sum_x Q(x) f(P(x)/Q(x)) with the usual limit conventions.

    A zero Q-atom carrying positive P-mass contributes P(x) * slope_at_inf;
    when that slope is infinite the divergence is +infinity and
    InfiniteDivergenceError is raised.
    """
    p = np.asarray(p_vec, dtype=float)
    q = np.asarray(q_vec, dtype=float)
    if p.shape != q.shape:
        raise ParameterOutOfRangeError("P and Q must have the same length")
    total = 0.0
    for pi, qi in zip(p, q):
        if qi > 0.0:
            total += qi * gen(pi / qi)
        elif pi > 0.0:
            if gen.slope_at_inf is None:
                raise InfiniteDivergenceError(
                    f"D_{gen.name}: P-atom {pi!r} on a zero Q-atom with infinite slope at infinity"
                )
            total += pi * gen.slope_at_inf
        # pi == qi == 0 contributes nothing
    return float(total)
