"""Decision procedures for the channel partial orders.

Degradability is decided exactly by Blackwell's theorem for dichotomies,
comparing guessing probabilities at finitely many priors; the same curves
give the refuting prior of a failure and, through the shadows of the
posterior masses, the degrading map of a success.  The less-noisy order is
decided from one polynomial, certified positive by its Bernstein
coefficients or else probed on its sign intervals, and a violation is
witnessed in (0, 1/2], where the BISO criterion is symmetric under
q -> 1 - q.  The more-capable order is certified by DC branch and bound
on the cells of an input-bias grid, half of it for symmetric pairs: a
violation is a sampled bias, and a holding verdict rests on a lower bound
of every cell.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channels import BisoChannel, DegradingMap, as_channel, canonicalize_biso, compose
from .coefficients import _mutual_information_and_slope, mutual_information, mutual_information_grid
from .errors import DegenerateParameterError, NumericalInstabilityError

VERDICT_TOL = 1e-9
DEFAULT_GRID = 999
_HALF_GRID = np.arange(1, DEFAULT_GRID // 2 + 2) / (DEFAULT_GRID + 1.0)  # the default grid up to 1/2
_MC_GRID = np.arange(DEFAULT_GRID + 2) / (DEFAULT_GRID + 1.0)  # the default grid with 0 and 1
_MC_HALF = _MC_GRID[: DEFAULT_GRID // 2 + 2]  # its points up to 1/2
_LIMIT_QS = 1e-3 * 2.0 ** -np.arange(1.0, 1001.0)  # q = 1e-3 2^-j toward 0, all normal
_MIN_CELL = 1e-12  # a more-capable cell this narrow that is not certified is undetermined


@dataclass(frozen=True)
class CriterionViolation:
    """A parameter point where a defining inequality fails, with its value."""

    parameter: float
    value: float


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Evidence that no degrading map exists, built by `is_degraded(witness=True)`.

    `guessing_x` is the prior of input 0 at which the would-be degraded
    channel guesses best relative to the other, and `guessing_gap` > 5e-10
    is by how much it guesses better there.  Degradation never improves the
    guessing probability, so the pair refutes degradability and can be
    checked independently with `guessing_probability`.
    """

    guessing_x: float
    guessing_gap: float


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a partial-order query: holds, fails, or undetermined."""

    relation: str
    witness: object = None

    @property
    def holds(self):
        return self.relation == "holds"

    @property
    def fails(self):
        return self.relation == "fails"


@dataclass(frozen=True)
class CriterionProfile:
    """Samples (parameter, value) of a comparison criterion, ascending in (0, 1)."""

    parameters: np.ndarray
    values: np.ndarray


def _interior_grid(grid_size):
    if grid_size < 2:
        raise DegenerateParameterError("grid_size must be at least 2")
    return np.arange(1, grid_size + 1) / (grid_size + 1.0)


# ----------------------------------------------------------------------
# Guessing probability (min-entropy refutation tool)
# ----------------------------------------------------------------------


def guessing_probability(channel, x):
    """Probability of guessing X from Y for X ~ Ber(x) through a binary-input channel.

    x is the probability of input 0.  Sums the larger joint atom over every
    output symbol; degradation can only shrink it, so a crossing between two
    channels refutes degradability.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DegenerateParameterError(f"input bias must lie in [0, 1], got {x!r}")
    return float(_guessing(as_channel(channel).rows, [x])[0])


def _guessing(rows, xs):
    """G(x) = sum_y max(x r0_y, (1 - x) r1_y) at each prior x, for rows (r0, r1)."""
    xs = np.asarray(xs, dtype=float)[:, None]
    return np.maximum(xs * rows[0], (1.0 - xs) * rows[1]).sum(axis=1)


# ----------------------------------------------------------------------
# Less-noisy order (BISO convexity criterion)
# ----------------------------------------------------------------------


def less_noisy_criterion_biso(w, v, q):
    """Signed less-noisy criterion for BISO channels at reference bias q.

    The value is the difference of the two chi-squared curvature sums; the
    first channel is less noisy than the second iff the value is >= 0 for
    every q in (0, 1).  The criterion depends only on the reference bias q
    (the primal input bias cancels), which is why no second bias argument
    exists.  Reported on the same scale as half the second derivative of the
    chi-squared difference; see `less_noisy_criterion_fd`.
    """
    q = float(q)
    if q <= 0.0 or q >= 1.0:
        raise DegenerateParameterError(f"criterion bias must lie strictly inside (0, 1), got {q!r}")
    return float(_criterion(_flat_rows(canonicalize_biso(w), canonicalize_biso(v)), np.array([q]))[0])


def _flat_rows(w, v):
    """Terms (d^2, d, r1), d = r0 - r1, of the flat rows of two channels with
    r0 != r1, so q d + r1 > 0 on (0, 1), and how many are the first's.  A
    BisoChannel's rows are read from its pairs, in `to_channel` order."""
    w_rows, v_rows = (
        ch.flat_rows() if isinstance(ch, BisoChannel) else as_channel(ch).rows for ch in (w, v)
    )
    r0, r1 = np.concatenate((w_rows, v_rows), axis=1)
    d = r0 - r1
    keep = d != 0.0
    return np.stack((d * d, d, r1))[:, keep, None], int(np.count_nonzero(keep[: w_rows.shape[1]]))


def _criterion(rows, qs):
    """sum_y d^2 / (q d + r1) over the first channel's `_flat_rows` minus the second's, at each q.

    The chi-squared criterion of Makur and Polyanskiy (IEEE T-IT 2018).  For
    BISO channels it is the sum over pairs of +-(p - p_-)^2 / (s conv (1 - conv)),
    conv = (q p_- + (1 - q) p) / s, but conv (1 - conv) is never formed: it
    cancels as q -> 0 for lopsided pairs.
    """
    (d2, d, r1), n_w = rows
    terms = d2 / (qs * d + r1)
    zero = np.zeros(len(qs))
    # row after row: identical channels cancel exactly, and one q rounds as in a grid
    return sum(terms[:n_w], zero) - sum(terms[n_w:], zero)


def criterion_profile(w, v, grid_size=DEFAULT_GRID):
    """Criterion samples for the pair (w, v) on the interior grid."""
    qs = _interior_grid(grid_size)
    return CriterionProfile(qs, _criterion(_flat_rows(canonicalize_biso(w), canonicalize_biso(v)), qs))


def _unshared_pairs(w, v):
    """The pairs of each BISO channel left once the pairs both share are cancelled.

    A pair and its mirror (p_-, p) contribute the same term, so they count
    as one; the multisets are cancelled exactly, each shared pair once, and
    the remaining pairs keep their order.  Identical channels leave nothing.
    """
    keys = [[(a, b) if a <= b else (b, a) for a, b in ch.pairs.tolist()] for ch in (w, v)]
    if set(keys[0]).isdisjoint(keys[1]):
        return w.pairs, v.pairs
    shared = Counter(keys[0]) & Counter(keys[1])
    left = []
    for ch, chkeys in zip((w, v), keys):
        budget = shared.copy()
        keep = []
        for key in chkeys:
            keep.append(budget[key] <= 0)
            budget[key] -= 1
        left.append(ch.pairs[keep])
    return tuple(left)


def _criterion_polynomial(w_pairs, v_pairs, magnitude=False):
    """Coefficients, highest first, of (criterion + VERDICT_TOL) prod(a + cx) in x = 4q(1 - q).

    A pair with s = p + p_- contributes 4k / (a + cx), k = (p - p_-)^2 / s,
    c = (p - p_-)^2 / s^2, a = 1 - c = 4 p p_- / s^2; p = p_- contributes
    nothing.  prod(a + cx) > 0 on (0, 1], so the product, a polynomial of
    degree <= l_W + l_V, has the sign of the criterion + VERDICT_TOL there.
    With `magnitude` every k enters as |k|: its coefficients bound the
    magnitude of the terms each coefficient sums, since a, c >= 0.
    """
    pairs = np.concatenate((w_pairs, v_pairs))
    moving = pairs[:, 0] != pairs[:, 1]
    p, pm = pairs[moving].T
    s = p + pm
    k = np.repeat([4.0, -4.0], (len(w_pairs), len(v_pairs)))[moving] * (p - pm) ** 2 / s
    if magnitude:
        k = np.abs(k)
    # prod_j (c_j x + a_j) and sum_i k_i prod_{j != i} (c_j x + a_j), one factor at a time,
    # in Python floats: each coefficient is the two-term sum np.convolve forms, bit for bit
    prod, acc = [1.0], [0.0]
    for ki, ci, ai in zip(k.tolist(), (((p - pm) / s) ** 2).tolist(), (4.0 * p * pm / s**2).tolist()):
        acc = [x * ci + y * ai + ki * z for x, y, z in zip(acc + [0.0], [0.0] + acc, [0.0] + prod)]
        prod = [x * ci + y * ai for x, y in zip(prod + [0.0], [0.0] + prod)]
    return VERDICT_TOL * np.array(prod) + np.array(acc)


@functools.lru_cache(maxsize=32)
def _bernstein_matrix(n):
    """M[k, j] = C(k, j) / C(n, j) for j <= k, each a correctly rounded integer quotient.

    M a, for power coefficients a lowest first, are the degree-n Bernstein
    coefficients on [0, 1] (Farouki & Rajan, CAGD 1987).
    """
    cn = [math.comb(n, j) for j in range(n + 1)]
    m = np.zeros((n + 1, n + 1))
    row = [1]  # C(k, j), j = 0..k: Pascal's triangle
    for k in range(n + 1):
        m[k, : k + 1] = [c / d for c, d in zip(row, cn)]
        row = [a + b for a, b in zip([0] + row, row + [0])]
    m.setflags(write=False)
    return m


def _bernstein_positive(poly, magnitude=None):
    """Whether the Bernstein coefficients of `poly` (highest first) prove it positive on [0, 1].

    P = sum_k b_k C(n, k) x^k (1 - x)^(n - k) is a convex combination of its
    coefficients b, so P >= min b_k on [0, 1].  Each b_k must exceed
    4 (n + 4) 2^-52 B_k(Mag), B_k(Mag) being the same transform of the
    `magnitude` polynomial.  That bounds, in units u = 2^-53 of B_k(Mag), the
    rounding of k, a and c (each term k / (a + cx) of the criterion moves by
    under 11u, and the common factor prod(a + cx) > 0 keeps the sign), of
    the products and sums of `_criterion_polynomial` (gamma_(3n+2)), of the
    matrix entries (u) and of the sums of M a (gamma_(n+1)): (4n + 15) u in
    all, under half the margin.  Without `magnitude`, B_k(Mag) <= 9 stands
    in: each prod_(j != i) (a_j + c_j x) has Bernstein coefficients in
    [0, 1], those of its factors being (a_j, a_j + c_j) = (a_j, 1), and
    sum |k_i| = 4 (eta_W + eta_V) <= 8 (1 + 1e-9).  A zero or negative b_k
    never passes.
    """
    n = poly.size - 1
    m = _bernstein_matrix(n)
    scale = 9.0 if magnitude is None else m @ magnitude[::-1]
    return bool(np.all(m @ poly[::-1] > (4.0 * (n + 4) * 2.0**-52) * scale))


def _limit_violation(rows):
    """A first q = 1e-3 2^-j, j = 1..1000, where the criterion is below -VERDICT_TOL, or None.

    Searched only when no flat row has r1 = 0, so the criterion tends to
    the finite sum_W d^2 / r1 - sum_V d^2 / r1 as q -> 0, and only when that
    limit is below -VERDICT_TOL.
    """
    r1 = rows[0][2]
    if not np.all(r1 > 0.0) or _criterion(rows, np.zeros(1))[0] >= -VERDICT_TOL:
        return None
    vals = _criterion(rows, _LIMIT_QS)
    below = np.flatnonzero(vals < -VERDICT_TOL)
    if not below.size:
        return None
    return CriterionViolation(float(_LIMIT_QS[below[0]]), float(vals[below[0]]))


def _sign_probes(poly):
    """q-points in (0, 1/2] meeting every sign interval of a `_criterion_polynomial`:
    each (near-)real root in (0, 1) and the midpoint of each interval between them.
    """
    roots = np.roots(poly)
    real = roots.real[(np.abs(roots.imag) <= 1e-7) & (roots.real > 0.0) & (roots.real < 1.0)]
    edges = np.concatenate(([0.0], np.sort(real), [1.0]))
    xs = np.concatenate((real, (edges[:-1] + edges[1:]) / 2.0))
    qs = xs / (2.0 * (1.0 + np.sqrt(1.0 - xs)))  # the root of 4q(1 - q) = x in (0, 1/2]
    return qs[qs > 0.0]


def is_less_noisy(w, v):
    """Decide whether the first BISO channel is less noisy than the second.

    Fails iff the convexity criterion dips below -1e-9 somewhere in (0, 1);
    every failure is a point where the criterion itself is below -1e-9.  The
    criterion of a BISO pair is symmetric under q -> 1 - q, so only (0, 1/2]
    is searched and the witness lies there.  In order: the default q-grid's
    points up to 1/2, whose argmin is the witness when they show the
    violation; after cancelling the pairs both channels share, the Bernstein
    certificate of `_criterion_polynomial` (holds); one `_sign_probes` point
    per sign interval of the polynomial, the lowest being the witness; and,
    when the probes miss a violation that hides below them, the limit
    q -> 0 where it is finite (`_limit_violation`).  Channels sharing a
    contraction coefficient touch zero at q = 1/2, so roundoff there counts
    as holds.
    """
    w, v = canonicalize_biso(w), canonicalize_biso(v)
    rows = _flat_rows(w, v)
    qs = _HALF_GRID
    vals = _criterion(rows, qs)
    if vals.min() >= -VERDICT_TOL:
        w_pairs, v_pairs = _unshared_pairs(w, v)
        poly = _criterion_polynomial(w_pairs, v_pairs)
        if _bernstein_positive(poly) or _bernstein_positive(
            poly, _criterion_polynomial(w_pairs, v_pairs, magnitude=True)
        ):
            return OrderVerdict("holds")
        qs = _sign_probes(poly)
        vals = _criterion(rows, qs)
        if vals.min() >= -VERDICT_TOL:
            limit = _limit_violation(rows)
            return OrderVerdict("holds") if limit is None else OrderVerdict("fails", limit)
    k = int(np.argmin(vals))
    return OrderVerdict("fails", CriterionViolation(float(qs[k]), float(vals[k])))


def less_noisy_criterion_fd(w, v, p, q):
    """Second derivative of the chi-squared difference for general binary channels.

    The derivative is in the primal bias p of
    chi2(W o Ber(p) || W o Ber(q)) - chi2(V o Ber(p) || V o Ber(q)).
    Both terms are quadratic in p, so each contributes the constant
    2 sum (r0 - r1)^2 / (q r0 + (1 - q) r1) over the outputs with r0 != r1;
    `p` does not change the value.  Equals twice the BISO closed criterion.
    """
    q = float(q)
    if q <= 0.0 or q >= 1.0:
        raise DegenerateParameterError("reference bias must lie strictly inside (0, 1)")
    return 2.0 * float(_criterion(_flat_rows(w, v), np.array([q]))[0])


# ----------------------------------------------------------------------
# More-capable order
# ----------------------------------------------------------------------


def mutual_information_difference(p_channel, q_channel, x):
    """I(X:Y_P) - I(X:Y_Q) at input bias x in [0, 1] (both channels see the same law)."""
    return mutual_information(p_channel, x) - mutual_information(q_channel, x)


def _mc_samples(p_ch, q_ch, xs):
    """Rows x, f = I_P - I_Q, I_Q and I_Q' at each bias."""
    iq, sq = _mutual_information_and_slope(q_ch, xs)
    return np.array((xs, mutual_information_grid(p_ch, xs) - iq, iq, sq))


def _symmetric(ch):
    """Whether swapping the inputs leaves the channel as it is, exactly: the
    columns (r0, r1) are the same multiset as the columns (r1, r0).  Then
    I(x) = I(1 - x).  The flat BISO layout passes without a sort."""
    rows = ch.rows
    if np.array_equal(rows[0], rows[1, ::-1]):
        return True
    return np.array_equal(rows[:, np.lexsort(rows[::-1])], rows[::-1, np.lexsort(rows)])


def _dc_bounds(lo, hi):
    """Lower bound of f = I_P - I_Q on each cell [a, b] from its two `_mc_samples` columns.

    I_P lies above its chord and I_Q below both end tangents, so f is at
    least min(f(a), f(b), chord_P(c) - tangent_Q(c)), c = a + t (b - a)
    where the tangents cross.  With u and v how far the tangents at b and a
    lie above I_Q at the other end, t = u / (u + v) and the last term is
    f(a) + t (f(b) - f(a)) - uv / (u + v).  An infinite end slope makes u or
    v infinite, which puts c at that end and leaves the other tangent.
    """
    (a, fa, qa, sa), (b, fb, qb, sb) = lo, hi
    w, dq = b - a, qb - qa
    u = np.maximum(dq - sb * w, 0.0)
    v = np.maximum(sa * w - dq, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = fa + (fb - fa) / (1.0 + v / u) - 1.0 / (1.0 / u + 1.0 / v)
    return np.fmin(np.minimum(fa, fb), cross)  # NaN where I_Q is linear: no crossing


def is_more_capable(p_channel, q_channel):
    """Decide whether the first binary-input channel is more capable than the second.

    f = I_P - I_Q, a difference of concave functions of the input bias, is
    sampled at k/1000, k = 0..1000; a sample below -1e-9 fails with the grid
    argmin as witness.  Otherwise each cell is certified by the bound of
    `_dc_bounds`, and cells whose bound is below -1e-9 are halved, all of
    one width at a time (DC branch and bound; Horst & Thoai, JOTA 1999).  A
    midpoint below -1e-9 fails with the lowest such midpoint as witness; the
    order holds once every cell is certified, and is undetermined, with the
    lowest cell bound as witness, if a cell narrower than 1e-12 is not.
    When both channels are `_symmetric`, f(x) = f(1 - x), and only
    k <= 500 is sampled, certified and halved, so every witness lies in
    [0, 1/2].
    """
    p_ch = as_channel(p_channel)
    q_ch = as_channel(q_channel)
    pts = _mc_samples(p_ch, q_ch, _MC_HALF if _symmetric(p_ch) and _symmetric(q_ch) else _MC_GRID)
    lo, hi = pts[:, :-1], pts[:, 1:]
    k = int(np.argmin(pts[1]))
    while pts[1, k] >= -VERDICT_TOL:
        bounds = _dc_bounds(lo, hi)
        keep = bounds < -VERDICT_TOL
        if not keep.any():
            return OrderVerdict("holds")
        lo, hi, bounds = lo[:, keep], hi[:, keep], bounds[keep]
        if hi[0, 0] - lo[0, 0] < _MIN_CELL:
            j = int(np.argmin(bounds))
            return OrderVerdict("undetermined", CriterionViolation(float(lo[0, j]), float(bounds[j])))
        pts = _mc_samples(p_ch, q_ch, (lo[0] + hi[0]) / 2.0)
        lo, hi = np.concatenate((lo, pts), axis=1), np.concatenate((pts, hi), axis=1)
        k = int(np.argmin(pts[1]))
    return OrderVerdict("fails", CriterionViolation(float(pts[0, k]), float(pts[1, k])))


# ----------------------------------------------------------------------
# Degradability (exact, via guessing probabilities)
# ----------------------------------------------------------------------


def _guessing_peak(p_ch, q_ch):
    """The prior x at which G_Q - G_P peaks over [0, 1], and the peak.

    G(x) = sum_y max(x r0_y, (1 - x) r1_y) is convex and piecewise linear
    with kinks at r1_y / (r0_y + r1_y).  Between the kinks of G_P,
    G_Q - G_P is convex, so its maximum is attained at a kink of P or at
    0 or 1: the peak is exact for every pair of binary-input channels.
    """
    r0, r1 = p_ch.rows
    s = r0 + r1
    xs = np.concatenate(([0.0, 1.0], r1[s > 0.0] / s[s > 0.0]))
    gap = _guessing(q_ch.rows, xs) - _guessing(p_ch.rows, xs)
    k = int(np.argmax(gap))
    return float(xs[k]), float(gap[k])


def _degrading_map(p_ch, q_ch):
    """A row-stochastic D with P D = Q, built from the two channels' posteriors.

    Output y of P carries mass r0_y + r1_y at posterior r0_y / (r0_y + r1_y),
    and D degrades P onto Q iff it splits that mass among Q's outputs so that
    output z collects mass s0_z + s1_z at mean posterior s0_z / (s0_z + s1_z).
    Taking Q's outputs in ascending posterior, each claims from P's remaining
    mass, laid out by ascending posterior, the contiguous interval of its
    mass whose mean posterior is its own: the shadow of that atom (Beiglboeck
    & Juillet, Ann. Probab. 2016).  By the associativity of shadows this uses
    up P's mass exactly when Blackwell's test holds, so the last output takes
    what is left.  Near the tolerance the interval is clamped to the layout,
    and the re-composition check in `is_degraded` bounds the drift.
    """
    r0, r1 = p_ch.rows
    s0, s1 = q_ch.rows
    mass = r0 + r1
    safe = np.where(mass > 0.0, mass, 1.0)
    post = r0 / safe
    order = np.argsort(post, kind="stable")
    post, left = post[order], mass[order]
    q_mass = s0 + s1
    phi = s0 / np.where(q_mass > 0.0, q_mass, 1.0)
    zs = [z for z in np.argsort(phi, kind="stable") if q_mass[z] > 0.0]
    taken = np.zeros((r0.size, s0.size))
    for z in zs[:-1]:
        cum = np.concatenate(([0.0], np.cumsum(left)))
        first = np.concatenate(([0.0], np.cumsum(left * post)))
        need = min(q_mass[z], cum[-1])
        # the first moment of [a, a + need] is nondecreasing in a, linear between these breakpoints
        a = np.sort(np.clip(np.concatenate((cum, cum - need)), 0.0, cum[-1] - need))
        g = np.interp(a + need, cum, first) - np.interp(a, cum, first)
        lo = np.interp(s0[z], g, a)
        taken[:, z] = np.clip(np.minimum(cum[1:], lo + need) - np.maximum(cum[:-1], lo), 0.0, left)
        left = left - taken[:, z]
    taken[:, zs[-1]] = left
    entries = np.zeros_like(taken)
    entries[order] = taken / safe[order, None]
    entries[mass == 0.0, zs[0]] = 1.0  # an output P never emits may go anywhere
    return entries


def is_degraded(p_channel, q_channel, witness=True):
    """Decide whether the second channel is a degraded version of the first.

    The relation comes from Blackwell's guessing-probability test, exact for
    every pair of binary-input channels: it holds while the peak of G_Q - G_P
    is at most VERDICT_TOL / 2.  With the full 1e-9, BSC(alpha / 2 - 1e-9)
    targets, whose gap is 1e-9 - 3e-17, would hold although no stochastic
    map within 1e-9 reaches them.  With `witness=False` that is all
    that runs, and the verdict carries no witness.  With `witness=True` a
    failing verdict carries the prior at which the second channel guesses
    best relative to the first, and a holding verdict carries the degrading
    map `_degrading_map` builds from the two channels' posteriors, validated
    by re-composition to 1e-8 per entry (NumericalInstabilityError beyond).
    """
    p_ch = as_channel(p_channel)
    q_ch = as_channel(q_channel)
    x, gap = _guessing_peak(p_ch, q_ch)
    if gap > VERDICT_TOL / 2.0:
        return OrderVerdict("fails", InfeasibilityCertificate(x, gap) if witness else None)
    if not witness:
        return OrderVerdict("holds")
    dmap = DegradingMap(_degrading_map(p_ch, q_ch))
    drift = float(np.abs(compose(p_ch, dmap).rows - q_ch.rows).max())
    if drift > 1e-8:
        raise NumericalInstabilityError(f"witness re-composition drifts by {drift:g}")
    return OrderVerdict("holds", dmap)
