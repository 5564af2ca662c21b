"""Decision procedures for the channel partial orders.

Degradability is decided exactly by Blackwell's theorem for dichotomies,
comparing guessing probabilities at finitely many priors; the same curves
give the refuting prior of a failure and, through the shadows of the
posterior masses, the degrading map of a success.  The less-noisy and
more-capable orders share one DC branch and bound on the cells of a grid,
tried first on every 20th point: a violation is a sampled point, and a
holding verdict rests on a lower bound of every cell.  Both first net the
columns of one likelihood ratio, whose terms scale with their mass, so a
self-comparison holds at once; a failing sample of netted columns is
re-valued on all.  More-capable searches I_P - I_Q, in slices that keep its
arrays bounded, on [0, 1/2] only for symmetric pairs.  Less-noisy searches
the chi-squared contraction curves rho_W - rho_V of its BISO pair's flat
rows on [0, 1/2], finite at q = 0, behind a Bernstein certificate of the
criterion up to netted degree 20 and a half grid.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .channels import DegradingMap, as_channel, canonicalize_biso, is_biso
from .coefficients import _mutual_information_and_slope, _rho_and_slope
from .errors import DegenerateParameterError, NumericalInstabilityError

VERDICT_TOL = 1e-9
DEFAULT_GRID = 999
_HALF_GRID = np.arange(1, DEFAULT_GRID // 2 + 2) / (DEFAULT_GRID + 1.0)  # the default grid up to 1/2
_MC_GRID = np.arange(DEFAULT_GRID + 2) / (DEFAULT_GRID + 1.0)  # the default grid with 0 and 1
_MC_HALF = _MC_GRID[: DEFAULT_GRID // 2 + 2]  # its points up to 1/2, which the less-noisy search takes too
_MIN_CELL = 1e-12  # a more-capable cell this narrow that is not certified is undetermined
_MC_CELLS = 2**17  # more-capable cells open at once, at most
_TERMS = 2**22  # less-noisy cells open at once times columns, at most; a quarter bounds a more-capable slice
_COARSE = 20  # `_dc_search` first bounds the cells between every 20th point of its grid
_CERTIFY_FIRST = 20  # netted pairs up to which the O(n^2) certificate, tried first, costs no more than the half grid
_TOWARD_ZERO = np.ldexp(_HALF_GRID[0], -np.arange(1, 1066))  # q = 1e-3 2^-j down to 1e-3 2^-1065 = 5e-324


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
    """Outcome of a partial-order query: holds, fails, or undetermined.

    An undetermined witness holds the left end and the lower bound of the
    lowest cell `_dc_search` could not certify, for less-noisy a bound of
    rho_W - rho_V + 1e-9 q (1 - q); a sample whose value on the un-netted rows
    is not below -1e-9 (see `_confirmed`) is the cell [x, x], its bound.
    """

    relation: str
    witness: object = None

    @property
    def holds(self):
        return self.relation == "holds"

    @property
    def fails(self):
        return self.relation == "fails"


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


def less_noisy_criterion(w, v, q):
    """Signed less-noisy criterion of two binary-input channels at reference bias q.

    q is a float or an array in (0, 1); the value is a float or an array of
    q's shape.  It is the difference of the two chi-squared curvature sums:
    the first channel is less noisy than the second iff it is >= 0 for every
    q in (0, 1).  The primal input bias cancels, which is why no second bias
    argument exists: chi2(W o Ber(p) || W o Ber(q)) - chi2(V o Ber(p) ||
    V o Ber(q)) is quadratic in p with second derivative twice this value.
    A BISO channel is summed on its canonical flat rows, any other on its
    own rows.  One point and many give the same bits (see `_criterion`).
    """
    qs = np.asarray(q, dtype=float)
    if not np.all((qs > 0.0) & (qs < 1.0)):
        raise DegenerateParameterError(f"criterion bias must lie strictly inside (0, 1), got {q!r}")
    vals = _criterion(_flat_rows(_criterion_rows(w), _criterion_rows(v)), qs.ravel())
    return float(vals[0]) if qs.ndim == 0 else vals.reshape(qs.shape)


def _criterion_rows(ch):
    """The rows the criterion sums: a BISO channel's canonical flat rows, any other's own."""
    return canonicalize_biso(ch).to_channel().rows if is_biso(ch) else as_channel(ch).rows


def _flat_rows(w, v):
    """Terms (A, B, C), each adding A / (q B + C), of the flat rows of two channels, or of two
    row arrays, with r0 != r1, and how many are the first's: (d^2, d, r1), d = r0 - r1, so
    q d + r1 > 0 on (0, 1).  A row with a zero entry is stored by its mass s = |d|, as
    (s, 1, 0) if r1 = 0 (a noiseless row, d^2 / (q d) = s / q) and (s, -1, 1) if r0 = 0
    (s / (1 - q)): neither d^2 nor q d + r1 may underflow to 0 / 0 there."""
    w_rows, v_rows = (ch if isinstance(ch, np.ndarray) else as_channel(ch).rows for ch in (w, v))
    r0, r1 = np.concatenate((w_rows, v_rows), axis=1)
    d = r0 - r1
    keep = d != 0.0
    zero = (r0 == 0.0) | (r1 == 0.0)
    terms = np.stack((np.where(zero, np.abs(d), d * d), np.where(zero, np.sign(d), d), np.where(r0 == 0.0, 1.0, r1)))
    return terms[:, keep, None], int(np.count_nonzero(keep[: w_rows.shape[1]]))


def _criterion(rows, qs):
    """sum_y d^2 / (q d + r1) over the first channel's `_flat_rows` minus the second's, at each q.

    The chi-squared criterion of Makur and Polyanskiy (IEEE T-IT 2018).  For
    BISO channels it is the sum over pairs of +-(p - p_-)^2 / (s conv (1 - conv)),
    conv = (q p_- + (1 - q) p) / s, but conv (1 - conv) is never formed: it
    cancels as q -> 0 for lopsided pairs.
    """
    (a, b, c), n_w = rows
    with np.errstate(over="ignore", invalid="ignore"):  # a term overflows only where it is that large; inf - inf is NaN
        terms = a / (qs * b + c)
        # row after row: identical channels cancel exactly.  numpy sums the rows in order at 2 or more
        # points, but one point's column pairwise, a last bit apart: there `_row_sums` loops instead
        return _row_sums(terms[:n_w]) - _row_sums(terms[n_w:])


def _row_sums(terms):
    """The rows of `terms` (rows x points) summed in order at each point; see `_criterion`."""
    return terms.sum(axis=0) if terms.shape[1] > 1 else sum(terms, np.zeros(1))


def _net_rows(w_rows, v_rows):
    """The columns (r0, r1) of two channels' rows, those of one likelihood ratio netted.

    A column of mass s = r0 + r1 adds s times a function of t = min(r0, r1) / s
    and of which row is larger, both to the chi-squared criterion and to I(X;Y),
    so the columns of one key, W's +s and V's -s, net to the first rescaled to
    mass |net|, on the side of its sign.  Each s rounds by 2^-53 s at most and a
    group of n sums with (n - 1) 2^-53 of its gross mass: a net within n 2^-52 of
    it cancels.  Columns with r0 = r1 add nothing and are dropped; the netted
    ones keep the order of their groups' first columns.  With no key shared the
    two arrays come back as they are.
    """
    r0, r1 = np.concatenate((w_rows, v_rows), axis=1)
    s = r0 + r1
    # -t where r1 is larger, -0 apart from 0; a column of zeros keys as 0
    key = np.copysign(np.minimum(r0, r1) / np.maximum(s, 5e-324), r0 - r1).view(np.int64)
    if len(set(key.tolist())) == key.size:
        return w_rows, v_rows
    moving = r0 != r1  # columns with r0 = r1, which add nothing, may share a key: test again without them
    r0, r1, s, key = r0[moving], r1[moving], s[moving], key[moving]
    if len(set(key.tolist())) == key.size:
        return w_rows, v_rows
    _, first, group, size = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    # bincount sums each group's masses in column order
    net = np.bincount(group, np.where(np.flatnonzero(moving) < w_rows.shape[1], s, -s))
    keep = np.abs(net) > size * 2.0**-52 * np.bincount(group, s)
    by_first = np.argsort(first[keep])
    first, net = first[keep][by_first], net[keep][by_first]
    cols, s, mass = np.stack((r0[first], r1[first])), s[first], np.abs(net)
    # a subnormal s may overflow the scale mass / s (|net| <= 4): then the shares take the mass
    rows = cols * (mass / s) if np.all(mass < s * 2.0**1000) else cols / s * mass
    return rows[:, net > 0.0], rows[:, net < 0.0]


def _bernstein_factors(w_rows, v_rows):
    """k and a, as lists of floats, of each pair of two BISO channels' flat rows with p != p_-,
    read from its column with r0 > r1 (a pair and its mirror give the same k and a).

    A pair with s = p + p_- contributes k / (a + cx) to the criterion,
    x = 4q(1 - q), k = +-4 (p - p_-)^2 / s (+ for W), c = (p - p_-)^2 / s^2,
    a = 4 (p / s)(p_- / s) = 1 - c; p = p_- contributes nothing.  One pass of Python
    floats, cheaper than numpy on pair-sized rows, rounds each step as numpy did.
    """
    k, a = [], []
    for sign, rows in ((4.0, w_rows), (-4.0, v_rows)):
        for p, pm in zip(*rows.tolist()):
            if p > pm:
                s = p + pm
                k.append(sign * ((p - pm) * (p - pm)) / s)
                a.append(4.0 * (p / s) * (pm / s))
    return k, a


def _criterion_bernstein(k, a):
    """Bernstein coefficients b_0..b_n on [0, 1] of (criterion + VERDICT_TOL) prod(a + cx), x = 4q(1 - q).

    k and a are the `_bernstein_factors`.  prod(a + cx) > 0 on (0, 1], so the
    product, of degree n <= l_W + l_V, has the sign of the criterion +
    VERDICT_TOL there.  A factor a + cx = a (1 - x) + x has Bernstein
    coefficients (a, 1), so c is never formed, and times it a product b of
    degree j - 1 has the coefficients (j - m)/j a b_m + m/j b_(m-1) (Farouki
    & Rajan, CAGD 1988): no binomial, and every coefficient stays within +-9
    at any degree.
    """
    # prod_j (a_j + c_j x) and VERDICT_TOL prod_j + sum_i k_i prod_(j != i), one factor at a
    # time in Python floats; the sum is raised by one degree as it takes k_j times the product
    prod, acc = [1.0], [VERDICT_TOL]
    for j, (kj, aj) in enumerate(zip(k, a), 1):
        up = [m / j for m in range(j + 1)]
        down = up[::-1]
        acc = [d * (x * aj + kj * z) + u * (y + kj * w)
               for d, u, x, y, z, w in zip(down, up, acc + [0.0], [0.0] + acc, prod + [0.0], [0.0] + prod)]
        prod = [d * (x * aj) + u * y for d, u, x, y in zip(down, up, prod + [0.0], [0.0] + prod)]
    return np.array(acc)


def _bernstein_margin(n):
    """What each coefficient of a degree-n `_criterion_bernstein` must exceed; see `_bernstein_positive`."""
    return (4.0 * (n + 4) * 2.0**-52) * 9.0


def _bernstein_positive(b):
    """Whether the coefficients b of `_criterion_bernstein` prove it positive on (0, 1].

    P = sum_k b_k C(n, k) x^k (1 - x)^(n - k) is a convex combination of b,
    so P >= min b_k on [0, 1].  Each b_k must exceed 4 (n + 4) 2^-52 9 =
    (8n + 32) 9u, u = 2^-53.  The rounded k and a (each within 5u) are the
    exact inputs of a criterion whose terms are each within 11u of the true
    ones, times prod(a (1 - x) + x) > 0, which keeps its sign.  The recursion
    multiplies nonnegative weights, a and products, and only k and
    VERDICT_TOL carry a sign, so each b_k sums terms that pass at most 5
    roundings a step: it is within gamma_(5n) B_k(Mag) of the exact value,
    Mag the polynomial with |k| for k.  With the inputs' 11u that is
    (5n + 12) u B_k(Mag), under the margin.  B_k(Mag) <= 9: each
    prod_(j != i) has Bernstein coefficients in [0, (1 + 6u)^n], its
    factors' being (a_j, 1) with a_j <= 1 + 6u, and sum |k_i| =
    4 (eta_W + eta_V) <= 8 (1 + 1e-9), which netting only lowers.  The least
    coefficient is tested; a NaN one fails, as NaN > margin is False.
    """
    return bool(b.min() > _bernstein_margin(b.size - 1))


def _rho_samples(rows, qs):
    """Rows q, f = rho_W - rho_V + 1e-9 q (1 - q), rho_V and rho_V' at each q, for the columns
    (W's, V's) of `_net_rows`, with rho of `_rho_and_slope`: f is concave minus concave."""
    rho_v, slope_v = _rho_and_slope(rows[1], qs)
    f = _rho_and_slope(rows[0], qs)[0] - rho_v + VERDICT_TOL * qs * (1.0 - qs)
    return np.array((qs, f, rho_v, slope_v))


def _toward_zero(rows):
    """The verdict of `_flat_rows` whose net noiseless mass K < 0: the criterion tends to K / q ->
    -inf as q -> 0, so it fails at the first q of `_TOWARD_ZERO` where it is below -1e-9, or, where
    inf - inf at subnormal q leaves none, the cell (0, 5e-324] is undetermined.  The ladder is
    valued in one call, each q to the bits of a call at q alone (see `_criterion`)."""
    vals = _criterion(rows, _TOWARD_ZERO)
    below = np.flatnonzero(vals < -VERDICT_TOL)
    if below.size:
        return OrderVerdict("fails", CriterionViolation(float(_TOWARD_ZERO[below[0]]), float(vals[below[0]])))
    return OrderVerdict("undetermined", CriterionViolation(0.0, -np.inf))


def is_less_noisy(w, v):
    """Decide whether the first BISO channel is less noisy than the second.

    Fails iff the convexity criterion, symmetric under q -> 1 - q, dips below
    -1e-9 in (0, 1/2] (so channels of one contraction coefficient, which touch
    zero at q = 1/2, hold), with a witness q > 0 where the criterion over all
    flat rows is below -1e-9.  On the canonical flat rows, in this order: up
    to `_CERTIFY_FIRST` netted pairs, the Bernstein certificate of the rows
    `_net_rows` nets, built only if its last coefficient, 1e-9 + sum k =
    1e-9 + 4 (eta_KL(W) - eta_KL(V)), clears its margin; the q-grid up to
    1/2, its argmin the witness; `_dc_search` on [0, 1/2] of
    f = rho_W - rho_V + 1e-9 q (1 - q) = q (1 - q)(criterion + 1e-9) of the
    netted rows (`_rho_samples`), its witness `_confirmed` by `_criterion`.  f
    rounds by under eps = (n + 8) 2^-51 for n netted columns (each term a few
    roundings from a value in [0, its mass], the masses at most 4), so samples
    fail below -eps and cells hold from -eps: near q = 0 "holds" means
    criterion >= -1e-9 - eps / (q (1 - q)).  f(0) is the net noiseless mass K,
    of one column at most: its sign is exact, and K < 0 fails before the
    search (`_toward_zero`).
    """
    w_rows, v_rows = (canonicalize_biso(ch).to_channel().rows for ch in (w, v))
    net = _net_rows(w_rows, v_rows)
    n = net[0].shape[1] + net[1].shape[1]
    # at most half the flat columns have r0 > r1, one per pair: past 2 _CERTIFY_FIRST columns numpy
    # counts them, the certificate's degree, before `_bernstein_factors` loops over them
    if n <= 2 * _CERTIFY_FIRST or sum(np.count_nonzero(r0 > r1) for r0, r1 in net) <= _CERTIFY_FIRST:
        k, a = _bernstein_factors(*net)  # the certificate's degree is len(k)
        if len(k) <= _CERTIFY_FIRST and sum(k, VERDICT_TOL) > _bernstein_margin(len(k)):
            if _bernstein_positive(_criterion_bernstein(k, a)):
                return OrderVerdict("holds")
    rows = _flat_rows(w_rows, v_rows)
    vals = _criterion(rows, _HALF_GRID)
    if vals.min() < -VERDICT_TOL:
        k = int(np.argmin(vals))
        return OrderVerdict("fails", CriterionViolation(float(_HALF_GRID[k]), float(vals[k])))
    if _rho_samples(net, np.zeros(1))[1, 0] < 0.0:  # f(0) = K < 0
        return _toward_zero(rows)
    verdict = _dc_search(functools.partial(_rho_samples, net), _MC_HALF, 0.0, _TERMS // max(n, 1), (n + 8) * 2.0**-51)
    return _confirmed(verdict, functools.partial(_criterion, rows))


# ----------------------------------------------------------------------
# More-capable order
# ----------------------------------------------------------------------


def _mc_samples(rows, xs):
    """Rows x, f = I_P - I_Q, I_Q and I_Q' at each bias, for the columns (P's, Q's) of `_net_rows`.

    A round of more than _TERMS / 4 biases times columns is sampled in
    slices of at most that many, so it holds a few float arrays of 8 MB at
    any channel size; each bias's sums run over its own row of outputs, so
    the slices give the bits of the whole round.  One kernel call values
    both channels' columns in a slice, each to the bits of a call on it alone.
    """
    p_rows, q_rows = rows
    step = max(_TERMS // 4 // max(p_rows.shape[1] + q_rows.shape[1], 1), 1)
    if xs.size > step:
        return np.concatenate([_mc_samples(rows, xs[i : i + step]) for i in range(0, xs.size, step)], axis=1)
    (ip, iq), sq = _mutual_information_and_slope(rows, xs)
    return np.array((xs, ip - iq, iq, sq))


def _symmetric(ch):
    """Whether swapping the inputs leaves the channel as it is, exactly: the
    columns (r0, r1) are the same multiset as the columns (r1, r0).  Then
    I(x) = I(1 - x).  The flat BISO layout passes without a sort."""
    rows = ch.rows
    if np.array_equal(rows[0], rows[1, ::-1]):
        return True
    return np.array_equal(rows[:, np.lexsort(rows[::-1])], rows[::-1, np.lexsort(rows)])


def _dc_bounds(lo, hi):
    """Lower bound of f = A - B on each cell [a, b] from its two sample columns (x, f, B, B').

    A and B are concave (I_P and I_Q for more-capable, rho_W + 1e-9 q (1 - q) and rho_V
    for less-noisy): A lies above its chord and B below both end tangents, so f is at
    least min(f(a), f(b), chord_A(c) - tangent_B(c)), c = a + t (b - a) where the tangents
    cross.  With u and v how far the tangents at b and a lie above B at the other end,
    t = u / (u + v) and the last term is f(a) + t (f(b) - f(a)) - uv / (u + v).  An
    infinite end slope, or a u or v so small that its reciprocal overflows, puts c at that
    end.  B' falls, so an overflowed +inf at b leaves B rising: f >= min(f(a) - (B(b) - B(a)), f(b)).
    """
    (a, fa, qa, sa), (b, fb, qb, sb) = lo, hi
    w, dq = b - a, qb - qa
    u = np.maximum(dq - sb * w, 0.0)
    v = np.maximum(sa * w - dq, 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cross = fa + (fb - fa) / (1.0 + v / u) - 1.0 / (1.0 / u + 1.0 / v)
    # cross is NaN where B is linear: no crossing
    return np.where(sb < np.inf, np.fmin(np.minimum(fa, fb), cross), np.minimum(fa - dq, fb))


def _dc_search(sample, xs, min_cell, max_cells, tol=VERDICT_TOL):
    """Whether f >= -tol on [xs[0], xs[-1]], by DC branch and bound (Horst & Thoai, JOTA 1999).

    `sample(xs)` gives rows x, f, B and B' at each x, f = A - B for concave A and B,
    each x's column the same bits in any round.  The cells between every `_COARSE`-th
    point and the last are bounded first.  Open are those whose bound, NaN too, is not
    above the coarse minimum + 2 tol if that is below -tol (the argmin of xs lies in
    them), else not at least -tol; with none open it holds.  One call samples the grid
    points inside the open cells, and the lowest point sampled, the first of equal
    values, fails if below -tol.  No point or sub-cell of another cell can: a sub-cell's
    bound is at least its cell's (A lies nearer its chord, B's tangents at the nearer
    ends lower).  Else the open cells' grid cells whose bounds are not at least -tol,
    NaN too, are halved, all of one width at a time, until a midpoint is below -tol
    (the lowest of its round fails) or every cell is certified (holds).  It is
    undetermined, the lowest cell bound the witness, if a cell to halve is narrower than
    `min_cell` or has no midpoint strictly inside, or if over `max_cells` cells would be open.
    """
    at = np.append(np.arange(0, xs.size - 1, _COARSE), xs.size - 1)
    coarse = sample(xs[at])
    low, bounds = coarse[1].min(), _dc_bounds(coarse[:, :-1], coarse[:, 1:])
    cells = ~(bounds > low + 2.0 * tol) if low < -tol else ~(bounds >= -tol)
    if not cells.any():
        return OrderVerdict("holds")
    js = np.flatnonzero(np.repeat(cells, _COARSE)[: xs.size - 1])  # the open cells' grid cells, by left end
    ks = js[js % _COARSE > 0]  # the grid points inside the open cells
    inner = sample(xs[ks])
    f = np.full(xs.size, np.inf)
    f[at], f[ks] = coarse[1], inner[1]
    k = int(np.argmin(f))
    if f[k] < -tol:
        return OrderVerdict("fails", CriterionViolation(float(xs[k]), float(f[k])))
    pts = np.empty((4, xs.size))  # the grid's samples where the open cells need them
    pts[:, at], pts[:, ks] = coarse, inner
    lo, hi = pts[:, js], pts[:, js + 1]
    while pts[1, k] >= -tol:
        bounds = _dc_bounds(lo, hi)
        keep = ~(bounds >= -tol)
        if not keep.any():
            return OrderVerdict("holds")
        lo, hi, bounds = lo[:, keep], hi[:, keep], bounds[keep]
        mids = (lo[0] + hi[0]) / 2.0
        stuck = np.any((mids <= lo[0]) | (mids >= hi[0]))
        if hi[0, 0] - lo[0, 0] < min_cell or 2 * mids.size > max_cells or stuck:
            j = int(np.argmin(bounds))
            return OrderVerdict("undetermined", CriterionViolation(float(lo[0, j]), float(bounds[j])))
        pts = sample(mids)
        lo, hi = np.concatenate((lo, pts), axis=1), np.concatenate((pts, hi), axis=1)
        k = int(np.argmin(pts[1]))
    return OrderVerdict("fails", CriterionViolation(float(pts[0, k]), float(pts[1, k])))


def _confirmed(verdict, f):
    """A `_dc_search` verdict on the rows `_net_rows` left, a failing sample x re-valued as
    f([x]), the order's own function on all of the pair's rows: below -1e-9 it fails with
    that value, else, NaN too, it is the uncertified cell [x, x]."""
    if not verdict.fails:
        return verdict
    x = verdict.witness.parameter
    at = float(f(np.array([x]))[0])
    if at < -VERDICT_TOL:
        return OrderVerdict("fails", CriterionViolation(x, at))
    return OrderVerdict("undetermined", verdict.witness)


def is_more_capable(p_channel, q_channel):
    """Decide whether the first binary-input channel is more capable than the second.

    f = I_P - I_Q, concave minus concave in the input bias, is sampled at
    k/1000, k = 0..1000, on the columns of `_net_rows`, and decided by
    `_dc_search`; a failing sample of netted columns is `_confirmed` by
    `_mc_samples` of the two channels' rows (of un-netted ones it is that
    value already).  Cells narrower than 1e-12 are not halved: I carries an
    absolute roundoff near 1e-16, above the tangent gap of such a cell (its
    width squared times the curvature).  When both channels are `_symmetric`,
    f(x) = f(1 - x), and only k <= 500 is sampled, so every witness lies in
    [0, 1/2].
    """
    p_ch, q_ch = as_channel(p_channel), as_channel(q_channel)
    xs = _MC_HALF if _symmetric(p_ch) and _symmetric(q_ch) else _MC_GRID
    rows = _net_rows(p_ch.rows, q_ch.rows)
    verdict = _dc_search(functools.partial(_mc_samples, rows), xs, _MIN_CELL, _MC_CELLS)
    if rows[0] is p_ch.rows:  # nothing netted: a failing sample is f of the channels' own rows already
        return verdict
    return _confirmed(verdict, lambda xs: _mc_samples((p_ch.rows, q_ch.rows), xs)[1])


# ----------------------------------------------------------------------
# Degradability (exact, via guessing probabilities)
# ----------------------------------------------------------------------


def _guessing_peak(p_ch, q_ch):
    """The prior x at which G_Q - G_P peaks over [0, 1], the peak, and its largest |value| at 0 and 1.

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
    return float(xs[k]), float(gap[k]), float(np.abs(gap[:2]).max())


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
        if not np.isfinite(lo):  # breakpoints a subnormal step apart overflow interp's slope
            i = int(np.searchsorted(g, s0[z], side="right"))  # g[i - 1] <= s0[z] < g[i]
            lo = a[i - 1] + (s0[z] - g[i - 1]) / (g[i] - g[i - 1]) * (a[i] - a[i - 1])
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
    is at most VERDICT_TOL / 2 plus the channels' largest row-sum difference.
    With the full 1e-9, BSC(alpha / 2 - 1e-9) targets, whose gap is 1e-9 - 3e-17,
    would hold although no stochastic map within 1e-9 reaches them.  With
    `witness=False` that is all that runs, and the verdict carries no witness.
    With `witness=True` a failing verdict carries the prior at which the second
    channel guesses best relative to the first, and a holding verdict carries
    the degrading map `_degrading_map` builds from the two channels' posteriors,
    validated by re-composition to 1e-8 per entry (NumericalInstabilityError beyond).
    """
    p_ch = as_channel(p_channel)
    q_ch = as_channel(q_channel)
    x, gap, slack = _guessing_peak(p_ch, q_ch)
    if gap > VERDICT_TOL / 2.0 + slack:
        return OrderVerdict("fails", InfeasibilityCertificate(x, gap) if witness else None)
    if not witness:
        return OrderVerdict("holds")
    dmap = DegradingMap(_degrading_map(p_ch, q_ch))
    drift = float(np.abs(p_ch.rows @ dmap.entries - q_ch.rows).max())
    if drift > 1e-8:
        raise NumericalInstabilityError(f"witness re-composition drifts by {drift:g}")
    return OrderVerdict("holds", dmap)
