"""Replaced decision procedures, kept as test oracles.

The more-capable and less-noisy decisions once scanned a 999-point grid and
refined dips and sign changes by golden-section search; the coefficient
optimizers once refined a 1001-point scan the same way.  The exact and
certified procedures replaced them, and these copies check that they
agree wherever the old grids already decided.  The less-noisy decision
then probed every sign interval between the real roots `np.roots` finds of
the criterion polynomial; `is_less_noisy` below keeps that path.  The
decisions that followed sampled before they certified: less-noisy ran its
half grid ahead of the Bernstein certificate at every degree, the DC branch
and bound bounded the cells of its full grid from the first round, and the
mutual-information kernel took every log2 under a mask; the `grid_first`,
`full_grid` and `masked` copies below keep them.  The less-noisy kernels
summed each side's rows in a Python loop at every grid size; the `row_loop`
copy keeps that.  The less-noisy branch and bound once ran on the criterion
itself, whose pole at q = 0 took a closed-form bound of its first cell;
`grid_first_is_less_noisy` keeps that search, with `first_cell`.  A net noiseless
mass K < 0 once valued the criterion one q = 1e-3 2^-j at a time until it
fell below -1e-9; `point_loop_toward_zero` keeps that.  The package no longer exports the mutual-information
difference or the more-capable bisection for the reverse coefficient gamma,
since nothing in it calls them; the tests take both from here.
"""

import functools
import math

import numpy as np

from bisochan import orders
from bisochan.channels import as_channel, canonicalize_biso, make_bsc
from bisochan.coefficients import _h2_grid, h2, mutual_information_grid
from bisochan.errors import ParameterOutOfRangeError
from bisochan.orders import VERDICT_TOL, CriterionViolation, OrderVerdict
from bisochan.search import bisect_threshold

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_REFINE_XTOL = 1e-8


def golden_section_max(f, lo, hi, xtol=1e-10):
    """Golden-section search for the maximum of a unimodal function on [lo, hi].

    Returns (argmax, max).  The best point ever evaluated is returned, so the
    result never undershoots the best bracket sample.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def golden_section_min(f, lo, hi, xtol=1e-10):
    """Golden-section search for the minimum; returns (argmin, min)."""
    x, v = golden_section_max(lambda t: -f(t), lo, hi, xtol)
    return x, -v


def refined_minimum(xs, vals, f):
    """Grid minimum plus golden-section refinement around dips and sign changes.

    When the grid already certifies a violation the grid argmin is returned
    as-is; refinement only hunts for shallow dips the grid might straddle.
    """
    k = int(np.argmin(vals))
    best_x, best_v = float(xs[k]), float(vals[k])
    if best_v < -VERDICT_TOL:
        return best_x, best_v
    suspicious = set()
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    suspicious.update(flips.tolist())
    suspicious.update((flips + 1).tolist())
    neg = np.nonzero(vals < 0.0)[0]
    for i in neg:
        left = vals[i - 1] if i > 0 else np.inf
        right = vals[i + 1] if i + 1 < len(vals) else np.inf
        if vals[i] <= left and vals[i] <= right:
            suspicious.add(int(i))
    if vals[0] < 0.0:
        suspicious.add(0)
    if vals[-1] < 0.0:
        suspicious.add(len(vals) - 1)
    lo_floor, hi_ceil = 1e-9, 1.0 - 1e-9
    for i in sorted(suspicious):
        a = xs[i - 1] if i > 0 else lo_floor
        b = xs[i + 1] if i + 1 < len(xs) else hi_ceil
        gx, gv = golden_section_min(f, a, b, _REFINE_XTOL)
        if gv < best_v:
            best_x, best_v = float(gx), float(gv)
    return best_x, best_v


def verdict_from_minimum(best_x, best_v, f):
    if best_v < -VERDICT_TOL:
        check = f(best_x)
        if check < -VERDICT_TOL:
            return OrderVerdict("fails", CriterionViolation(best_x, float(check)))
        return OrderVerdict("undetermined", CriterionViolation(best_x, float(check)))
    return OrderVerdict("holds")


def mutual_information_difference(p_channel, q_channel, x):
    """I(X:Y_P) - I(X:Y_Q) at input bias x in [0, 1] (both channels see the same law)."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ParameterOutOfRangeError(f"input probability must lie in [0, 1], got {x!r}")
    return float(mutual_information_grid(p_channel, [x])[0] - mutual_information_grid(q_channel, [x])[0])


def verify_reverse_gamma(biso):
    """Bisection for 1 - h2(p) at the smallest p with the channel more capable than BSC(p)."""
    flat = canonicalize_biso(biso).to_channel()
    return 1.0 - h2(bisect_threshold(lambda p: orders.is_more_capable(flat, make_bsc(p)).holds, 0.0, 0.5, 2e-7))


def is_more_capable(p_channel, q_channel, grid_size=999):
    """The replaced more-capable decision: the mutual-information difference
    on the interior grid k / (grid_size + 1), with refinement around dips.

    Returns (whether the grid itself shows a violation, the verdict).
    """
    p_ch = as_channel(p_channel)
    q_ch = as_channel(q_channel)
    xs = np.arange(1, grid_size + 1) / (grid_size + 1.0)
    vals = mutual_information_grid(p_ch, xs) - mutual_information_grid(q_ch, xs)

    def f(x):
        return mutual_information_difference(p_ch, q_ch, x)

    best_x, best_v = refined_minimum(xs, vals, f)
    return bool(vals.min() < -VERDICT_TOL), verdict_from_minimum(best_x, best_v, f)


def criterion_polynomial(w_pairs, v_pairs):
    """Coefficients, highest first, of (criterion + VERDICT_TOL) prod(a + cx) in x = 4q(1 - q).

    A pair with s = p + p_- contributes 4k / (a + cx), k = (p - p_-)^2 / s,
    c = (p - p_-)^2 / s^2, a = 1 - c = 4 p p_- / s^2; p = p_- contributes
    nothing.  prod(a + cx) > 0 on (0, 1], so the product, a polynomial of
    degree <= l_W + l_V, has the sign of the criterion + VERDICT_TOL there.
    """
    pairs = np.concatenate((w_pairs, v_pairs))
    moving = pairs[:, 0] != pairs[:, 1]
    p, pm = pairs[moving].T
    s = p + pm
    k = np.repeat([4.0, -4.0], (len(w_pairs), len(v_pairs)))[moving] * (p - pm) ** 2 / s
    # prod_j (c_j x + a_j) and sum_i k_i prod_{j != i} (c_j x + a_j), one factor at a time,
    # in Python floats: each coefficient is the two-term sum np.convolve forms, bit for bit
    prod, acc = [1.0], [0.0]
    for ki, ci, ai in zip(k.tolist(), (((p - pm) / s) ** 2).tolist(), (4.0 * p * pm / s**2).tolist()):
        acc = [x * ci + y * ai + ki * z for x, y, z in zip(acc + [0.0], [0.0] + acc, [0.0] + prod)]
        prod = [x * ci + y * ai for x, y in zip(prod + [0.0], [0.0] + prod)]
    return VERDICT_TOL * np.array(prod) + np.array(acc)


def sign_probes(poly):
    """q-points in (0, 1/2] meeting every sign interval of the criterion + VERDICT_TOL:
    each (near-)real root in (0, 1) of the polynomial and the midpoint of
    each interval between them.
    """
    roots = np.roots(poly)
    real = roots.real[(np.abs(roots.imag) <= 1e-7) & (roots.real > 0.0) & (roots.real < 1.0)]
    edges = np.concatenate(([0.0], np.sort(real), [1.0]))
    xs = np.concatenate((real, (edges[:-1] + edges[1:]) / 2.0))
    qs = xs / (2.0 * (1.0 + np.sqrt(1.0 - xs)))  # the root of 4q(1 - q) = x in (0, 1/2]
    return qs[qs > 0.0]


def is_less_noisy(w, v):
    """The replaced less-noisy decision: the default q-grid up to 1/2, then
    the root probes of the polynomial of every pair, shared pairs included.
    It raises numpy.linalg.LinAlgError where the companion matrix overflows."""
    w, v = canonicalize_biso(w), canonicalize_biso(v)
    rows = orders._flat_rows(w, v)
    qs = orders._HALF_GRID
    vals = orders._criterion(rows, qs)
    if vals.min() >= -VERDICT_TOL:
        qs = sign_probes(criterion_polynomial(w.pairs, v.pairs))
        vals = orders._criterion(rows, qs)
        if vals.min() >= -VERDICT_TOL:
            return OrderVerdict("holds")
    k = int(np.argmin(vals))
    return OrderVerdict("fails", CriterionViolation(float(qs[k]), float(vals[k])))


def masked_mi_and_slope(rows, ps):
    """I and I' of the columns (r0, r1) at each bias, as `_mutual_information_and_slope` took
    them before it had an unmasked path: every log2 under a mask, 0 log 0 = 0."""
    p = np.asarray(ps, dtype=float)[:, None]
    out = p * rows[0] + (1.0 - p) * rows[1]
    log = np.log2(out, out=np.zeros_like(out), where=out > 0.0)
    hy = -(out * log).sum(axis=1)
    h0, h1 = masked_entropy_bits(rows)
    mi = np.maximum(hy - (p[:, 0] * h0 + (1.0 - p[:, 0]) * h1), 0.0)
    d = rows[0] - rows[1]
    grad = h1 - h0 - log @ d - d.sum() / math.log(2.0)
    if not rows.all():
        grad[(p[:, 0] == 0.0) & np.any((rows[1] == 0.0) & (d != 0.0))] = np.inf
        grad[(p[:, 0] == 1.0) & np.any((rows[0] == 0.0) & (d != 0.0))] = -np.inf
    return mi, grad


def masked_entropy_bits(v):
    """`_entropy_bits` as it was: every entry under a mask."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, -v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0)
    return terms.sum(axis=-1)


def masked_mc_samples(rows, xs):
    """`orders._mc_samples` on the masked kernel, in one round."""
    p_rows, q_rows = rows
    iq, sq = masked_mi_and_slope(q_rows, xs)
    return np.array((xs, masked_mi_and_slope(p_rows, xs)[0] - iq, iq, sq))


def full_grid_dc_search(sample, xs, min_cell, max_cells, first=None):
    """`orders._dc_search` as it was: the cells of all of xs from the first round, no coarse pass."""
    pts = sample(xs)
    lo, hi = (pts[:, :-1], pts[:, 1:]) if first is None else (np.insert(pts[:, :-1], 0, 0.0, axis=1), pts)
    k = int(np.argmin(pts[1]))
    while pts[1, k] >= -VERDICT_TOL:
        bounds = orders._dc_bounds(lo, hi)
        if first is not None and lo[0, 0] == 0.0:
            bounds[0] = first(hi[0, 0])
        keep = bounds < -VERDICT_TOL
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


def full_grid_is_more_capable(p_channel, q_channel):
    """`orders.is_more_capable` on the full-grid search and the masked kernel, every failing
    sample confirmed on the channels' rows."""
    p_ch, q_ch = as_channel(p_channel), as_channel(q_channel)
    xs = orders._MC_HALF if orders._symmetric(p_ch) and orders._symmetric(q_ch) else orders._MC_GRID
    rows = orders._net_rows(p_ch.rows, q_ch.rows)
    verdict = full_grid_dc_search(functools.partial(masked_mc_samples, rows), xs, orders._MIN_CELL, orders._MC_CELLS)
    return orders._confirmed(verdict, lambda xs: masked_mc_samples((p_ch.rows, q_ch.rows), xs)[1])


def grid_first_is_less_noisy(w, v):
    """`orders.is_less_noisy` as it was: the half grid at every degree before the certificate,
    built where its last coefficient 1e-9 + sum k clears the margin, then the full-grid search
    of the criterion on (0, 1/2], its first cell bounded by `first_cell` and the other cells by
    today's `orders._dc_bounds`."""
    w_rows, v_rows = (canonicalize_biso(ch).to_channel().rows for ch in (w, v))
    rows = orders._flat_rows(w_rows, v_rows)
    vals = orders._criterion(rows, orders._HALF_GRID)
    if vals.min() < -VERDICT_TOL:
        i = int(np.argmin(vals))
        return OrderVerdict("fails", CriterionViolation(float(orders._HALF_GRID[i]), float(vals[i])))
    net = orders._net_rows(w_rows, v_rows)
    k, a = orders._bernstein_factors(*net)
    if sum(k, VERDICT_TOL) > orders._bernstein_margin(len(k)) and orders._bernstein_positive(
        orders._criterion_bernstein(k, a)
    ):
        return OrderVerdict("holds")
    net_rows = orders._flat_rows(*net)
    cells = orders._TERMS // max(net_rows[0].shape[1], 1)
    sample = functools.partial(row_loop_ln_samples, net_rows)
    verdict = full_grid_dc_search(sample, orders._HALF_GRID, 0.0, cells, first_cell(net_rows))
    return orders._confirmed(verdict, functools.partial(orders._criterion, rows))


def first_cell(rows):
    """A lower bound of the criterion f on (0, b], as a function of b, for netted `_flat_rows`,
    as the search of the criterion took it.

    Only a row with r1 = 0 (one at most, once netted) grows without bound as
    q -> 0: it adds K / q, K the net noiseless mass, read from the row's first
    term d.  The other rows are finite at 0, so `_dc_bounds` bounds their f on
    [0, b], plus K / b if K > 0; if K < 0 the bound is -inf.
    """
    (d, _, r1), n_w = rows
    noiseless = r1[:, 0] == 0.0
    k = float(np.where(np.arange(d.shape[0]) < n_w, d[:, 0], -d[:, 0])[noiseless].sum())
    rest = (rows[0][:, ~noiseless], n_w - int(np.count_nonzero(noiseless[:n_w])))
    at0 = row_loop_ln_samples(rest, np.zeros(1))
    return lambda b: -np.inf if k < 0.0 else orders._dc_bounds(at0, row_loop_ln_samples(rest, np.array([b])))[0] + k / b


def point_loop_toward_zero(rows):
    """`orders._toward_zero` as it was: the criterion of `_flat_rows` at one q = 1e-3 2^-j per
    call, down to 5e-324, failing at the first below -1e-9, else undetermined on (0, 5e-324]."""
    for q in np.ldexp(orders._HALF_GRID[0], -np.arange(1, 1066)).tolist():
        at = float(orders._criterion(rows, np.array([q]))[0])
        if at < -VERDICT_TOL:
            return OrderVerdict("fails", CriterionViolation(q, at))
    return OrderVerdict("undetermined", CriterionViolation(0.0, -np.inf))


def row_loop_ln_samples(rows, qs):
    """Rows q, f = F_W - F_V, -F_W and -F_W' at each q for `_flat_rows`, with F = sum d^2 / (q d + r1)
    convex on (0, 1), each side's terms summed row after row by a Python loop: the samples of the
    search of the criterion, whose row f is `orders._criterion`."""
    (a, b, c), n_w = rows
    den = qs * b + c
    terms = a / den
    fw, fv = (sum(part, np.zeros(len(qs))) for part in (terms[:n_w], terms[n_w:]))
    return np.array((qs, fw - fv, -fw, (terms[:n_w] * b[:n_w] / den[:n_w]).sum(axis=0)))


def eta_objective_grid(rows, qs):
    """The chi-squared ratio q (1 - q) sum_y d^2 / D over qs in (0, 1), as `eta_kl_binary_argmax`
    once read its value, with 0 where D = 0."""
    p0, p1 = rows[0][None, :], rows[1][None, :]
    q = np.asarray(qs, dtype=float)[:, None]
    den = q * p0 + (1.0 - q) * p1
    num = (p0 - p1) ** 2 * q * (1.0 - q)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return terms.sum(axis=1)


def eta_objective(rows, q):
    """`eta_objective_grid` at one q, with the q -> 0, 1 limits taken by continuity."""
    q = float(q)
    if q == 0.0:
        return float(rows[0][rows[1] == 0.0].sum())
    if q == 1.0:
        return float(rows[1][rows[0] == 0.0].sum())
    return float(eta_objective_grid(rows, np.array([q]))[0])


def masked_h2_inv_grid(h):
    """`coefficients._h2_inv_grid` as it was: every entry, 0 and 1 too, halved 60 times
    through the masked `_h2_grid`."""
    h = np.asarray(h, dtype=float)
    lo = np.zeros_like(h)
    hi = np.full_like(h, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _h2_grid(mid) < h
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(h == 0.0, 0.0, np.where(h == 1.0, 0.5, 0.5 * (lo + hi)))
