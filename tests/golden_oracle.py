"""Replaced decision procedures, kept as test oracles.

The more-capable and less-noisy decisions once scanned a 999-point grid and
refined dips and sign changes by golden-section search; the coefficient
optimizers once refined a 1001-point scan the same way.  The exact and
certified procedures replaced them, and these copies check that they
agree wherever the old grids already decided.  The less-noisy decision
then probed every sign interval between the real roots `np.roots` finds of
the criterion polynomial; `is_less_noisy` below keeps that path.
"""

import numpy as np

from bisochan import orders
from bisochan.channels import as_channel, canonicalize_biso
from bisochan.coefficients import mutual_information_grid
from bisochan.orders import VERDICT_TOL, CriterionViolation, OrderVerdict, mutual_information_difference

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
