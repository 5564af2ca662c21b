"""Exact less-noisy and degradability referees, in rational arithmetic (standard library only).

Each double is an exact rational, so whether the criterion of two BISO
channels, given by their pairs, stays at or above -VERDICT_TOL on (0, 1) is
the sign on (0, 1] of one polynomial with rational coefficients,
P(x) = (criterion + VERDICT_TOL) prod_j (a_j + c_j x), x = 4q(1 - q): the
polynomial `golden_oracle.criterion_polynomial` forms in floats.  The
product is positive on (0, 1], so the first channel is less noisy than the
second iff P >= 0 there.  The roots in (0, 1) of P's square-free part are
isolated by bisection with Sturm counts, and P's sign is read between them:
next to 0 and to 1 from the lowest nonzero coefficient of P(x) and of
P(1 - t), between two roots at the end of an isolating interval.

With a band, `is_less_noisy` decides the relaxed relation that a holding
verdict of `orders.is_less_noisy` states near q = 0,
criterion >= -VERDICT_TOL - band / (q (1 - q)): the sign of
x P + 4 band prod_j (a_j + c_j x).

Degradability of binary-input channels is Blackwell's test for dichotomies:
`is_degraded` compares the guessing probabilities G_Q and G_P exactly at
the finitely many priors where their difference may peak.
"""

import math
from fractions import Fraction

from bisochan.orders import VERDICT_TOL

TOL = Fraction(VERDICT_TOL)


def _factors(w_pairs, v_pairs):
    """(k, a, c) of each pair with p != p_-, in Fractions: the pair adds k / (a + c x) to the
    criterion, k = +-4 (p - p_-)^2 / s (+ for the first channel), a = 4 p p_- / s^2 and
    c = ((p - p_-) / s)^2, s = p + p_-."""
    out = []
    for sign, pairs in ((4, w_pairs), (-4, v_pairs)):
        for p, pm in pairs:
            p, pm = Fraction(float(p)), Fraction(float(pm))
            if p != pm:
                s, d = p + pm, p - pm
                out.append((sign * d * d / s, 4 * p * pm / (s * s), d * d / (s * s)))
    return out


def criterion(w_pairs, v_pairs, q):
    """The less-noisy criterion of two BISO channels at the double q, exactly: each pair adds
    +-4 d^2 s / (4 p p_- + d^2 x), d = p - p_-, s = p + p_-, x = 4q(1 - q)."""
    q = Fraction(float(q))
    x = 4 * q * (1 - q)
    total = Fraction(0)
    for sign, pairs in ((4, w_pairs), (-4, v_pairs)):
        for p, pm in pairs:
            p, pm = Fraction(float(p)), Fraction(float(pm))
            d2 = (p - pm) ** 2
            if d2:
                total += sign * d2 * (p + pm) / (4 * p * pm + d2 * x)
    return total


def criterion_polynomial(w_pairs, v_pairs, band=0):
    """Coefficients, lowest degree first, of P, or with a band of x P + 4 band prod(a_j + c_j x).

    prod(a_j + c_j x) and sum_i k_i prod_(j != i)(a_j + c_j x) are built one
    factor at a time, and P is VERDICT_TOL times the first plus the second.
    """
    prod, acc = [Fraction(1)], [Fraction(0)]
    for k, a, c in _factors(w_pairs, v_pairs):
        acc = _add(_mul(acc, [a, c]), [k * t for t in prod])
        prod = _mul(prod, [a, c])
    poly = _add([TOL * t for t in prod], acc)
    if band:
        poly = _add([Fraction(0)] + poly, [4 * Fraction(band) * t for t in prod])
    return _trim(poly)


def is_less_noisy(w_pairs, v_pairs, band=0):
    """Whether the channel of `w_pairs` is less noisy than that of `v_pairs`, exactly: whether
    criterion >= -VERDICT_TOL - band / (q (1 - q)) on (0, 1).  P is scaled to integer
    coefficients, and every polynomial below it is known up to a positive factor."""
    poly = criterion_polynomial(w_pairs, v_pairs, band)
    scale = math.lcm(*(t.denominator for t in poly))
    poly = [t.numerator * (scale // t.denominator) for t in poly]
    if not any(poly):
        return True
    free = _pdivmod(poly, _gcd(poly, _derivative(poly)))[0]
    for root in ([0, 1], [-1, 1]):  # x and x - 1
        if _sign_at(free, Fraction(-root[0])) == 0:
            free = _pdivmod(free, root)[0]
    ends = _isolating_ends(_sturm(_primitive(free))) if len(free) > 1 else []
    signs = [_first_sign(poly), _first_sign(_at_one_minus(poly))] + [_sign_at(poly, b) for b in ends[:-1]]
    return min(signs) >= 0


def guessing_gap(p_rows, q_rows, x):
    """G_Q(x) - G_P(x) at the prior x of input 0, exactly, with G(x) = sum_y max(x r0_y, (1 - x) r1_y)
    over a channel's columns (r0, r1).  Rows are 2 x n doubles or Fractions, x a double or a Fraction.
    Degradation never raises G, so a gap above 0 refutes it."""
    x = Fraction(x)
    return _guessing(_columns(q_rows), x) - _guessing(_columns(p_rows), x)


def guessing_peak(p_rows, q_rows):
    """The maximum of G_Q - G_P over [0, 1], exactly.  G_P is linear between its kinks
    r1 / (r0 + r1) and G_Q is convex, so the difference peaks at one of those kinks, at 0 or at 1."""
    p, q = _columns(p_rows), _columns(q_rows)
    xs = [Fraction(0), Fraction(1)] + [r1 / (r0 + r1) for r0, r1 in p if r0 + r1]
    return max(_guessing(q, x) - _guessing(p, x) for x in xs)


def is_degraded(p_rows, q_rows, tol):
    """Whether the channel of `q_rows` is a degraded version of that of `p_rows` within `tol`,
    exactly: whether `guessing_peak` is at most tol (Blackwell's theorem for dichotomies)."""
    return guessing_peak(p_rows, q_rows) <= Fraction(tol)


def _columns(rows):
    return [(Fraction(r0), Fraction(r1)) for r0, r1 in zip(*rows)]


def _guessing(columns, x):
    return sum(max(x * r0, (1 - x) * r1) for r0, r1 in columns)


def _isolating_ends(chain):
    """Right ends b, ascending, of intervals (a, b] in (0, 1), each holding one root of the
    first polynomial of the Sturm chain, square-free and nonzero at 0 and 1.  An interval
    from 0 is split at its right end / 2^64, since subnormal entries put roots near 0; any
    other at its midpoint, or, where that is a root, a third of the way instead."""
    ends, stack = [], [(Fraction(0), Fraction(1))]
    while stack:
        lo, hi = stack.pop()
        count = _variations(chain, lo) - _variations(chain, hi)
        if count == 1:
            ends.append(hi)
        elif count > 1:
            mid = hi / 2**64 if lo == 0 else (lo + hi) / 2
            while _sign_at(chain[0], mid) == 0:
                mid = (lo + 2 * mid) / 3
            stack += [(mid, hi), (lo, mid)]
    return ends


def _sturm(p):
    """p, p' and the negated remainders, each divided by its content: a Sturm chain up to
    positive factors."""
    chain = [p, _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not any(r):
            break
        chain.append(_primitive([-t for t in r]))
    return chain


def _variations(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sign_at(p, x):
    """The sign of p at the rational x = n / m, m > 0: that of sum_i p_i n^i m^(deg - i)."""
    n, m = x.numerator, x.denominator
    value, power = p[-1], 1
    for t in reversed(p[:-1]):
        power *= m
        value = value * n + t * power
    return (value > 0) - (value < 0)


def _at_one_minus(p):
    """Coefficients of p(1 - t) in t: the first nonzero one has p's sign just below x = 1."""
    out = [0]
    for t in reversed(p):
        out = _add(_mul(out, [1, -1]), [t])
    return out


def _first_sign(p):
    """The sign of the lowest nonzero coefficient: p's sign just above 0."""
    t = next((t for t in p if t), 0)
    return (t > 0) - (t < 0)


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _mul(p, q):
    out = [0 * p[0]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _derivative(p):
    return [i * p[i] for i in range(1, len(p))] or [0]


def _primitive(p):
    """p divided by the gcd of its integer coefficients, a positive content."""
    content = math.gcd(*p)
    return [t // content for t in p] if content > 1 else p


def _pdivmod(a, b):
    """Integer q and r with c a = q b + r for some c > 0 and deg r < deg b: each step scales
    by |lead(b)|, which keeps every sign."""
    a, lead, sign = list(a), abs(b[-1]), 1 if b[-1] > 0 else -1
    quot = [0] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        shift, top = len(a) - len(b), a[-1] * sign
        quot = [lead * t for t in quot]
        quot[shift] += top
        a = [lead * t for t in a]
        for i, t in enumerate(b):
            a[i + shift] -= top * t
        a = _trim(a[:-1]) or [0]
    return _primitive(quot), _primitive(a)


def _gcd(p, q):
    """A greatest common divisor of integer polynomials p and q, up to a constant factor."""
    while any(q):
        p, q = q, _pdivmod(p, q)[1]
    return p
