"""Scalar search utilities: safeguarded Newton and bisection."""

import math

from .errors import DegenerateParameterError


def newton_max(slope):
    """Maximizer on [0, 1] of a concave function, given its derivative.

    `slope(x)` returns (g, g') with g the derivative, decreasing on [0, 1].
    Returns 0 when g(0) <= 0 and 1 when g(1) >= 0.  Otherwise it runs Newton
    steps on g from x = 1/2 inside a sign bracket g(a) > 0 >= g(b); a step
    that would leave the bracket, or a g' that is not negative, bisects it
    instead.  It returns x once |g(x)| <= 1e-14, so that by tangency the
    maximum exceeds the value at x by at most that, or once b - a <= 1e-15,
    or at the step cap of 64 steps: at most 66 calls of `slope` in all.
    """
    if slope(0.0)[0] <= 0.0:
        return 0.0
    if slope(1.0)[0] >= 0.0:
        return 1.0
    a, b, x = 0.0, 1.0, 0.5
    for _ in range(64):
        g, dg = slope(x)
        a, b = (x, b) if g > 0.0 else (a, x)
        if abs(g) <= 1e-14 or b - a <= 1e-15:
            return x
        nxt = x - float(g) / float(dg) if dg < 0.0 else a  # inf / inf is a quiet NaN, which bisects
        x = nxt if a < nxt < b else 0.5 * (a + b)
    return x


def bisect_threshold(pred, lo, hi, xtol, guess=None):
    """Locate the boundary of a monotone predicate on [lo, hi].

    `pred` must be False on [lo, x*) and True on (x*, hi].  Returns x*
    within xtol, or at adjacent floats; lo if pred(lo), hi if not pred(hi).
    A point at or below the largest x seen False is False, and one at or
    above the smallest seen True is True, with no call.  A finite `guess`
    first asks guess -/+ 5*xtol, clamped to [lo, hi]: it changes only which
    calls are made, never the midpoints or the result.
    """
    lo, hi = float(lo), float(hi)
    seen = [-math.inf, math.inf]  # largest x with pred False, smallest with pred True
    def ask(x):
        if seen[0] < x < seen[1]:
            seen[bool(pred(x))] = x
        return x >= seen[1]
    if guess is not None:
        if not math.isfinite(guess):
            raise DegenerateParameterError(f"bisection guess must be finite, got {guess!r}")
        for x in (guess - 5.0 * xtol, guess + 5.0 * xtol):
            ask(min(max(float(x), lo), hi))
    if ask(lo):
        return lo
    if not ask(hi):
        return hi
    while hi - lo > xtol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if ask(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
