"""Dense phase-1 simplex for linear feasibility problems.

Solves: does there exist x with A_eq x = b_eq and bounds lo <= x <= hi?
Bland's anti-cycling rule guarantees termination; problems here are small
(tens of variables), so dense tableaus are fine.
"""

from dataclasses import dataclass

import numpy as np

from bisochan.errors import DimensionMismatchError, NumericalInstabilityError

_PIVOT_TOL = 1e-12
FEASIBILITY_TOL = 1e-9
RESIDUAL_TOL = 1e-8


@dataclass
class FeasibilityResult:
    """Outcome of a phase-1 solve.

    `x` solves the system when feasible.  When infeasible, `certificate`
    holds Farkas multipliers y for the equality rows: for problems without
    finite upper bounds, y @ A_eq <= 0 componentwise (up to roundoff) while
    y @ b_eq equals the positive phase-1 optimum; with finite upper bounds
    the multipliers are the restriction of the extended-system certificate.
    """

    feasible: bool
    x: np.ndarray | None
    residual: float
    certificate: np.ndarray | None


def _phase1(A, b):
    """Run phase-1 on A x = b, x >= 0 (b >= 0 assumed). Returns (opt, x, y)."""
    m, n = A.shape
    # tableau: [A | I | b]; objective row holds reduced costs for min sum(artificials)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    max_iter = 200 * (m + n + 10)
    for _ in range(max_iter):
        # Bland: entering variable is the lowest index with a negative reduced cost
        negative = np.nonzero(T[m, :n + m] < -_PIVOT_TOL)[0]
        if negative.size == 0:
            break
        enter = int(negative[0])
        # ratio test, ties broken by the lowest basis index (Bland)
        col = T[:m, enter]
        admissible = col > _PIVOT_TOL
        if not admissible.any():
            # unbounded descent cannot happen in phase 1
            raise NumericalInstabilityError("phase-1 ratio test failed")
        ratios = np.where(admissible, T[:m, -1] / np.where(admissible, col, 1.0), np.inf)
        best = ratios.min()
        tied = np.nonzero(ratios <= best + 1e-15)[0]
        leave = int(tied[np.argmin(basis[tied])])
        T[leave] /= T[leave, enter]
        scale = T[:, enter].copy()
        scale[leave] = 0.0
        T -= np.outer(scale, T[leave])
        basis[leave] = enter
    else:
        raise NumericalInstabilityError("phase-1 iteration limit exceeded")

    opt = -T[m, -1]
    x = np.zeros(n)
    original = basis < n
    x[basis[original]] = T[:m, -1][original]
    # multipliers: reduced cost of artificial j is 1 - y_j
    y = 1.0 - T[m, n:n + m]
    return opt, x, y


def _standard_form(A_eq, b_eq, bounds):
    """Shift lower bounds to 0 and add slack rows for finite upper bounds."""
    A = np.array(A_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatchError("A_eq and b_eq dimensions are inconsistent")
    m, n = A.shape
    if bounds is None:
        bounds = [(0.0, None)] * n
    if len(bounds) != n:
        raise DimensionMismatchError("one bound pair per variable is required")
    lows = np.array([lo if lo is not None else 0.0 for lo, _ in bounds])
    b = b - A @ lows
    extra = [(j, hi - lows[j]) for j, (_, hi) in enumerate(bounds) if hi is not None]
    k = len(extra)
    A_full = np.zeros((m + k, n + k))
    A_full[:m, :n] = A
    b_full = np.concatenate([b, np.zeros(k)])
    for r, (j, cap) in enumerate(extra):
        A_full[m + r, j] = 1.0
        A_full[m + r, n + r] = 1.0
        b_full[m + r] = cap
    return A_full, b_full, lows, n, m


def _solve_once(A, b, scale):
    A = A.copy()
    b = b.copy()
    if scale:
        norms = np.maximum(np.abs(A).max(axis=1), np.abs(b))
        norms[norms == 0.0] = 1.0
        A /= norms[:, None]
        b /= norms
    else:
        norms = np.ones_like(b)
    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] *= -1.0
    opt, x, y = _phase1(A, b)
    y = np.where(flip, -y, y) / norms
    return opt, x, y


def lp_feasibility(A_eq, b_eq, bounds=None, tol=FEASIBILITY_TOL):
    """Decide feasibility of A_eq x = b_eq subject to per-variable bounds.

    Parameters
    ----------
    A_eq, b_eq : array-like
        Equality system.
    bounds : list of (lo, hi) or None
        Per-variable bounds; None entries mean 0 <= x (hi None = unbounded).
    tol : float
        The system counts as feasible when the phase-1 optimum is <= tol.

    Returns
    -------
    FeasibilityResult
        Feasible solutions satisfy the equalities within 1e-8; otherwise the
        solve is retried on row-scaled data and NumericalInstabilityError is
        raised if the residual persists.
    """
    A_full, b_full, lows, n, m = _standard_form(A_eq, b_eq, bounds)
    A_orig = np.asarray(A_eq, dtype=float)
    b_orig = np.asarray(b_eq, dtype=float)

    for attempt, scale in enumerate((False, True)):
        opt, x, y = _solve_once(A_full, b_full, scale)
        if opt <= tol:
            solution = x[:n] + lows
            residual = float(np.abs(A_orig @ solution - b_orig).max()) if m else 0.0
            if residual <= RESIDUAL_TOL:
                return FeasibilityResult(True, solution, residual, None)
            if attempt == 1:
                raise NumericalInstabilityError(
                    f"feasible basis violates equalities by {residual:g}"
                )
        else:
            # certificate over the original equality rows only
            return FeasibilityResult(False, None, float(opt), y[:m])
    raise NumericalInstabilityError("unreachable")
