"""Reference-result regression suite.

Every numerical claim this library was built to reproduce is encoded here as
a check with an id, an expected value, and a tolerance.  The CLI paper-check
command and the acceptance tests both drive this registry, with fixed seeds
so results are identical across runs.

Two reference values are known to be irreproducible as stated and their
checks fail by design; see the README section on known discrepancies.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .applications import (
    f_divergence_output_bounds,
    fi_curve_bounds,
    secrecy_capacity_vs_bec,
    secrecy_capacity_vs_bsc,
)
from .channels import BisoChannel, Channel, canonicalize_biso, compose, make_bec, make_bsc, make_z
from .coefficients import (
    alpha_max,
    capacity_binary,
    chi2_generator,
    doeblin_alpha,
    eta_kl_binary,
    eta_kl_binary_argmax,
    eta_kl_biso,
    eta_tv,
    f_divergence,
    h2,
    h2_inv,
    kl_generator,
    maximal_leakage,
    mutual_information_grid,
    tv_generator,
)
from .extremal import bsc_degrading_map, dim3_degrading_map, dim3_less_noisy_compare
from .extremal import reverse_coefficients, verify_reverse_alpha, verify_reverse_beta
from .orders import (
    guessing_probability,
    is_degraded,
    is_less_noisy,
    is_more_capable,
    less_noisy_criterion,
)

# The four counterexample channels, exactly as constructed (17/997 stays a
# division, never a decimal literal).
ETA_PAIR_A = BisoChannel([(0.32, 0.48), (0.19, 0.01)])
ETA_PAIR_B = BisoChannel([(0.0, 17 / 997), (0.7, 0.3 - 17 / 997)])
ALPHA_PAIR_F = BisoChannel([(0.05, 0.345), (0.19, 0.415)])
ALPHA_PAIR_G = BisoChannel([(0.221, 0.515), (0.019, 0.245)])


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: id, expected vs computed, tolerance, outcome."""

    check_id: str
    description: str
    expected: float
    computed: float
    tolerance: float
    passed: bool


def _row(description, expected, computed, tolerance):
    """A check's row, without its id: `run_checks` stamps it."""
    return description, float(expected), float(computed), tolerance


CHECKS = []  # (id, title, zero-argument function returning `_row`s), in id order


def _check(cid, title):
    """Register the decorated check function under its id and title."""
    return lambda fn: CHECKS.append((cid, title, fn)) or fn


def random_biso(rng, max_pairs=6):
    """Random BISO channel with pair entries drawn from [0.02, 1), normalized."""
    l = int(rng.integers(1, max_pairs + 1))
    raw = rng.uniform(0.02, 1.0, size=(l, 2))
    return BisoChannel(raw / raw.sum())


def random_binary_channel(rng, max_outputs=8):
    n = int(rng.integers(2, max_outputs + 1))
    raw = rng.uniform(0.01, 1.0, size=(2, n))
    return Channel(raw / raw.sum(axis=1, keepdims=True))


def _random_dim3(rng, low, gap):
    """Random 3-output BISO channel of informative mass s ~ U[low, 1) and |p_1 - p_-1| = gap(s)."""
    s = float(rng.uniform(low, 1.0))
    d = gap(s)
    p1, pm1 = (s + d) / 2.0, (s - d) / 2.0
    if rng.random() < 0.5:
        p1, pm1 = pm1, p1
    p0 = 1.0 - s
    if p0 <= 0.0:
        return BisoChannel([(p1, pm1)])
    return BisoChannel([(p0 / 2.0, p0 / 2.0), (p1, pm1)])


def random_dim3_equal_eta(rng, eta):
    """Random 3-output BISO channel with the given contraction coefficient."""
    return _random_dim3(rng, eta, lambda s: math.sqrt(eta * s))


def random_dim3_equal_alpha(rng, alpha):
    """Random 3-output BISO channel with the given Doeblin coefficient."""
    return _random_dim3(rng, 1.0 - alpha, lambda s: 1.0 - alpha)


def random_degraded_biso(rng, biso, max_pairs=4):
    """A BISO channel obtained from `biso` through a symmetric stochastic map."""
    l = biso.num_pairs
    lp = int(rng.integers(1, max_pairs + 1))
    to_pos = rng.uniform(0.05, 1.0, size=(l, lp))
    to_neg = rng.uniform(0.05, 1.0, size=(l, lp))
    norm = (to_pos + to_neg).sum(axis=1, keepdims=True)
    to_pos /= norm
    to_neg /= norm
    p = biso.pairs[:, 0]
    pm = biso.pairs[:, 1]
    q_pos = p @ to_pos + pm @ to_neg
    q_neg = p @ to_neg + pm @ to_pos
    return BisoChannel(np.stack([q_pos, q_neg], axis=1))


# ----------------------------------------------------------------------
# Check functions
# ----------------------------------------------------------------------


@_check("01-closed-form-counterexample", "closed-form contraction of the equal-eta pair")
def check_closed_form_counterexample():
    return [
        _row("eta of pairs {(0.32,0.48),(0.19,0.01)}", 0.194, eta_kl_biso(ETA_PAIR_A), 1e-12),
        _row("eta of pairs {(0,17/997),(0.7,0.3-17/997)}", 0.194, eta_kl_biso(ETA_PAIR_B), 1e-12),
    ]


@_check("02-optimizer-vs-closed-form", "optimizer agrees with the closed form on random channels")
def check_optimizer_vs_closed_form():
    rng = np.random.default_rng(20240201)
    max_dev = 0.0
    max_off = 0.0
    for _ in range(200):
        b = random_biso(rng)
        eta_opt, qstar = eta_kl_binary_argmax(b.to_channel())
        max_dev = max(max_dev, abs(eta_opt - eta_kl_biso(b)))
        max_off = max(max_off, abs(qstar - 0.5))
    return [
        _row("max |optimizer - closed form| over 200 channels", 0.0, max_dev, 1e-8),
        _row("max |maximizer - 1/2| over 200 channels", 0.0, max_off, 1e-4),
    ]


@_check("03-bsc-bec-identities", "BSC/BEC coefficient identities")
def check_bsc_bec_identities():
    ps = np.linspace(0.0, 0.5, 101)
    dev_eta_bsc = max(abs(eta_kl_biso(canonicalize_biso(make_bsc(p))) - (1 - 2 * p) ** 2) for p in ps)
    dev_alpha_bsc = max(abs(doeblin_alpha(make_bsc(p)) - 2 * p) for p in ps)
    es = np.linspace(0.0, 1.0, 101)
    dev_alpha_bec = max(abs(doeblin_alpha(make_bec(e)) - e) for e in es)
    dev_eta_bec = max(abs(eta_kl_biso(canonicalize_biso(make_bec(e))) - (1 - e)) for e in es)
    return [
        _row("max |eta(BSC(p)) - (1-2p)^2| on 101-point grid", 0.0, dev_eta_bsc, 1e-12),
        _row("max |alpha(BSC(p)) - 2p| on 101-point grid", 0.0, dev_alpha_bsc, 1e-12),
        _row("max |alpha(BEC(e)) - e| on 101-point grid", 0.0, dev_alpha_bec, 1e-12),
        _row("max |eta(BEC(e)) - (1-e)| on 101-point grid", 0.0, dev_eta_bec, 1e-12),
    ]


@_check("04-binary-coefficient-chain", "total-variation coefficient chain for binary channels")
def check_binary_coefficient_chain():
    rng = np.random.default_rng(20240204)
    worst = 0.0
    for _ in range(1000):
        ch = random_binary_channel(rng)
        tv = eta_tv(ch)
        chain = (1.0 - doeblin_alpha(ch), alpha_max(ch) - 1.0, math.expm1(maximal_leakage(ch)))
        worst = max(worst, max(abs(tv - v) for v in chain))
    return [_row("max chain deviation over 1000 channels", 0.0, worst, 1e-12)]


@_check("05-less-noisy-sandwich", "BEC/BSC less-noisy extremality")
def check_less_noisy_sandwich():
    rng = np.random.default_rng(20240205)
    bec_holds = bsc_holds = 0
    n = 100
    for _ in range(n):
        f = random_biso(rng)
        eta = eta_kl_biso(f)
        bec = canonicalize_biso(make_bec(1.0 - eta))
        bsc = canonicalize_biso(make_bsc((1.0 - math.sqrt(eta)) / 2.0))
        if is_less_noisy(bec, f).holds:
            bec_holds += 1
        if is_less_noisy(f, bsc).holds:
            bsc_holds += 1
    return [
        _row("BEC(1-eta) less noisy than channel (count of 100)", n, bec_holds, 0.0),
        _row("channel less noisy than BSC((1-sqrt(eta))/2) (count of 100)", n, bsc_holds, 0.0),
    ]


@_check("06-less-noisy-counterexample", "four-output less-noisy counterexample")
def check_less_noisy_counterexample():
    return [
        _row(
            "criterion at q=0.001 for the equal-eta pair",
            -14.44,
            less_noisy_criterion(ETA_PAIR_A, ETA_PAIR_B, 0.001),
            0.15,
        ),
        _row(
            "criterion at q=0.02 for the equal-eta pair",
            0.9,
            less_noisy_criterion(ETA_PAIR_A, ETA_PAIR_B, 0.02),
            0.1,
        ),
    ]


@_check("07-degradability-sandwich", "BEC/BSC degradability extremality")
def check_degradability_sandwich():
    rng = np.random.default_rng(20240207)
    n = 100
    bec_holds = bsc_holds = 0
    worst_match = 0.0
    for _ in range(n):
        f = random_biso(rng)
        flat = f.to_channel()
        alpha = doeblin_alpha(flat)
        if is_degraded(make_bec(alpha), flat, witness=False).holds:
            bec_holds += 1
        verdict = is_degraded(flat, make_bsc(alpha / 2.0))
        if verdict.holds:
            bsc_holds += 1
            via_witness = compose(flat, verdict.witness)
            via_indicator = compose(flat, bsc_degrading_map(f))
            worst_match = max(worst_match, float(np.abs(via_witness.rows - via_indicator.rows).max()))
    return [
        _row("BEC(alpha) degrades onto channel (count of 100)", n, bec_holds, 0.0),
        _row("channel degrades onto BSC(alpha/2) (count of 100)", n, bsc_holds, 0.0),
        _row("max |witness composition - indicator target|", 0.0, worst_match, 1e-10),
    ]


@_check("08-degradability-counterexample", "four-output degradability counterexample")
def check_degradability_counterexample():
    f_flat = ALPHA_PAIR_F.to_channel()
    g_flat = ALPHA_PAIR_G.to_channel()
    fails_fg = 1 if is_degraded(f_flat, g_flat, witness=False).fails else 0
    fails_gf = 1 if is_degraded(g_flat, f_flat, witness=False).fails else 0
    return [
        _row("first channel does not degrade onto second", 1, fails_fg, 0.0),
        _row("second channel does not degrade onto first", 1, fails_gf, 0.0),
        _row("guessing probability of F at bias 0.12", 0.88, guessing_probability(ALPHA_PAIR_F, 0.12), 5e-6),
        _row("guessing probability of G at bias 0.12", 0.89268, guessing_probability(ALPHA_PAIR_G, 0.12), 5e-6),
        # Known discrepancy: exact arithmetic gives 0.77455; the reference
        # value 0.775 is a three-digit rounding, so this row cannot pass at
        # the stated tolerance.  Kept as stated rather than loosened.
        _row("guessing probability of F at bias 0.29", 0.775, guessing_probability(ALPHA_PAIR_F, 0.29), 5e-6),
        _row("guessing probability of G at bias 0.29", 0.76756, guessing_probability(ALPHA_PAIR_G, 0.29), 5e-6),
    ]


@_check("09-dim3-comparability", "dimension-3 comparability and degrading maps")
def check_dim3_comparability():
    rng = np.random.default_rng(20240209)
    n = 100
    agree = 0
    for _ in range(n):
        eta = float(rng.uniform(0.05, 0.9))
        f = random_dim3_equal_eta(rng, eta)
        g = random_dim3_equal_eta(rng, eta)
        fwd_ok = dim3_less_noisy_compare(f, g).holds == is_less_noisy(f, g).holds
        bwd_ok = dim3_less_noisy_compare(g, f).holds == is_less_noisy(g, f).holds
        if fwd_ok and bwd_ok:
            agree += 1
    worst_comp = 0.0
    for _ in range(n):
        alpha = float(rng.uniform(0.05, 0.9))
        f = random_dim3_equal_alpha(rng, alpha)
        g = random_dim3_equal_alpha(rng, alpha)
        deg = dim3_degrading_map(f, g)
        err = float(np.abs(compose(deg.upper, deg.map).rows - deg.lower.rows).max())
        worst_comp = max(worst_comp, err)
    return [
        _row("ratio test agrees with grid decision (count of 100)", n, agree, 0.0),
        _row("max composition error of dimension-3 degrading maps", 0.0, worst_comp, 1e-10),
    ]


@_check("10-reverse-coefficients", "reverse coefficients match bisected thresholds")
def check_reverse_coefficients():
    rng = np.random.default_rng(20240210)
    n = 50
    dev_alpha = dev_beta = 0.0
    for _ in range(n):
        b = random_biso(rng, max_pairs=4)
        rev = reverse_coefficients(b)
        dev_alpha = max(dev_alpha, abs(verify_reverse_alpha(b) - rev.alpha_rev))
        dev_beta = max(dev_beta, abs(verify_reverse_beta(b) - rev.beta_rev))
    return [
        _row("max |bisected threshold - (1 - eta_tv)| over 50 channels", 0.0, dev_alpha, 1e-6),
        _row("max |bisected threshold - (1 - eta_kl)| over 50 channels", 0.0, dev_beta, 1e-6),
    ]


def _z_capacity(q):
    return math.log2(1.0 + 2.0 ** (-h2(q) / (1.0 - q)))


@_check("11-z-channel", "Z-channel contraction, capacity, and comparability")
def check_z_channel():
    rows = []

    dev_eta = 0.0
    for p in np.linspace(0.0, 1.0, 51):
        z = make_z(4.0 * p * (1.0 - p))
        dev_eta = max(dev_eta, abs(eta_kl_binary(z) - (1.0 - 2.0 * p) ** 2))
    rows.append(_row("max |eta(Z(4p(1-p))) - (1-2p)^2| on 51-point grid", 0.0, dev_eta, 1e-8))

    qs = np.arange(1, 21) / 21.0
    dev_cap = max(abs(capacity_binary(make_z(q)) - _z_capacity(q)) for q in qs)
    rows.append(_row("max |capacity(Z(q)) - closed form| over 20 parameters", 0.0, dev_cap, 1e-9))

    # Known discrepancy: the reference reports the mutual-information
    # difference of the capacity-matched pair as non-positive, but it peaks
    # at roughly +0.08 near bias 0.88 for every parameter, i.e. the matched
    # channels are more-capable incomparable.  Kept as stated.
    xs = np.arange(1, 1000) / 1000.0
    worst_pos = -np.inf
    for q in qs:
        z = make_z(q)
        bsc = make_bsc(h2_inv(1.0 - _z_capacity(q)))
        diff = mutual_information_grid(z, xs) - mutual_information_grid(bsc, xs)
        worst_pos = max(worst_pos, float(diff.max()))
    rows.append(
        _row("max MI difference of capacity-matched Z vs BSC", 0.0, worst_pos, 1e-9)
    )

    violations = 0
    check_biases = xs[xs < 0.75]
    for q in qs:
        z = make_z(q)
        eta = 1.0 - q
        bsc = make_bsc((1.0 - math.sqrt(eta)) / 2.0)
        if np.any(2.0 * less_noisy_criterion(z, bsc, check_biases[:: len(check_biases) // 25]) < -1e-9):
            violations += 1
    rows.append(
        _row("contraction-matched Z fails the BSC criterion below 3/4 (count of 20)", 20, violations, 0.0)
    )
    return rows


@_check("12-order-hierarchy", "degradable implies less noisy implies more capable")
def check_order_hierarchy():
    rng = np.random.default_rng(20240212)
    n = 500
    deg_ln_violations = 0
    ln_mc_violations = 0
    for trial in range(n):
        p = random_biso(rng, max_pairs=4)
        if trial % 2 == 0:
            q = random_degraded_biso(rng, p)
        else:
            q = random_biso(rng, max_pairs=4)
        # row 1 reads degradability only where less-noisy fails, row 2
        # more-capable only where it holds; each is decided on its own there
        ln = is_less_noisy(p, q)
        if ln.fails and is_degraded(p.to_channel(), q.to_channel(), witness=False).holds:
            deg_ln_violations += 1
        if ln.holds and is_more_capable(p.to_channel(), q.to_channel()).fails:
            ln_mc_violations += 1
    return [
        _row("degradable pairs that fail less-noisy (count of 500)", 0, deg_ln_violations, 0.0),
        _row("less-noisy pairs that fail more-capable (count of 500)", 0, ln_mc_violations, 0.0),
    ]


@_check("13-applications", "secrecy, divergence bounds, and budget-curve bounds")
def check_applications():
    rng = np.random.default_rng(20240213)
    rows = []

    gens = [tv_generator(), chi2_generator(), kl_generator()]
    lower_violation = 0.0
    upper_violation = 0.0
    for _ in range(100):
        b = random_biso(rng)
        flat = b.to_channel()
        leak = maximal_leakage(flat)
        for gen in gens:
            bounds = f_divergence_output_bounds(gen, leak)
            rowdiv = f_divergence(gen, flat.rows[0], flat.rows[1])
            lower_violation = max(lower_violation, bounds.lower - rowdiv)
            if not bounds.upper_unbounded:
                upper_violation = max(upper_violation, rowdiv - bounds.upper)
    rows.append(_row("max lower-bound excess over row divergence", 0.0, max(lower_violation, 0.0), 1e-9))
    rows.append(_row("max row divergence excess over finite upper bound", 0.0, max(upper_violation, 0.0), 1e-9))

    ts = np.linspace(0.0, 2.0, 81)
    order_violation = 0.0
    monotone_violation = 0.0
    flat_violation = 0.0
    for _ in range(20):
        b = random_biso(rng)
        eta = eta_kl_biso(b)
        pts = fi_curve_bounds(b, ts)
        lows, ups = pts.lower, pts.upper
        order_violation = max(order_violation, float(np.max(lows - ups)), float(-lows.min()))
        monotone_violation = max(
            monotone_violation,
            float(np.max(lows[:-1] - lows[1:])),
            float(np.max(ups[:-1] - ups[1:])),
        )
        flat_violation = max(flat_violation, float(np.abs(ups[ts >= 1.0] - eta).max()))
    rows.append(_row("max budget-curve ordering violation", 0.0, order_violation, 1e-9))
    rows.append(_row("max budget-curve monotonicity violation", 0.0, monotone_violation, 1e-9))
    rows.append(_row("max |upper bound - eta| for budgets >= 1", 0.0, flat_violation, 1e-9))

    # spot values derived from the closed forms, computed independently here
    spot_bec = 0.25 - (1.0 - h2(0.25))
    rows.append(
        _row("secrecy vs matched BEC for BSC(0.25)", spot_bec, secrecy_capacity_vs_bec(canonicalize_biso(make_bsc(0.25))), 1e-5)
    )
    spot_bsc = (1.0 - 0.5) - 1.0 + h2((1.0 - math.sqrt(1.0 - 0.5)) / 2.0)
    rows.append(
        _row("secrecy vs matched BSC for BEC(0.5)", spot_bsc, secrecy_capacity_vs_bsc(canonicalize_biso(make_bec(0.5))), 1e-5)
    )
    rows.append(
        _row("secrecy vs matched BSC vanishes for a BSC", 0.0, secrecy_capacity_vs_bsc(canonicalize_biso(make_bsc(0.3))), 1e-12)
    )
    rows.append(
        _row("secrecy vs matched BEC vanishes for a BEC", 0.0, secrecy_capacity_vs_bec(canonicalize_biso(make_bec(0.4))), 1e-12)
    )
    return rows


def check_ids():
    return [(cid, title) for cid, title, _ in CHECKS]


def _rows(index):
    """The rows of the check at `index` of CHECKS: a pool task, as an index pickles and a check may not."""
    return CHECKS[index][2]()


def _pool(count):
    """A pool for `count` checks of processes forked from the caller, one per usable CPU, or None
    where it cannot help: one check, one usable CPU, or no fork (os.sched_getaffinity is Linux's)."""
    workers = min(count, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if workers < 2:
        return None
    import multiprocessing  # imported here, so that only a pooled run pays for it
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))


def run_checks(only=None):
    """Run all checks (or those whose id starts with `only`) and return their CheckResults, in id order.

    The checks share no state, so they run in a `_pool` of processes forked
    from the caller, which see CHECKS as it stands.  They are handed out last
    id first, so the longest, check 12, starts at once.  No child outlives the
    call, also when a check raises.
    """
    picked = [i for i, (cid, _, _) in enumerate(CHECKS) if only is None or cid.startswith(only)]
    pool = _pool(len(picked))
    if pool is None:
        rows = [_rows(i) for i in picked]
    else:
        try:
            futures = {i: pool.submit(_rows, i) for i in reversed(picked)}
            rows = [futures[i].result() for i in picked]
        finally:
            pool.shutdown(cancel_futures=True)
    return [
        CheckResult(CHECKS[i][0], description, expected, computed, tolerance, abs(computed - expected) <= tolerance)
        for i, check_rows in zip(picked, rows)
        for description, expected, computed, tolerance in check_rows
    ]
