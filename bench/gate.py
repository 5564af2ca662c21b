"""Per-op correctness gate.

Each check reads one op's exit code and stdout and tests properties fixed by
construction or by theory (see `corpus.Op.expect`), never values taken from
the package under test.  `check` returns None when the op passed, else a
one-line reason.
"""

import math

# paper-check exits 1 with exactly these two rows failing: both reference
# values are known to be irreproducible as stated.
PAPER_ROWS = 41
PAPER_KNOWN_FAILS = {
    ("08-degradability-counterexample", "guessing probability of F at bias 0.29"),
    ("11-z-channel", "max MI difference of capacity-matched Z vs BSC"),
}

COMPARE_LINES = (
    "degradable A->B", "degradable B->A",
    "less-noisy A>=B", "less-noisy B>=A",
    "more-capable A>=B", "more-capable B>=A",
)
RELATIONS = ("holds", "fails", "undetermined")

CHAIN_TOL = 1e-9
SWEEP_HEADERS = {
    "criterion": "q,forward,reverse",
    "mi-diff": "x,mi_a,mi_b,difference",
    "fi-bounds": "t,lower,upper",
}


def _check_paper(rc, out):
    if rc != 1:
        return f"exit code {rc}, expected 1"
    lines = out.splitlines()
    rows = [ln for ln in lines if ln.startswith(("[PASS] ", "[FAIL] "))]
    if len(rows) != PAPER_ROWS:
        return f"{len(rows)} rows, expected {PAPER_ROWS}"
    fails = set()
    for row in rows:
        if row.startswith("[FAIL] "):
            cid, _, rest = row[7:].partition(" ")
            fails.add((cid, rest.strip().rpartition(": expected ")[0]))
    if fails != PAPER_KNOWN_FAILS:
        return f"failing rows {sorted(fails)}"
    summary = f"{PAPER_ROWS - len(PAPER_KNOWN_FAILS)}/{PAPER_ROWS} checks passed"
    if lines[-1] != summary:
        return f"summary line {lines[-1]!r}"
    return None


def _check_compare(op, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    verdicts = {}
    for line in out.splitlines():
        name, sep, relation = line.partition(": ")
        if sep and name in COMPARE_LINES:
            verdicts[name] = relation
    if tuple(verdicts) != COMPARE_LINES:
        return f"verdict lines {list(verdicts)}"
    bad = [v for v in verdicts.values() if v not in RELATIONS]
    if bad:
        return f"unknown relation {bad[0]!r}"
    for name in op.expect.get("holds", ()):
        if verdicts[name] != "holds":
            return f"{name}: {verdicts[name]}, expected holds"
    return None


def _check_analyze(op, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not key.startswith("match["):
            fields[key] = value
    try:
        outputs = int(fields["outputs"])
        tv = float(fields["eta_tv"])
        alpha = float(fields["doeblin_alpha"])
        amax = float(fields["alpha_max"])
        leak = float(fields["maximal_leakage_nats"])
        eta = float(fields["eta_kl"])
        biso = fields["biso"]
    except (KeyError, ValueError) as exc:
        return f"unreadable report: {exc!r}"
    if outputs != op.expect["outputs"]:
        return f"outputs {outputs}, expected {op.expect['outputs']}"
    if biso != ("yes" if op.expect["biso"] else "no"):
        return f"biso: {biso}"
    chain = {"1 - doeblin_alpha": 1.0 - alpha, "alpha_max - 1": amax - 1.0, "e^leakage - 1": math.expm1(leak)}
    for name, value in chain.items():
        if abs(value - tv) > CHAIN_TOL:
            return f"eta_tv {tv!r} != {name} {value!r}"
    if "eta_kl" in op.expect and abs(eta - op.expect["eta_kl"]) > CHAIN_TOL:
        return f"eta_kl {eta!r}, closed form {op.expect['eta_kl']!r}"
    return None


def _check_sweep(op, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    quantity = op.expect["quantity"]
    lines = out.splitlines()
    if len(lines) != op.expect["rows"]:
        return f"{len(lines)} CSV lines, expected {op.expect['rows']}"
    if lines[0] != SWEEP_HEADERS[quantity]:
        return f"header {lines[0]!r}"
    try:
        table = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return f"unreadable CSV: {exc}"
    for prev, row in zip(table, table[1:]):
        if not row[0] > prev[0]:
            return f"first column not ascending at {row[0]!r}"
    for row in table:
        if quantity == "criterion" and abs(row[1] + row[2]) > CHAIN_TOL * max(1.0, abs(row[1])):
            return f"reverse criterion is not the negated forward one at q={row[0]!r}"
        if quantity == "mi-diff" and (min(row[1], row[2]) < 0.0 or abs(row[1] - row[2] - row[3]) > CHAIN_TOL):
            return f"mutual information row inconsistent at x={row[0]!r}"
        if quantity == "fi-bounds" and row[1] > row[2] + CHAIN_TOL:
            return f"lower bound above upper bound at t={row[0]!r}"
    return None


def check(op, rc, out):
    """None when the op's exit code and stdout show every expected property."""
    command = op.argv[0]
    if command == "paper-check":
        return _check_paper(rc, out)
    if command == "compare":
        return _check_compare(op, rc, out)
    if command == "analyze":
        return _check_analyze(op, rc, out)
    return _check_sweep(op, rc, out)
