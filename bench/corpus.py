"""Seeded input sets for the benchmark workloads.

Every workload is a list of `Op`s.  An op carries the CLI argv (with file
names relative to a work directory), the text of each channel file it reads,
a class label, and the properties its output must satisfy.  Those properties
are fixed by construction here, from closed forms computed with numpy alone,
never by calling the package under test.

Class mixes and channel sizes follow a fixed cycle and only the numbers are
drawn from the seed, so two seeds give inputs of the same shape and cost.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("paper-check", "compare-corpus", "analyze-corpus", "sweep-corpus")

# Ops per pass over the input set: at least 200, so that ten or more lie
# beyond the 95th percentile.  A pass takes 1.5 to 3 s here, so a run makes
# several passes.
CORPUS_SIZE = {"compare-corpus": 240, "analyze-corpus": 200, "sweep-corpus": 200}

SWEEP_GRID = 999  # the CLI default; sweep ops pass no --grid


@dataclass
class Op:
    """One CLI invocation and what its output must show."""

    label: str
    argv: list
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def bound_argv(self, workdir):
        """The argv with file names resolved inside `workdir`."""
        return [os.path.join(workdir, a) if a in self.files else a for a in self.argv]


# ----------------------------------------------------------------------
# Channels as plain arrays (2 x n, rows sum to one)
# ----------------------------------------------------------------------


def _random_pairs(rng, l, low=0.02):
    raw = rng.uniform(low, 1.0, size=(l, 2))
    return raw / raw.sum()


def _flat_rows(pairs):
    """The flat BISO layout: (p_-l .. p_-1, p_1 .. p_l), row 1 = row 0 reversed."""
    row0 = np.concatenate([pairs[::-1, 1], pairs[:, 0]])
    return np.stack([row0, row0[::-1]])


def eta_kl_pairs(pairs):
    """Closed-form KL contraction coefficient of a BISO channel in paired form."""
    p, q = pairs[:, 0], pairs[:, 1]
    s = p + q
    keep = s > 0.0
    return float(((p - q)[keep] ** 2 / s[keep]).sum())


def _doeblin(rows):
    return float(np.minimum(rows[0], rows[1]).sum())


def _bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def _bec(eps):
    return np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]])


def _garble(rng, pairs, l_out):
    """A symmetric garbling of a BISO channel: output stays BISO and degraded."""
    l = pairs.shape[0]
    to_pos = rng.uniform(0.05, 1.0, size=(l, l_out))
    to_neg = rng.uniform(0.05, 1.0, size=(l, l_out))
    norm = (to_pos + to_neg).sum(axis=1, keepdims=True)
    to_pos /= norm
    to_neg /= norm
    p, q = pairs[:, 0], pairs[:, 1]
    return np.stack([p @ to_pos + q @ to_neg, p @ to_neg + q @ to_pos], axis=1)


def _general(rng, n):
    raw = rng.uniform(0.01, 1.0, size=(2, n))
    return raw / raw.sum(axis=1, keepdims=True)


def _hostile(rng, n):
    """Near-symmetric non-BISO channel that fails BISO pairing only at its end.

    The first n - 2 columns have equal rows with one common value, so any two
    of them pair; the last two columns have no partner.  A column-pairing
    search that backtracks tries every matching of the first n - 2 columns
    before it fails.
    """
    c = rng.uniform(0.6, 0.9) / n
    rest = 1.0 - (n - 2) * c
    s = rng.uniform(0.55, 0.75)  # s, t and 1 - t stay far apart: no pairing
    t = rng.uniform(0.10, 0.20)
    row0 = np.concatenate([np.full(n - 2, c), [rest * s, rest * (1.0 - s)]])
    row1 = np.concatenate([np.full(n - 2, c), [rest * t, rest * (1.0 - t)]])
    return np.stack([row0, row1])


def _text(rows, layout, rng):
    """Render a channel file: BISO shorthand, general flat, or shuffled columns."""
    if layout == "shorthand":
        return "biso " + " ".join(repr(float(v)) for v in rows[0]) + "\n"
    if layout == "shuffled":
        rows = rows[:, rng.permutation(rows.shape[1])]
    lines = [str(rows.shape[1])] + [" ".join(repr(float(v)) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

# compare-corpus: one block of ten ops, repeated.  Every third op writes its
# first file with shuffled columns.
_COMPARE_BLOCK = ("touching-bec", "touching-bsc", "doeblin", "degraded", "independent") * 2


# Verdict lines that must read "holds": degraded implies less noisy implies
# more capable, so each class also fixes the orders its own order implies.
LESS_NOISY = ("less-noisy A>=B", "more-capable A>=B")
DEGRADED = ("degradable A->B",) + LESS_NOISY


def _compare_ops(rng, n_ops):
    ops = []
    for i in range(n_ops):
        cls = _COMPARE_BLOCK[i % len(_COMPARE_BLOCK)]
        # Pairs per channel cycle 2..4.  A one-pair channel is a BSC, and a BSC
        # against its own matched BSC differs only by roundoff, so the cost of
        # deciding it swings with the roundoff pattern, not with the input.
        l = 2 + (i // len(_COMPARE_BLOCK)) % 3
        pairs = _random_pairs(rng, l)
        f = _flat_rows(pairs)
        eta = eta_kl_pairs(pairs)
        expect = {}
        if cls == "touching-bec":
            a, b = _bec(1.0 - eta), f
            expect["holds"] = LESS_NOISY
        elif cls == "touching-bsc":
            a, b = f, _bsc((1.0 - math.sqrt(eta)) / 2.0)
            expect["holds"] = LESS_NOISY
        elif cls == "doeblin":
            a, b = f, _bsc(_doeblin(f) / 2.0)
            expect["holds"] = DEGRADED
        elif cls == "degraded":
            a, b = f, _flat_rows(_garble(rng, pairs, 1 + i % 3))
            expect["holds"] = DEGRADED
        else:
            a, b = f, _flat_rows(_random_pairs(rng, 2 + (i + 1) % 3))
        layout_a = "shuffled" if i % 3 == 2 else "general"
        files = {f"c{i:04d}a.txt": _text(a, layout_a, rng), f"c{i:04d}b.txt": _text(b, "general", rng)}
        label = f"{cls}/{layout_a}/l{l}"
        ops.append(Op(label, ["compare", *files, "--order", "all"], files, expect))
    return ops


# analyze-corpus: one block of twenty ops, repeated; 10% hostile files.
_ANALYZE_BLOCK = ("biso-flat", "biso-shuffled", "general") * 6 + ("hostile", "hostile")


def _analyze_ops(rng, n_ops):
    ops = []
    n_hostile = 0
    for i in range(n_ops):
        cls = _ANALYZE_BLOCK[i % len(_ANALYZE_BLOCK)]
        expect = {}
        if cls.startswith("biso"):
            l = 1 + (i // 3) % 6
            pairs = _random_pairs(rng, l)
            rows = _flat_rows(pairs)
            layout = "shorthand" if cls == "biso-flat" else "shuffled"
            expect.update(biso=True, eta_kl=eta_kl_pairs(pairs))
            label = f"{cls}/l{l}"
        elif cls == "general":
            n = 2 + (i // 3) % 7  # 2..8 outputs
            rows = _general(rng, n)
            layout = "general"
            expect["biso"] = False
            label = f"general/n{n}"
        else:
            n = 8 + n_hostile % 5  # 8..12 outputs
            n_hostile += 1
            rows = _hostile(rng, n)
            layout = "general"
            expect["biso"] = False
            label = f"hostile/n{n}"
        expect["outputs"] = rows.shape[1]
        name = f"a{i:04d}.txt"
        ops.append(Op(label, ["analyze", name], {name: _text(rows, layout, rng)}, expect))
    return ops


# sweep-corpus: fi-bounds is a tenth of the ops and the slowest, so it sets
# the 95th percentile and the other two set the median.
_SWEEP_CYCLE = ("criterion", "mi-diff") * 4 + ("criterion", "fi-bounds")


def _sweep_ops(rng, n_ops):
    ops = []
    for i in range(n_ops):
        quantity = _SWEEP_CYCLE[i % len(_SWEEP_CYCLE)]
        l = 1 + (i // len(_SWEEP_CYCLE)) % 4
        layout = "shuffled" if (i // 20) % 2 else "shorthand"
        if quantity == "criterion":
            chans = [_flat_rows(_random_pairs(rng, l)), _flat_rows(_random_pairs(rng, 1 + (i + 1) % 4))]
        elif quantity == "mi-diff":
            chans = [_general(rng, 2 + l), _flat_rows(_random_pairs(rng, l))]
            layout = "general"
        else:
            chans = [_flat_rows(_random_pairs(rng, l))]
        files = {}
        for k, rows in enumerate(chans):
            files[f"s{i:04d}{'ab'[k]}.txt"] = _text(rows, layout if k == 0 else "general", rng)
        expect = {"quantity": quantity, "rows": SWEEP_GRID + 1}
        ops.append(Op(f"{quantity}/{layout}/l{l}", ["sweep", "--quantity", quantity, *files], files, expect))
    return ops


def make_ops(workload, seed):
    """The input set of one workload, drawn from `seed`."""
    if workload == "paper-check":
        return [Op("paper-check", ["paper-check"])]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"compare-corpus": _compare_ops, "analyze-corpus": _analyze_ops, "sweep-corpus": _sweep_ops}
    return build[workload](rng, CORPUS_SIZE[workload])


def write_files(ops, workdir):
    os.makedirs(workdir, exist_ok=True)
    for op in ops:
        for name, text in op.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
