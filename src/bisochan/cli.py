"""Command-line interface.

Commands: analyze, compare, extremal, paper-check, sweep.  Exit codes:
0 ok, 1 check failure, 2 parse error or unwritable output, 3 invalid
channel, 4 precondition violation, 5 numerical instability.  All output is
deterministic; numbers print with 12 significant digits.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .applications import _MEMO_POINTS, fi_curve_bounds
from .channels import (
    as_channel,
    canonicalize_biso,
    format_channel,
    is_biso,
    load_channel,
    make_bec,
    make_bsc,
)
from .checks import check_ids, run_checks
from .coefficients import coefficient_report, mutual_information_grid
from .errors import (
    ChannelFormatError,
    DegenerateParameterError,
    InvalidChannelError,
    LeakageOutOfRangeError,
    NotBisoError,
    NumericalInstabilityError,
)
from .extremal import ChannelClass, _matched, general_binary_dominated, match_extremal
from .orders import (
    CriterionViolation,
    InfeasibilityCertificate,
    is_degraded,
    is_less_noisy,
    is_more_capable,
    less_noisy_criterion,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_CHANNEL = 3
EXIT_PRECONDITION = 4
EXIT_NUMERICAL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that closed the pipe


def _fmt(x):
    return format(float(x), ".12g")


def _print_matrix(mat):
    for row in np.asarray(mat):
        print("  " + " ".join(_fmt(v) for v in row))


def _load(path):
    try:
        return load_channel(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ChannelFormatError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def cmd_analyze(args):
    ch = _load(args.channel)
    report = coefficient_report(ch)
    biso = is_biso(ch)
    print(f"channel: {args.channel}")
    print(f"outputs: {ch.n_outputs}")
    print(f"biso: {'yes' if biso else 'no'}")
    print(f"eta_kl: {_fmt(report.eta_kl)}")
    print(f"eta_tv: {_fmt(report.eta_tv)}")
    print(f"doeblin_alpha: {_fmt(report.doeblin_alpha)}")
    print(f"alpha_max: {_fmt(report.alpha_max)}")
    print(f"maximal_leakage_nats: {_fmt(report.maximal_leakage)}")
    print(f"maximal_leakage_bits: {_fmt(report.maximal_leakage_bits)}")
    print(f"capacity_bits: {_fmt(report.capacity)}")
    values = {"eta_kl": report.eta_kl, "alpha": report.doeblin_alpha, "capacity": report.capacity}
    for kind, value in values.items():
        match = _matched(ChannelClass(kind, value))
        print(
            f"match[{kind}]: value={_fmt(match.channel_class.value)} "
            f"bsc_p={_fmt(match.bsc_p)} bec_eps={_fmt(match.bec_eps)}"
        )
    return EXIT_OK


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _describe_verdict(name, verdict):
    print(f"{name}: {verdict.relation}")
    w = verdict.witness
    if w is None:
        return
    if isinstance(w, CriterionViolation) and verdict.relation == "undetermined":
        print(f"  uncertified cell at parameter {_fmt(w.parameter)} with lower bound {_fmt(w.value)}")
    elif isinstance(w, CriterionViolation):
        print(f"  violation at parameter {_fmt(w.parameter)} with value {_fmt(w.value)}")
    elif isinstance(w, InfeasibilityCertificate):
        print(
            f"  guessing-probability refutation at bias {_fmt(w.guessing_x)} "
            f"(gap {_fmt(w.guessing_gap)})"
        )
    else:  # degrading map
        print("  degrading map:")
        _print_matrix(w.entries)


def _flat_columns_are_own(ch):
    """Whether a BISO channel's columns with r0 != r1 are, as a multiset, those of its canonical
    flat rows, on which less-noisy is decided: then both orders see the channel's own I(x).  A
    sort of Python tuples costs less than numpy's on files of a few columns."""
    flat = canonicalize_biso(ch).to_channel().rows
    own, flat = (sorted(c for c in zip(*rows.tolist()) if c[0] != c[1]) for rows in (ch.rows, flat))
    return own == flat


def cmd_compare(args):
    a = _load(args.channel_a)
    b = _load(args.channel_b)
    orders = ("deg", "ln", "mc") if args.order == "all" else (args.order,)
    implied = (None, None)  # holding less-noisy verdicts, A>=B and B>=A, that settle more-capable
    for order in orders:
        if order == "deg":
            _describe_verdict("degradable A->B", is_degraded(a, b))
            _describe_verdict("degradable B->A", is_degraded(b, a))
        elif order == "ln":
            if args.order == "all" and not (is_biso(a) and is_biso(b)):
                print("less-noisy: skipped (non-BISO pair)")
                continue
            ab = is_less_noisy(a, b)
            _describe_verdict("less-noisy A>=B", ab)
            ba = is_less_noisy(b, a)
            _describe_verdict("less-noisy B>=A", ba)
            # less noisy implies more capable: I_P - I_Q has curvature -(F_P - F_Q) / ln 2, F the
            # criterion's sum, so a holding criterion keeps it above -1e-9 / (8 ln 2) > -1e-9
            if args.order == "all" and (ab.holds or ba.holds) and _flat_columns_are_own(a) and _flat_columns_are_own(b):
                implied = tuple(v if v.holds else None for v in (ab, ba))
        else:
            _describe_verdict("more-capable A>=B", implied[0] or is_more_capable(a, b))
            _describe_verdict("more-capable B>=A", implied[1] or is_more_capable(b, a))
    return EXIT_OK


# ----------------------------------------------------------------------
# extremal
# ----------------------------------------------------------------------


def cmd_extremal(args):
    ch = _load(args.channel)
    kind = {"eta": "eta_kl", "alpha": "alpha", "capacity": "capacity"}[args.kind]
    if kind != "alpha" and not is_biso(ch):
        print(f"{args.kind} extremal construction requires a BISO channel", file=sys.stderr)
        return EXIT_PRECONDITION
    match = match_extremal(ch, kind)
    print(f"kind: {args.kind}")
    print(f"class_value: {_fmt(match.channel_class.value)}")
    print(f"bsc_p: {_fmt(match.bsc_p)}")
    print(f"bec_eps: {_fmt(match.bec_eps)}")
    dmap = None
    if kind == "alpha":
        target, dmap = general_binary_dominated(ch)
        print("dominated two-output channel:")
        _print_matrix(target.rows)
        print("collapsing map (rows follow the file's output columns):")
        _print_matrix(dmap.entries)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        files = {"bsc.txt": format_channel(make_bsc(match.bsc_p)), "bec.txt": format_channel(make_bec(match.bec_eps))}
        if dmap is not None:
            files["map.txt"] = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in dmap.entries)
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"wrote matched channels to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# paper-check
# ----------------------------------------------------------------------


def cmd_paper_check(args):
    if args.list:
        for cid, title in check_ids():
            print(f"{cid}: {title}")
        return EXIT_OK
    rows = run_checks(only=args.only)
    if not rows:
        print(f"no checks match id prefix {args.only!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    width = max(len(r.check_id) for r in rows)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(
            f"[{status}] {r.check_id:<{width}}  {r.description}: "
            f"expected {_fmt(r.expected)} +- {_fmt(r.tolerance)}, computed {_fmt(r.computed)}"
        )
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILURE


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _grid_column(grid, tmax_hex=None):
    """A sweep's first column, read-only, and its `_fmt` text: k / (grid + 1), or the budgets 0 to tmax,
    keyed by `float.hex(tmax)` so that -0 and 0 keep their own columns; kept up to `_MEMO_POINTS` points."""
    column = np.linspace(0.0, float.fromhex(tmax_hex), grid) if tmax_hex else np.arange(1, grid + 1) / (grid + 1.0)
    column.flags.writeable = False
    return column, tuple(_fmt(v) for v in column.tolist())


def _emit_csv(header, first, columns, out):
    """Write the header and one row per index: `first`'s text, then the columns' values as `_fmt` prints them."""
    row = ",".join(["%s"] + ["%.12g"] * len(columns))
    values = zip(first, *(c.tolist() for c in columns))
    text = "".join([header + "\n"] + [row % v + "\n" for v in values])
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


MAX_GRID = 2**20  # the most points a sweep takes: at the cap, its CSV text alone is some 50 MB

_SWEEP_INPUTS = {  # quantity: (file count, the files in words)
    "criterion": (2, "two channel files"),
    "fi-bounds": (1, "one channel file"),
    "mi-diff": (2, "two channel files"),
}


def cmd_sweep(args):
    if args.grid < 1:
        raise DegenerateParameterError(f"grid_size must be at least 1, got {args.grid}")
    if args.grid > MAX_GRID:
        raise DegenerateParameterError(f"grid_size must be at most {MAX_GRID}, got {args.grid}")
    if not math.isfinite(args.tmax):
        raise LeakageOutOfRangeError(f"--tmax must be finite, got {args.tmax!r}")
    count, in_words = _SWEEP_INPUTS[args.quantity]
    if len(args.channels) != count:
        print(f"{args.quantity} sweep needs exactly {in_words}", file=sys.stderr)
        return EXIT_PRECONDITION
    chans = [_load(f) for f in args.channels]
    column = _grid_column if args.grid <= _MEMO_POINTS else _grid_column.__wrapped__
    xs, text = column(args.grid, args.tmax.hex() if args.quantity == "fi-bounds" else None)
    if args.quantity == "criterion":
        fwd = less_noisy_criterion(*chans, xs)
        # the criterion is antisymmetric in the pair; 0 - x keeps a zero unsigned
        header, columns = "q,forward,reverse", (fwd, 0.0 - fwd)
    elif args.quantity == "fi-bounds":
        pts = fi_curve_bounds(chans[0], xs)
        header, columns = "t,lower,upper", (pts.lower, pts.upper)
    else:  # mi-diff
        mi_a, mi_b = (mutual_information_grid(as_channel(ch), xs) for ch in chans)
        header, columns = "x,mi_a,mi_b,difference", (mi_a, mi_b, mi_a - mi_b)
    _emit_csv(header, text, columns, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


_COMMANDS = (  # name, help, handler, and each argument as (flags, add_argument keywords)
    ("analyze", "print every coefficient of a channel file", cmd_analyze, [(("channel",), {})]),
    ("compare", "decide the partial orders between two channels", cmd_compare, [
        (("channel_a",), {}),
        (("channel_b",), {}),
        (("--order",), dict(choices=("deg", "ln", "mc", "all"), default="all")),
    ]),
    ("extremal", "construct the matched BSC/BEC representatives", cmd_extremal, [
        (("channel",), {}),
        (("--kind",), dict(choices=("eta", "alpha", "capacity"), required=True)),
        (("--out",), dict(default=None, help="directory for the matched channel files")),
    ]),
    ("paper-check", "replay the reference-result regression suite", cmd_paper_check, [
        (("--list",), dict(action="store_true", help="list check ids without running")),
        (("--only",), dict(default=None, help="run only checks whose id starts with this")),
    ]),
    ("sweep", "emit CSV sweeps of comparison quantities", cmd_sweep, [
        (("--quantity",), dict(choices=("criterion", "fi-bounds", "mi-diff"), required=True)),
        (("channels",), dict(nargs="+")),
        (("--grid",), dict(type=int, default=999)),
        (("--tmax",), dict(type=float, default=1.2)),
        (("--out",), dict(default=None)),
    ]),
)


def build_parser(command=None):
    """The top-level parser with the sub-parser of `command` only, or with all five when `command`
    names none of them.  For a call whose first argument is `command`, both print the same bytes: the
    `metavar` spells the top-level usage as the full parser's choices do, and the two errors that print
    the argument's name instead (no command, an unknown one) never reach the one-command parser."""
    commands = [c for c in _COMMANDS if c[0] == command] or _COMMANDS
    parser = argparse.ArgumentParser(
        prog="bisochan",
        description="Coefficients, partial orders, and extremal constructions "
        "for binary-input channels.",
    )
    metavar = None if commands is _COMMANDS else "{" + ",".join(c[0] for c in _COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, func, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ChannelFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except BrokenPipeError:  # stdout's reader has gone, as with `| head`: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # a write: `_load` maps the reads to ChannelFormatError
        print(f"cannot write: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except InvalidChannelError as exc:
        print(f"invalid channel: {exc}", file=sys.stderr)
        return EXIT_INVALID_CHANNEL
    except (NotBisoError, DegenerateParameterError, LeakageOutOfRangeError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
