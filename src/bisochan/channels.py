"""Binary-input channel representations, BISO canonicalization, composition, and file I/O.

A binary-input channel is a 2 x n row-stochastic matrix.  A BISO channel is
stored in paired form: l pairs (p_y, p_-y) over the symmetric output alphabet
{+-1, ..., +-l}, with an odd "0" output split evenly into two half-columns.
The flat layout used for files and for `BisoChannel.to_channel` is

    (p_-l, ..., p_-1, p_1, ..., p_l)

i.e. row 0 reads negative labels ascending then positive labels ascending,
and row 1 is row 0 reversed.
"""

import numpy as np

from .errors import (
    ChannelFormatError,
    DimensionMismatchError,
    InvalidChannelError,
    NotBisoError,
    ParameterOutOfRangeError,
)

STRICT_TOL = 1e-12   # channels constructed in code
LOADED_TOL = 1e-9    # channels parsed from text (round-trip slack)
PAIRING_TOL = 1e-9   # column matching during BISO detection


def _as_prob_matrix(rows, tol):
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2:
        raise InvalidChannelError(f"channel must be a 2-D matrix, got shape {arr.shape}")
    clip = _needs_clip(arr, tol, f"channel entries must lie in [0, 1] within {tol:g}")
    sums = arr.sum(axis=1)
    if np.abs(sums - 1.0).max(initial=0.0) > tol:
        bad = np.nonzero(np.abs(sums - 1.0) > tol)[0][0]
        raise InvalidChannelError(f"channel row {bad} sums to {float(sums[bad])!r}, not 1 within {tol:g}")
    return np.clip(arr, 0.0, 1.0) if clip else arr


def _needs_clip(arr, tol, message):
    """Whether an entry of `arr` lies outside [0, 1], by one min and one max.

    Raises InvalidChannelError(message) when an entry lies beyond `tol` of
    [0, 1] or is NaN: every comparison with NaN is False.
    """
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not (lo >= -tol and hi <= 1.0 + tol):
        raise InvalidChannelError(message)
    return not (lo >= 0.0 and hi <= 1.0)


def _flat_layout(pairs):
    """The 2 x 2l rows of the flat layout of an (l, 2) array of pairs: row 1 is row 0 reversed."""
    return np.concatenate((pairs[::-1, ::-1], pairs)).T


class Channel:
    """A binary-input channel: 2 x n row-stochastic matrix, immutable."""

    def __init__(self, rows, tol=STRICT_TOL):
        arr = _as_prob_matrix(rows, tol)
        if arr.shape[0] != 2:
            raise InvalidChannelError(f"binary-input channel needs 2 rows, got {arr.shape[0]}")
        arr.setflags(write=False)
        self.rows = arr
        self._canonical = None  # memo of canonicalize_biso: BisoChannel or not-BISO reason

    @classmethod
    def _valid(cls, arr):
        """A Channel of a fresh float array whose rows are valid by construction, unchecked."""
        self = cls.__new__(cls)
        arr.setflags(write=False)
        self.rows = arr
        self._canonical = None
        return self

    @property
    def n_outputs(self):
        return self.rows.shape[1]

    def isclose(self, other, atol=1e-12):
        return self.rows.shape == other.rows.shape and np.allclose(
            self.rows, other.rows, atol=atol, rtol=0.0
        )

    def __repr__(self):
        return f"Channel({self.rows.tolist()!r})"


class BisoChannel:
    """A BISO channel in paired form: pairs[i] = (p_y, p_-y) for y = i + 1."""

    def __init__(self, pairs, tol=STRICT_TOL):
        arr = np.array(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidChannelError(f"pairs must have shape (l, 2), got {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidChannelError("a BISO channel needs at least one pair")
        clip = _needs_clip(arr, tol, f"pair entries must lie in [0, 1] within {tol:g}")
        total = arr.sum()
        if abs(total - 1.0) > tol:
            raise InvalidChannelError(f"pair probabilities sum to {float(total)!r}, not 1 within {tol:g}")
        arr = np.clip(arr, 0.0, 1.0) if clip else arr
        arr.setflags(write=False)
        self.pairs = arr
        self._flat = None  # memo of to_channel

    @classmethod
    def _valid(cls, arr):
        """A BisoChannel of a fresh (l, 2) float array whose pairs are valid by construction, unchecked."""
        self = cls.__new__(cls)
        arr.setflags(write=False)
        self.pairs, self._flat = arr, None
        return self

    @property
    def num_pairs(self):
        return self.pairs.shape[0]

    def to_channel(self):
        """Flatten to the canonical 2 x 2l layout as a Channel; built once."""
        if self._flat is None:
            self._flat = Channel._valid(_flat_layout(self.pairs))  # the pairs passed validation
        return self._flat

    def isclose(self, other, atol=1e-12):
        return self.pairs.shape == other.pairs.shape and np.allclose(
            self.pairs, other.pairs, atol=atol, rtol=0.0
        )

    def __repr__(self):
        return f"BisoChannel({self.pairs.tolist()!r})"


def as_channel(ch):
    """Accept a Channel or BisoChannel and return the flat Channel."""
    if isinstance(ch, BisoChannel):
        return ch.to_channel()
    if isinstance(ch, Channel):
        return ch
    raise TypeError(f"expected Channel or BisoChannel, got {type(ch).__name__}")


def _pair_columns(rows):
    """Pair the output columns of a 2 x n matrix symmetrically.

    Returns the paired form as a BisoChannel, or the reason as a str when
    no pairing within PAIRING_TOL exists.  Matrices already in the flat
    layout (row 1 equal to row 0 reversed) keep their positional pair order.
    Otherwise columns with r0 ~ r1 self-pair and are split, and the rest
    pair by sorting: the r0 > r1 columns by (r0, r1) against the r0 < r1
    columns by (r1, r0), so a partner is found in O(n log n).
    """
    tol = PAIRING_TOL
    r0, r1 = rows
    n = len(r0)
    if np.all(np.abs(r1 - r0[::-1]) <= tol):
        # positional fast path: flat layout, possibly with an odd middle column
        flat = r0
        if n % 2 == 1:
            mid = n // 2
            half = 0.5 * (r0[mid] + r1[mid]) / 2.0
            flat = np.concatenate([r0[:mid], [half, half], r0[mid + 1:]])
        l = len(flat) // 2
        pairs = [(flat[l + i], flat[l - 1 - i]) for i in range(l)]
    else:
        diff = r0 - r1
        split = np.abs(diff) <= tol
        pos = np.nonzero(~split & (diff > 0.0))[0]
        neg = np.nonzero(~split & (diff < 0.0))[0]
        # np.lexsort sorts by its last key first and is stable, so equal
        # columns stay in index order
        pos = pos[np.lexsort((r1[pos], r0[pos]))]
        neg = neg[np.lexsort((r0[neg], r1[neg]))]
        if len(pos) != len(neg) or np.any(
            (np.abs(r0[pos] - r1[neg]) > tol) | (np.abs(r0[neg] - r1[pos]) > tol)
        ):
            return "no symmetric pairing of output columns exists"
        matching = sorted(
            [(i, i) for i in np.nonzero(split)[0]]
            + [(min(i, j), max(i, j)) for i, j in zip(pos, neg)]
        )
        pairs = []
        for i, j in matching:
            if i == j:
                v = 0.5 * (r0[i] + r1[i])
                pairs.append((v / 2.0, v / 2.0))
            else:
                # the larger index plays the positive label, as in the flat layout
                pairs.append((r0[j], r0[i]))
        pairs.sort(key=lambda pr: (pr[0] + pr[1], pr[0]))

    return BisoChannel([pr for pr in pairs if pr[0] + pr[1] > 0.0], tol=PAIRING_TOL)


def canonicalize_biso(channel):
    """Recognize a BISO channel and return its paired form.

    This is the one entry point for the BISO decision.  A `BisoChannel` is
    returned unchanged.  For a `Channel` the output columns are paired once
    by a sort-and-pair in O(n log n) (see `_pair_columns`), and the outcome,
    a paired form or a not-BISO verdict, is memoized on the channel, so
    `is_biso` followed by `canonicalize_biso` pairs the columns once.

    Parameters
    ----------
    channel : Channel or BisoChannel
        Binary-input channel to canonicalize.

    Returns
    -------
    BisoChannel
        Pairs (p_y, p_-y) in ascending y.  Channels already in the flat
        layout (row 1 equal to row 0 reversed) keep their positional pair
        order, so flatten/canonicalize round-trips exactly.  A single column
        with equal rows in an odd alphabet is split into two half-columns.
        Pairs with zero total probability are dropped.

    Raises
    ------
    NotBisoError
        If no symmetric pairing of the output columns exists within
        PAIRING_TOL.
    TypeError
        If `channel` is neither a Channel nor a BisoChannel.
    """
    if isinstance(channel, BisoChannel):
        return channel
    channel = as_channel(channel)
    if channel._canonical is None:
        channel._canonical = _pair_columns(channel.rows)
    if isinstance(channel._canonical, str):
        raise NotBisoError(channel._canonical)
    return channel._canonical


def is_biso(channel):
    """True when the channel admits a symmetric output pairing."""
    try:
        canonicalize_biso(channel)
        return True
    except NotBisoError:
        return False


class DegradingMap:
    """An m x n row-stochastic post-processing map.

    Entries may drift outside [0, 1] by at most `tol` and row sums may miss 1
    by at most `tol`; anything worse is rejected.  Accepted entries are
    clamped to [0, 1] and rows renormalized to sum exactly 1.
    """

    def __init__(self, entries, tol=1e-9):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2:
            raise InvalidChannelError(f"degrading map must be 2-D, got shape {arr.shape}")
        clip = _needs_clip(arr, tol, f"degrading map entries drift beyond {tol:g}")
        worst = float(np.abs(arr.sum(axis=1) - 1.0).max(initial=0.0))
        if worst > tol:
            raise InvalidChannelError(f"degrading map row sums drift by {worst:g} > {tol:g}")
        arr = np.clip(arr, 0.0, 1.0) if clip else arr
        arr /= arr.sum(axis=1, keepdims=True)
        arr.setflags(write=False)
        self.entries = arr

    @property
    def shape(self):
        return self.entries.shape

    def __repr__(self):
        return f"DegradingMap({self.entries.tolist()!r})"


def compose(base, post):
    """Cascade a channel with a post-processing map: rows(result) = rows(base) @ post, within LOADED_TOL."""
    base = as_channel(base)
    mat = post.entries if isinstance(post, DegradingMap) else np.asarray(post, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != base.n_outputs:
        raise DimensionMismatchError(
            f"map has {mat.shape[0] if mat.ndim == 2 else '?'} rows, channel has "
            f"{base.n_outputs} outputs"
        )
    return Channel(base.rows @ mat, tol=LOADED_TOL)


def _check_unit(x, name):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ParameterOutOfRangeError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def make_bsc(p):
    """Binary symmetric channel with crossover probability p."""
    p = _check_unit(p, "crossover probability")
    return Channel._valid(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def make_bec(eps):
    """Binary erasure channel; the middle output is the erasure symbol."""
    eps = _check_unit(eps, "erasure probability")
    return Channel._valid(np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]]))


def make_z(q):
    """Z channel: input 0 is transmitted noiselessly, input 1 flips with probability q."""
    q = _check_unit(q, "flip probability")
    return Channel._valid(np.array([[1.0, 0.0], [q, 1.0 - q]]))


# ----------------------------------------------------------------------
# Text format
#
# General form:   line 1 = n, lines 2-3 = n probabilities each (rows X=0, X=1).
# BISO shorthand: one line "biso p_-l ... p_-1 p_1 ... p_l".
# '#' starts a comment; blank lines are ignored.
# ----------------------------------------------------------------------


def _content_lines(text):
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    return lines


def parse_channel(text):
    """Parse a channel from its text representation."""
    lines = _content_lines(text)
    if not lines:
        raise ChannelFormatError("empty channel description")
    first = lines[0].split()
    if first[0].lower() == "biso":
        if len(lines) != 1:
            raise ChannelFormatError("BISO shorthand must be a single line")
        try:
            flat = np.array([float(tok) for tok in first[1:]], dtype=float)
        except ValueError as exc:
            raise ChannelFormatError(f"bad probability token: {exc}") from None
        if flat.size < 2 or flat.size % 2 != 0:
            raise ChannelFormatError("BISO shorthand needs an even number of probabilities")
        return Channel([flat, flat[::-1]], tol=LOADED_TOL)
    if len(lines) != 3:
        raise ChannelFormatError(f"expected 3 content lines (n, row 0, row 1), got {len(lines)}")
    try:
        n = int(lines[0])
    except ValueError:
        raise ChannelFormatError(f"first line must be the output count, got {lines[0]!r}") from None
    if n < 1:
        raise ChannelFormatError(f"output count must be positive, got {n}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ChannelFormatError(f"line {lineno}: bad probability token: {exc}") from None
        if len(row) != n:
            raise ChannelFormatError(f"line {lineno}: expected {n} probabilities, got {len(row)}")
        rows.append(row)
    return Channel(rows, tol=LOADED_TOL)


def load_channel(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_channel(fh.read())


def format_channel(channel):
    """Render a channel in the general text format."""
    channel = as_channel(channel)
    lines = [str(channel.n_outputs)]
    for row in channel.rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
