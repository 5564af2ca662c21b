import inspect
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisochan.channels
from bisochan import (
    BisoChannel,
    Channel,
    ChannelFormatError,
    DegradingMap,
    DimensionMismatchError,
    InvalidChannelError,
    NotBisoError,
    ParameterOutOfRangeError,
    canonicalize_biso,
    coefficient_report,
    compose,
    format_channel,
    is_biso,
    load_channel,
    make_bec,
    make_bsc,
    make_z,
    match_extremal,
    parse_channel,
)
from bisochan.channels import LOADED_TOL, STRICT_TOL, _flat_layout
from bisochan.cli import main


def test_channel_takes_rows_and_tolerance_only():
    assert list(inspect.signature(Channel).parameters) == ["rows", "tol"]


def test_channel_rejects_bad_row_sums():
    with pytest.raises(InvalidChannelError):
        Channel([[0.5, 0.4], [0.5, 0.5]])


def test_channel_rejects_three_rows():
    # a channel file always parses to two rows; a matrix of three reaches the check only in code
    with pytest.raises(InvalidChannelError, match="needs 2 rows, got 3"):
        Channel(np.full((3, 2), 0.5))


def test_channel_rejects_negative_entries():
    with pytest.raises(InvalidChannelError):
        Channel([[1.1, -0.1], [0.5, 0.5]])


def test_channel_rows_are_immutable():
    ch = make_bsc(0.25)
    with pytest.raises(ValueError):
        ch.rows[0, 0] = 0.0


def test_biso_channel_requires_unit_total():
    with pytest.raises(InvalidChannelError):
        BisoChannel([(0.3, 0.3)])


def test_constructors():
    assert make_bsc(0.0).isclose(Channel([[1, 0], [0, 1]]))
    np.testing.assert_allclose(make_bec(1.0).rows, [[0, 1, 0], [0, 1, 0]])
    np.testing.assert_allclose(make_z(0.3).rows, [[1, 0], [0.3, 0.7]])
    for bad in (-0.1, 1.5):
        with pytest.raises(ParameterOutOfRangeError):
            make_bsc(bad)
        with pytest.raises(ParameterOutOfRangeError):
            make_bec(bad)
        with pytest.raises(ParameterOutOfRangeError):
            make_z(bad)


def test_constructed_channels_skip_validation_and_match_validated_ones(monkeypatch):
    # their rows are valid by construction; each Channel must equal the validated one to the byte
    rng = np.random.default_rng(35)
    bisos = []
    for i in range(300):
        raw = rng.uniform(0.0, 1.0, size=(1 + i % 16, 2)) ** 3
        raw[rng.uniform(size=raw.shape) < 0.3] = 0.0
        raw.flat[0] += 0.05
        bisos.append(BisoChannel(raw / raw.sum()))
    ps = np.concatenate((np.linspace(0.0, 1.0, 1001), rng.uniform(size=200)))
    old = [Channel(_flat_layout(b.pairs), tol=LOADED_TOL) for b in bisos]
    old += [Channel([[1.0 - p, p], [p, 1.0 - p]]) for p in ps]
    old += [Channel([[1.0 - p, p, 0.0], [0.0, p, 1.0 - p]]) for p in ps]
    old += [Channel([[1.0, 0.0], [p, 1.0 - p]]) for p in ps]

    def forbidden(*args, **kwargs):
        raise AssertionError("a constructed channel was validated")

    monkeypatch.setattr(bisochan.channels, "_as_prob_matrix", forbidden)
    new = [b.to_channel() for b in bisos] + [make(p) for make in (make_bsc, make_bec, make_z) for p in ps]
    for n, o in zip(new, old):
        assert n.rows.tobytes() == o.rows.tobytes() and n.rows.strides == o.rows.strides
        assert not n.rows.flags.writeable and n._canonical is None


class TestCanonicalize:
    def test_bsc_single_pair(self):
        b = canonicalize_biso(make_bsc(0.2))
        np.testing.assert_allclose(b.pairs, [[0.2, 0.8]])

    def test_flat_four_output_counterexample(self):
        ch = parse_channel("biso 0.01 0.48 0.32 0.19")
        b = canonicalize_biso(ch)
        np.testing.assert_allclose(b.pairs, [[0.32, 0.48], [0.19, 0.01]])

    def test_middle_column_split(self):
        ch = Channel([[0.5, 0.2, 0.3], [0.3, 0.2, 0.5]])
        b = canonicalize_biso(ch)
        got = sorted(map(tuple, np.sort(b.pairs, axis=1).tolist()))
        assert got == [(0.1, 0.1), (0.3, 0.5)]

    def test_permuted_columns_fall_back_to_matching(self):
        # same channel as the flat counterexample, columns shuffled out of
        # the flat layout
        flat = np.array([0.01, 0.48, 0.32, 0.19])
        perm = [1, 0, 2, 3]
        ch = Channel([flat[perm], flat[::-1][perm]])
        b = canonicalize_biso(ch)
        got = sorted(map(tuple, np.sort(b.pairs, axis=1).tolist()))
        assert got == [(0.01, 0.19), (0.32, 0.48)]

    def test_z_channel_is_not_biso(self):
        for q in (0.2, 0.5, 0.9):
            with pytest.raises(NotBisoError):
                canonicalize_biso(make_z(q))
        assert is_biso(make_z(0.0))

    def test_odd_alphabet_without_equal_middle_rejected(self):
        with pytest.raises(NotBisoError):
            canonicalize_biso(Channel([[0.5, 0.2, 0.3], [0.3, 0.1, 0.6]]))

    def test_zero_pairs_dropped(self):
        b = canonicalize_biso(Channel([[0.0, 0.7, 0.3, 0.0], [0.0, 0.3, 0.7, 0.0]]))
        assert b.num_pairs == 1
        np.testing.assert_allclose(sorted(b.pairs[0]), [0.3, 0.7])

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            raw = rng.uniform(0.0, 1.0, size=(rng.integers(1, 6), 2))
            b = BisoChannel(raw / raw.sum())
            again = canonicalize_biso(b.to_channel())
            assert again.isclose(b, atol=1e-14)

    def test_idempotent(self):
        ch = parse_channel("biso 0.1 0.2 0.3 0.4")
        once = canonicalize_biso(ch)
        twice = canonicalize_biso(once.to_channel())
        assert once.isclose(twice, atol=0.0)


def _backtracking_pairs(rows, tol=1e-9):
    """Reference BISO pairing by exhaustive backtracking (exponential time).

    Returns the pairs array the sort-and-pair must reproduce, or None when
    no symmetric pairing exists.
    """
    r0, r1 = np.asarray(rows, dtype=float)
    n = len(r0)
    if np.all(np.abs(r1 - r0[::-1]) <= tol):
        flat = r0
        if n % 2 == 1:
            mid = n // 2
            if abs(r0[mid] - r1[mid]) > tol:
                return None
            half = 0.5 * (r0[mid] + r1[mid]) / 2.0
            flat = np.concatenate([r0[:mid], [half, half], r0[mid + 1:]])
        l = len(flat) // 2
        pairs = [(flat[l + i], flat[l - 1 - i]) for i in range(l)]
    else:

        def solve(remaining):
            if not remaining:
                return []
            i, rest = remaining[0], remaining[1:]
            if abs(r0[i] - r1[i]) <= tol:
                sub = solve(rest)
                if sub is not None:
                    return [(i, i)] + sub
            for j in rest:
                if abs(r0[i] - r1[j]) <= tol and abs(r0[j] - r1[i]) <= tol:
                    sub = solve([k for k in rest if k != j])
                    if sub is not None:
                        return [(i, j)] + sub
            return None

        matching = solve(list(range(n)))
        if matching is None:
            return None
        pairs = []
        for i, j in matching:
            if i == j:
                v = 0.5 * (r0[i] + r1[i])
                pairs.append((v / 2.0, v / 2.0))
            else:
                pairs.append((r0[j], r0[i]))
        pairs.sort(key=lambda pr: (pr[0] + pr[1], pr[0]))
    kept = [pr for pr in pairs if pr[0] + pr[1] > 0.0]
    return np.array(kept) if kept else None


weights = st.integers(min_value=0, max_value=6)


@st.composite
def permuted_biso_rows(draw):
    """A BISO channel from integer weights, columns permuted.

    Integer weights over one total give exact duplicates and zero entries
    but no near-ties, so any valid pairing yields the same pairs array.
    """
    pairs = draw(st.lists(st.tuples(weights, weights), min_size=1, max_size=8))
    middle = draw(st.one_of(st.none(), weights))
    flat = [b for _, b in reversed(pairs)] + [a for a, _ in pairs]
    if middle is not None:
        flat.insert(len(flat) // 2, middle)
    row0 = np.array(flat, dtype=float)
    total = row0.sum()
    if total == 0:
        row0[0] = total = 1.0
    row0 /= total
    rows = np.stack([row0, row0[::-1]])
    perm = draw(st.permutations(range(len(flat))))
    return rows[:, list(perm)]


@st.composite
def general_rows(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(2):
        raw = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
        if raw.sum() == 0:
            raw[0] = 1.0
        rows.append(raw / raw.sum())
    return np.stack(rows)


class TestPairing:
    @settings(max_examples=300, deadline=None)
    @given(permuted_biso_rows())
    def test_matches_backtracking_on_permuted_biso(self, rows):
        expected = _backtracking_pairs(rows)
        assert expected is not None
        got = canonicalize_biso(Channel(rows)).pairs
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(general_rows())
    def test_same_decision_as_backtracking_on_general(self, rows):
        expected = _backtracking_pairs(rows)
        ch = Channel(rows)
        assert is_biso(ch) == (expected is not None)
        if expected is not None:
            assert np.array_equal(canonicalize_biso(ch).pairs, expected)

    def test_near_symmetric_non_biso_is_rejected_fast(self):
        # n - 2 equal-row columns pair with one another in every order; the
        # last two columns have no partner, so a backtracking search tries
        # every matching of the first n - 2 before it fails
        for n in (16, 32, 64):
            c = 0.75 / n
            rest = 1.0 - (n - 2) * c
            row0 = np.concatenate([np.full(n - 2, c), [0.6 * rest, 0.4 * rest]])
            row1 = np.concatenate([np.full(n - 2, c), [0.15 * rest, 0.85 * rest]])
            ch = Channel([row0, row1])
            start = time.perf_counter()
            with pytest.raises(NotBisoError):
                canonicalize_biso(ch)
            assert time.perf_counter() - start < 0.5, n


class TestMemo:
    @pytest.fixture
    def pairing_calls(self, monkeypatch):
        calls = []
        pair_columns = bisochan.channels._pair_columns

        def counted(rows):
            calls.append(rows)
            return pair_columns(rows)

        monkeypatch.setattr(bisochan.channels, "_pair_columns", counted)
        return calls

    def test_pairing_runs_once_per_channel(self, pairing_calls):
        flat = np.array([0.01, 0.48, 0.32, 0.19])
        perm = [1, 0, 2, 3]
        shuffled = Channel([flat[perm], flat[::-1][perm]])
        non_biso = Channel([[0.5, 0.2, 0.3], [0.3, 0.1, 0.6]])
        for ch, biso in ((shuffled, True), (non_biso, False)):
            before = len(pairing_calls)
            assert is_biso(ch) is biso
            coefficient_report(ch)
            for kind in ("eta_kl", "alpha", "capacity"):
                match_extremal(ch, kind)
            assert len(pairing_calls) - before == 1

    def test_analyze_pairs_once(self, pairing_calls, tmp_path, capsys):
        path = tmp_path / "shuffled.txt"
        path.write_text("4\n0.48 0.01 0.32 0.19\n0.32 0.19 0.48 0.01\n")
        assert main(["analyze", str(path)]) == 0
        assert "biso: yes" in capsys.readouterr().out
        assert len(pairing_calls) == 1


class TestCompose:
    def test_identity(self):
        ch = make_bec(0.37)
        assert compose(ch, DegradingMap(np.eye(3))).isclose(ch)

    def test_bec_collapse_to_bsc(self):
        # erasure symbol resolved uniformly lands on BSC(eps/2)
        eps = 0.4
        split = DegradingMap([[1, 0], [0.5, 0.5], [0, 1]])
        assert compose(make_bec(eps), split).isclose(make_bsc(eps / 2))

    def test_associative(self):
        rng = np.random.default_rng(11)
        base = Channel(rng.dirichlet(np.ones(4), size=2))
        a = rng.dirichlet(np.ones(3), size=4)
        b = rng.dirichlet(np.ones(2), size=3)
        left = compose(compose(base, a), b)
        right = compose(base, a @ b)
        np.testing.assert_allclose(left.rows, right.rows, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(make_bsc(0.1), DegradingMap(np.eye(3)))


class TestDegradingMap:
    def test_clamps_and_renormalizes_small_drift(self):
        m = DegradingMap([[1.0 + 5e-10, -5e-10], [0.5, 0.5]])
        np.testing.assert_allclose(m.entries, [[1, 0], [0.5, 0.5]])
        np.testing.assert_allclose(m.entries.sum(axis=1), 1.0)

    def test_rejects_large_drift(self):
        with pytest.raises(InvalidChannelError):
            DegradingMap([[0.6, 0.5], [0.5, 0.5]])


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_channel_rejects(self, bad):
        with pytest.raises(InvalidChannelError, match="entries must lie in"):
            Channel([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(InvalidChannelError, match="entries must lie in"):
            Channel([[0.5, 0.5], [0.5, bad]], tol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_biso_channel_rejects(self, bad):
        with pytest.raises(InvalidChannelError, match="pair entries must lie in"):
            BisoChannel([(bad, 0.5), (0.25, 0.25)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_degrading_map_rejects(self, bad):
        with pytest.raises(InvalidChannelError, match="degrading map entries drift"):
            DegradingMap([[1.0, 0.0], [bad, 0.5]])

    def test_parsed_files_reject_nan(self):
        for text in ("2\nnan 1\n0.5 0.5\n", "biso nan 0.5\n", "2\n0.5 0.5\n0.5 NaN\n"):
            with pytest.raises(InvalidChannelError):
                parse_channel(text)


# ----------------------------------------------------------------------
# One-pass validation against the validators it replaced
# ----------------------------------------------------------------------


def _old_prob_matrix(rows, tol, what="channel"):
    """`channels._as_prob_matrix` as it was, with one numpy pass per check."""
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2:
        raise InvalidChannelError(f"{what} must be a 2-D matrix, got shape {arr.shape}")
    if np.any(arr < -tol) or np.any(arr > 1.0 + tol):
        raise InvalidChannelError(f"{what} entries must lie in [0, 1] within {tol:g}")
    sums = arr.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > tol)[0]
    if bad.size:
        raise InvalidChannelError(
            f"{what} row {bad[0]} sums to {float(sums[bad[0]])!r}, not 1 within {tol:g}"
        )
    return np.clip(arr, 0.0, 1.0)


def _old_biso_pairs(pairs, tol):
    """The pair validation of `BisoChannel.__init__` as it was."""
    arr = np.array(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidChannelError(f"pairs must have shape (l, 2), got {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidChannelError("a BISO channel needs at least one pair")
    if np.any(arr < -tol) or np.any(arr > 1.0 + tol):
        raise InvalidChannelError(f"pair entries must lie in [0, 1] within {tol:g}")
    total = arr.sum()
    if abs(total - 1.0) > tol:
        raise InvalidChannelError(f"pair probabilities sum to {float(total)!r}, not 1 within {tol:g}")
    return np.clip(arr, 0.0, 1.0)


def _old_degrading_entries(entries, tol):
    """The validation of `DegradingMap.__init__` as it was."""
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2:
        raise InvalidChannelError(f"degrading map must be 2-D, got shape {arr.shape}")
    if np.any(arr < -tol) or np.any(arr > 1.0 + tol):
        raise InvalidChannelError(f"degrading map entries drift beyond {tol:g}")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise InvalidChannelError(f"degrading map row sums drift by {worst:g} > {tol:g}")
    arr = np.clip(arr, 0.0, 1.0)
    arr /= arr.sum(axis=1, keepdims=True)
    return arr


def _outcome(fn, *args):
    """The array `fn` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except InvalidChannelError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(new, old):
    if isinstance(old, tuple):
        assert new == old
    else:
        # same shape and the same bits, signs of zeros included
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def _validation_corpus(seed, rows=2, pairs=False):
    """Seeded matrices the validators accept or reject: stochastic rows of
    1-12 entries with zeros, entries drifting within and beyond the tolerance
    on either side of [0, 1], negative zeros, bad row sums, and the wrong
    number of dimensions."""
    rng = np.random.default_rng(seed)
    yield np.zeros((rows, 0))
    yield [0.5, 0.5]
    yield np.full((rows, 2, 1), 0.5)
    for i in range(600):
        n = 1 + i % 12
        shape = (1 + i % 16, 2) if pairs else (rows, n)
        arr = rng.uniform(0.0, 1.0, size=shape) ** 3
        arr[rng.uniform(size=shape) < 0.3] = 0.0
        arr[:, 0] += 0.05  # no empty row
        arr /= arr.sum() if pairs else arr.sum(axis=1, keepdims=True)
        kind = i % 6
        if kind == 1:  # drift within the tolerance, some outside [0, 1]
            arr = arr + rng.choice([-1.0, 0.0, 1.0], size=shape) * rng.uniform(0.0, 4e-10, size=shape)
        elif kind == 2:  # one entry beyond the tolerance, below 0 or above 1
            arr.flat[rng.integers(arr.size)] = rng.choice([-1e-6, 1.0 + 1e-6, -0.3, 1.7])
        elif kind == 3:  # a bad row sum
            arr.flat[rng.integers(arr.size)] *= 0.9
        elif kind == 4:  # negative zeros
            arr = np.where(arr == 0.0, -0.0, arr)
        yield arr


class TestValidationMatchesOldValidators:
    @pytest.mark.parametrize("tol", [STRICT_TOL, LOADED_TOL])
    def test_prob_matrix(self, tol):
        outcomes = [
            (_outcome(bisochan.channels._as_prob_matrix, arr, tol), _outcome(_old_prob_matrix, arr, tol))
            for arr in _validation_corpus(31)
        ]
        for new, old in outcomes:
            _assert_same_outcome(new, old)
        messages = {old[1].split(" ", 2)[1] for _, old in outcomes if isinstance(old, tuple)}
        assert messages == {"must", "entries", "row"}  # every kind of rejection is met

    @pytest.mark.parametrize("tol", [STRICT_TOL, LOADED_TOL])
    def test_biso_channel(self, tol):
        def new(arr, tol):
            return BisoChannel(arr, tol).pairs

        for arr in _validation_corpus(32, pairs=True):
            _assert_same_outcome(_outcome(new, arr, tol), _outcome(_old_biso_pairs, arr, tol))
        for arr in ([], np.zeros((0, 2)), [0.5, 0.5]):
            _assert_same_outcome(_outcome(new, arr, tol), _outcome(_old_biso_pairs, arr, tol))

    def test_degrading_map(self):
        def new(arr, tol):
            return DegradingMap(arr, tol).entries

        for rows in (2, 5):
            for arr in _validation_corpus(33 + rows, rows=rows):
                _assert_same_outcome(_outcome(new, arr, 1e-9), _outcome(_old_degrading_entries, arr, 1e-9))

    def test_flat_rows_match_the_flat_channel(self):
        rng = np.random.default_rng(34)
        for i in range(200):
            raw = rng.uniform(0.0, 1.0, size=(1 + i % 32, 2)) ** 3
            raw[rng.uniform(size=raw.shape) < 0.3] = 0.0
            raw.flat[0] += 0.05
            b = BisoChannel(raw / raw.sum())
            flat = np.concatenate([b.pairs[::-1, 1], b.pairs[:, 0]])  # the layout of the module docstring
            assert b.to_channel().rows.tobytes() == np.array([flat, flat[::-1]]).tobytes()


class TestUncheckedConstruction:
    def test_valid_channels_are_the_validated_ones(self):
        # `_valid` keeps a constructed array unchecked and uncopied: read-only, the validated
        # construction's bits, and the memos of `to_channel` and `canonicalize_biso` as before
        rng = np.random.default_rng(36)
        for i in range(200):
            raw = rng.uniform(0.0, 1.0, size=(1 + i % 16, 2)) ** 3
            raw[rng.uniform(size=raw.shape) < 0.3] = 0.0
            raw.flat[0] += 0.05
            pairs = raw / raw.sum()
            rows = rng.uniform(0.0, 1.0, size=(2, 1 + i % 9)) ** 3 + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            for cls, arr, field in ((BisoChannel, pairs, "pairs"), (Channel, rows, "rows")):
                fresh = arr.copy()
                unchecked, checked = cls._valid(fresh), cls(arr)
                assert getattr(unchecked, field) is fresh and not fresh.flags.writeable
                assert fresh.tobytes() == getattr(checked, field).tobytes()
            b, ch = BisoChannel._valid(pairs.copy()), Channel._valid(rows.copy())
            assert b.to_channel() is b.to_channel()
            assert b.to_channel().rows.tobytes() == BisoChannel(pairs).to_channel().rows.tobytes()
            assert canonicalize_biso(b.to_channel()) is canonicalize_biso(b.to_channel())
            assert is_biso(ch) == is_biso(Channel(rows)) and ch._canonical is not None


class TestTextFormat:
    def test_general_roundtrip(self, tmp_path):
        ch = make_bec(0.3)
        path = tmp_path / "bec.txt"
        path.write_text(format_channel(ch))
        again = load_channel(path)
        assert again.isclose(ch)

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # a file saved as "UTF-8 with BOM" reads as the same file without the mark
        for name, text in (("general", "3\n0.7 0.3 0.0\n0.0 0.3 0.7\n"), ("biso", "biso 0.01 0.48 0.32 0.19\n")):
            plain, marked = tmp_path / f"{name}.txt", tmp_path / f"{name}_bom.txt"
            plain.write_text(text, encoding="utf-8")
            marked.write_text("\ufeff" + text, encoding="utf-8")
            assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
            a, b = load_channel(plain).rows, load_channel(marked).rows
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            outs = []
            for path in (plain, marked):
                assert main(["analyze", str(path)]) == 0
                outs.append([line for line in capsys.readouterr().out.splitlines() if not line.startswith("channel:")])
            assert outs[0] == outs[1] and "biso: yes" in outs[0]

    def test_comments_and_blank_lines(self):
        text = "# a channel\n2\n\n0.9 0.1  # row for X=0\n0.1 0.9\n"
        assert parse_channel(text).isclose(make_bsc(0.1))

    def test_biso_shorthand_roundtrip(self):
        b = BisoChannel([(0.32, 0.48), (0.19, 0.01)])
        text = "biso " + " ".join(repr(float(v)) for v in b.to_channel().rows[0])
        again = canonicalize_biso(parse_channel(text))
        assert again.isclose(b, atol=1e-15)

    def test_parse_errors(self):
        for text in ("", "x\n0.5 0.5\n0.5 0.5", "2\n0.5\n0.5 0.5", "biso 0.5 0.25 0.25"):
            with pytest.raises(ChannelFormatError):
                parse_channel(text)

    def test_invalid_stochasticity_reports_row(self):
        with pytest.raises(InvalidChannelError, match="row 1"):
            parse_channel("2\n0.5 0.5\n0.6 0.5")

    def test_format_channel_12_digit_roundtrip(self):
        ch = Channel([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        assert parse_channel(format_channel(ch)).isclose(ch, atol=0.0)
