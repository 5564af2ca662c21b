import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bisochan
from bisochan import (
    BisoChannel,
    as_channel,
    canonicalize_biso,
    compose,
    fi_curve_bounds,
    less_noisy_criterion,
    load_channel,
    match_extremal,
    mutual_information_grid,
)
from bisochan import applications, checks, cli, orders
from bisochan.channels import format_channel, make_bsc, make_z
from bisochan.cli import _csv_rows, _fmt, main

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.fixture
def eta_file_a(tmp_path):
    path = tmp_path / "eta_a.txt"
    path.write_text("biso 0.01 0.48 0.32 0.19\n")
    return str(path)


@pytest.fixture
def eta_file_b(tmp_path):
    t = 17 / 997
    path = tmp_path / "eta_b.txt"
    path.write_text(f"biso {0.3 - t!r} {t!r} 0.0 0.7\n")
    return str(path)


@pytest.fixture
def alpha_file_f(tmp_path):
    path = tmp_path / "alpha_f.txt"
    path.write_text("biso 0.415 0.345 0.05 0.19\n")
    return str(path)


@pytest.fixture
def loose_file(tmp_path):
    # rows that sum to 1 - 5e-10, within the 1e-9 a file loads at
    path = tmp_path / "loose.txt"
    path.write_text("2\n0.6 0.3999999995\n0.3999999995 0.6\n")
    return str(path)


@pytest.fixture
def alpha_file_g(tmp_path):
    path = tmp_path / "alpha_g.txt"
    path.write_text("biso 0.245 0.515 0.221 0.019\n")
    return str(path)


@pytest.fixture
def subnormal_files(tmp_path):
    """A BSC(1/2) and a copy whose second pair is (5e-324, 0), the smallest subnormal."""
    half, sub = tmp_path / "half.txt", tmp_path / "sub.txt"
    half.write_text("biso 0.5 0.5\n")
    sub.write_text("biso 0.0 0.5 0.5 5e-324\n")
    return str(half), str(sub)


@pytest.fixture
def z_file(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text(format_channel(make_z(0.3)))
    return str(path)


class TestAnalyze:
    def test_biso_counterexample_values(self, eta_file_a, capsys):
        assert main(["analyze", eta_file_a]) == 0
        out = capsys.readouterr().out
        assert "biso: yes" in out
        assert "eta_kl: 0.194" in out
        assert "doeblin_alpha: 0.66" in out

    def test_bsc_file(self, tmp_path, capsys):
        path = tmp_path / "bsc.txt"
        path.write_text(format_channel(make_bsc(0.1)))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eta_kl: 0.64" in out
        assert "doeblin_alpha: 0.2" in out
        assert "capacity_bits: 0.531004406411" in out

    def test_noiseless_non_biso_exits_0(self, tmp_path, capsys):
        path = tmp_path / "noiseless.txt"
        path.write_text("3\n1 0 0\n0 0.5 0.5\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "match[eta_kl]: value=1 bsc_p=0 bec_eps=0" in out
        assert "match[capacity]: value=1 bsc_p=0 bec_eps=0" in out

    def test_row_sums_above_one_exit_0(self, tmp_path, capsys):
        path = tmp_path / "loose.txt"
        path.write_text("3\n0.3 0.7000000001 0\n0 0 1\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eta_kl: 1\n" in out and "capacity_bits: 1\n" in out

    def test_infinite_newton_step_bisects_without_a_warning(self, tmp_path, capsys):
        # g and g' both infinite made Newton's step inf / inf, a RuntimeWarning on stderr
        path = tmp_path / "newton.txt"
        path.write_text(
            "6\n0.22836264239382495 6.0881055877582084e-18 0.26200542905814606 0.5096319285480291 5e-324 0.0\n"
            "0.2754557502490234 0.4080798770074163 0.010772055371451612 0.12283446683149404 0.0 0.1828578505406146\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "capacity_bits: 0.49580429685\n" in captured.out

    @pytest.mark.parametrize(
        "text", ["biso 0.5000000001 0.5\n", "2\n0.5 0.5000000001\n0.5 0.5000000001\n"]
    )
    def test_useless_channel_with_mass_above_one_exit_0(self, tmp_path, capsys, text):
        path = tmp_path / "useless.txt"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "match[alpha]: value=1 bsc_p=0.5 bec_eps=1" in out
        assert "match[capacity]: value=0 bsc_p=0.5 bec_eps=1" in out

    def test_subnormal_entry_analyzes_without_warnings(self, tmp_path, capsys):
        # the end slope of eta_KL and the slope of I overflow at the 1e-310 entry: +-inf is
        # what they read there, with no RuntimeWarning
        path = tmp_path / "tiny.txt"
        path.write_text("3\n0.5 0.5 0.0\n1e-310 0.3 0.7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [
            "outputs: 3",
            "biso: no",
            "eta_kl: 0.7",
            "eta_tv: 0.7",
            "doeblin_alpha: 0.3",
            "alpha_max: 1.7",
            "maximal_leakage_nats: 0.530628251062",
            "maximal_leakage_bits: 0.765534746363",
            "capacity_bits: 0.619236480207",
            "match[eta_kl]: value=0.7 bsc_p=0.081669986733 bec_eps=0.3",
            "match[alpha]: value=0.3 bsc_p=0.15 bec_eps=0.3",
            "match[capacity]: value=0.619236480207 bsc_p=0.0740238417489 bec_eps=0.380763519793",
        ]
        assert captured.err == ""

    def test_z_channel_capacity(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("2\n1 0\n0.5 0.5\n")
        assert main(["analyze", str(path)]) == 0
        assert "capacity_bits: 0.321928094887" in capsys.readouterr().out

    def test_each_optimizer_runs_once(self, z_file, monkeypatch, capsys):
        from bisochan import coefficients

        calls = []
        for name in ("eta_kl_binary_argmax", "capacity_binary_argmax"):
            fn = getattr(coefficients, name)
            monkeypatch.setattr(
                coefficients, name, lambda ch, fn=fn, name=name: calls.append(name) or fn(ch)
            )
        assert main(["analyze", z_file]) == 0
        assert sorted(calls) == ["capacity_binary_argmax", "eta_kl_binary_argmax"]

    def test_match_lines_agree_with_match_extremal(self, z_file, eta_file_a, capsys):
        for path in (z_file, eta_file_a):
            assert main(["analyze", path]) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("match[")]
            ch = load_channel(path)
            expected = []
            for kind in ("eta_kl", "alpha", "capacity"):
                m = match_extremal(ch, kind)
                expected.append(
                    f"match[{kind}]: value={_fmt(m.channel_class.value)} "
                    f"bsc_p={_fmt(m.bsc_p)} bec_eps={_fmt(m.bec_eps)}"
                )
            assert lines == expected

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a channel\n")
        assert main(["analyze", str(path)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["analyze", "/nonexistent/channel.txt"]) == 2

    def test_invalid_stochasticity_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0.6 0.6\n0.5 0.5\n")
        assert main(["analyze", str(path)]) == 3
        assert "row 0" in capsys.readouterr().err

    def test_row_sum_message_prints_a_plain_float(self, tmp_path, capsys):
        # the sum prints as a Python float, as under numpy 1.x, not as np.float64(1.2)
        path = tmp_path / "bad.txt"
        path.write_text("2\n0.6 0.6\n0.5 0.5\n")
        assert main(["analyze", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid channel: channel row 0 sums to 1.2, not 1 within 1e-09\n"

    @pytest.mark.parametrize("text, message", [
        ("biso 0.5 0.5\nbiso 0.5 0.5\n", "BISO shorthand must be a single line"),
        ("biso 0.5 half\n", "bad probability token: could not convert string to float: 'half'"),
        ("0\n1\n1\n", "output count must be positive, got 0"),
        ("2\n0.5 half\n0.5 0.5\n", "line 2: bad probability token: could not convert string to float: 'half'"),
        # three probability rows are four content lines: the parser stops them before `Channel`
        ("2\n0.5 0.5\n0.5 0.5\n0.5 0.5\n", "expected 3 content lines (n, row 0, row 1), got 4"),
    ], ids=["two-line-shorthand", "shorthand-token", "zero-outputs", "row-token", "three-rows"])
    def test_each_format_error_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {path}: ")


NAN_TEXTS = ("2\nnan 1\n0.5 0.5\n", "biso nan 0.5\n", "2\n0.5 0.5\n0.5 nan\n")


@pytest.mark.parametrize("text", NAN_TEXTS)
@pytest.mark.parametrize(
    "argv",
    (["analyze", "{nan}"], ["compare", "{nan}", "{ok}"], ["compare", "{ok}", "{nan}"],
     ["sweep", "--quantity", "mi-diff", "{nan}", "{ok}"]),
)
def test_nan_entries_exit_3_with_nothing_on_stdout(tmp_path, capsys, text, argv):
    files = {"{nan}": tmp_path / "nan.txt", "{ok}": tmp_path / "ok.txt"}
    files["{nan}"].write_text(text)
    files["{ok}"].write_text("2\n0.9 0.1\n0.1 0.9\n")
    assert main([str(files.get(a, a)) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid channel: ")


class TestCompare:
    def test_eta_pair_fails_less_noisy_both_ways(self, eta_file_a, eta_file_b, capsys):
        assert main(["compare", eta_file_a, eta_file_b, "--order", "ln"]) == 0
        out = capsys.readouterr().out
        assert out.count("fails") == 2
        assert "violation at parameter" in out

    def test_alpha_pair_fails_degradability_with_guessing_witness(
        self, alpha_file_f, alpha_file_g, capsys
    ):
        assert main(["compare", alpha_file_f, alpha_file_g, "--order", "deg"]) == 0
        out = capsys.readouterr().out
        assert out.count("fails") == 2
        assert out.count("guessing-probability refutation") == 2

    def test_subnormal_column_decides_less_noisy_without_warnings(self, subnormal_files, capsys):
        # 1 / u overflowed in the DC bound of a cell next to q = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", *subnormal_files, "--order", "ln"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "less-noisy A>=B: fails",
            "  violation at parameter 2.71615461299e-315 with value -1.81898940318e-09",
            "less-noisy B>=A: holds",
        ]
        assert captured.err == ""

    def test_non_biso_pair_fails_degradability_with_guessing_witness(
        self, z_file, tmp_path, capsys
    ):
        bsc = tmp_path / "bsc.txt"
        bsc.write_text(format_channel(make_bsc(0.1)))
        assert main(["compare", z_file, str(bsc), "--order", "deg"]) == 0
        out = capsys.readouterr().out
        assert out.count("fails") == 2
        assert out.count("guessing-probability refutation") == 2

    def test_degraded_pair_shows_witness_matrix(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("biso 0.05 0.25 0.3 0.4\n")
        degraded = tmp_path / "degraded.txt"
        degraded.write_text(format_channel(make_bsc(0.3)))
        assert main(["compare", str(base), str(degraded), "--order", "deg"]) == 0
        out = capsys.readouterr().out
        assert "degradable A->B: holds" in out
        assert "degrading map:" in out

    def test_subnormal_breakpoints_build_a_map_that_recomposes(self, tmp_path, capsys):
        # the first moments of P's layout step by about 4e-311 there, which overflowed the
        # slope of the map's interpolation: "holds" (the exact peak is 1.7e-16) ended in a
        # NumericalInstabilityError on a map drifting by 0.62
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("3\n1.0 0.0 1.0743883192962e-310\n7.7870647514084e-311 0.2752094739349695 0.7247905260650305\n")
        q.write_text("3\n0.747485957266623 7.83381777639e-311 0.25251404273337696\n"
                     "6.4835758974083e-311 0.618648796094175 0.3813512039058251\n")
        assert main(["compare", str(p), str(q), "--order", "deg"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("degradable A->B: holds\n  degrading map:\n") and captured.err == ""
        a, b = load_channel(str(p)), load_channel(str(q))
        dmap = bisochan.is_degraded(a, b).witness.entries
        assert np.all(dmap >= 0.0) and np.abs(dmap.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(a.rows @ dmap - b.rows).max() <= 1e-8

    def test_ln_requires_biso_exit_4(self, z_file, eta_file_a, capsys):
        # the library's NotBisoError is the gate: nothing reaches stdout
        assert main(["compare", z_file, eta_file_a, "--order", "ln"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("precondition violated:")

    def test_order_all_skips_less_noisy_for_a_non_biso_pair(self, z_file, capsys):
        assert main(["compare", z_file, str(DEMO_DATA / "eta_pair_a.txt"), "--order", "all"]) == 0
        captured = capsys.readouterr()
        assert "\nless-noisy: skipped (non-BISO pair)\nmore-capable A>=B: " in captured.out
        assert captured.err == ""

    def test_grid_option_is_rejected(self, eta_file_a, eta_file_b, capsys):
        # the certified more-capable decision has no grid to set
        for order in ("all", "mc", "ln"):
            with pytest.raises(SystemExit) as exc:
                main(["compare", eta_file_a, eta_file_b, "--order", order, "--grid", "5"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --grid 5" in captured.err

    def test_grid_leaves_less_noisy_unchanged(self, eta_file_a, eta_file_b, monkeypatch, capsys):
        # the more-capable sampling grid is internal now; a coarse one must not reach less-noisy
        outs = []
        for coarse in (False, True):
            if coarse:
                monkeypatch.setattr("bisochan.orders._MC_GRID", np.arange(7) / 6.0)
            assert main(["compare", eta_file_a, eta_file_b, "--order", "ln"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].count("less-noisy") == 2

    def test_degenerate_grid_exit_4(self, eta_file_a, eta_file_b, capsys):
        # a grid below 2 exited 4 while compare took --grid; the option is gone, so
        # argparse refuses it (exit 2) before any channel is read or decided
        for order in ("all", "mc"):
            with pytest.raises(SystemExit) as exc:
                main(["compare", eta_file_a, eta_file_b, "--order", order, "--grid", "1"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "precondition violated" not in captured.err
            assert "unrecognized arguments: --grid 1" in captured.err

    def test_more_capable_violation_below_the_first_grid_point(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("2\n0.9 0.1\n0.1 0.9\n")
        b.write_text("2\n0.2 0.8\n0 1\n")
        assert main(["compare", str(a), str(b), "--order", "mc"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "more-capable A>=B: fails"
        x = float(lines[1].split()[3])
        assert 0.0 < x < 1e-3 and float(lines[1].split()[-1]) < -1e-9

    def test_large_self_comparison_holds_less_noisy(self, tmp_path, capsys):
        # the 256-output pair's root probes ended in a LinAlgError traceback (exit 1)
        a = np.random.default_rng(7001).uniform(size=(128, 2))
        path = tmp_path / "big.txt"
        path.write_text(format_channel(BisoChannel(a / a.sum()).to_channel()))
        assert main(["compare", str(path), str(path), "--order", "ln"]) == 0
        assert capsys.readouterr().out == "less-noisy A>=B: holds\nless-noisy B>=A: holds\n"

    def test_undetermined_prints_the_uncertified_cell(self, tmp_path, capsys):
        # a 128-pair channel against itself with one pair split at t and renormalized:
        # the search stops at its cell budget, and the witness is a cell, not a violation,
        # with a lower bound of rho_W - rho_V + 1e-9 q (1 - q) there
        rng = np.random.default_rng(7001)
        a = rng.uniform(size=(128, 2)) ** 5
        w = BisoChannel(a / a.sum())
        i, t = int(rng.integers(128)), float(rng.uniform(0.1, 0.9))
        split = np.vstack((np.delete(w.pairs, i, axis=0), w.pairs[i] * t, w.pairs[i] * (1.0 - t)))
        paths = [tmp_path / "w.txt", tmp_path / "split.txt"]
        for path, ch in zip(paths, (w, BisoChannel(split / split.sum()))):
            path.write_text("biso " + " ".join(repr(float(v)) for v in ch.to_channel().rows[0]) + "\n")
        assert main(["compare", *map(str, paths), "--order", "ln"]) == 0
        cell = "  uncertified cell at parameter 0 with lower bound -0.00689059718401"
        assert capsys.readouterr().out.splitlines() == [
            "less-noisy A>=B: undetermined", cell, "less-noisy B>=A: undetermined", cell,
        ]

    def test_undetermined_toward_zero_prints_the_cell_at_zero(self, tmp_path, capsys):
        # net noiseless mass -0.1, but no q of the ladder toward 0 gives a double below -1e-9: the
        # cell (0, 5e-324] is undetermined, with a lower bound of -inf
        paths = [tmp_path / "w.txt", tmp_path / "v.txt"]
        paths[0].write_text("biso 0.1 0.0 5e-324 0.5 0.3 0.1\n")
        paths[1].write_text("biso 0.3 0.0 0.4 0.3\n")
        assert main(["compare", *map(str, paths), "--order", "ln"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "less-noisy A>=B: undetermined",
            "  uncertified cell at parameter 0 with lower bound -inf",
            "less-noisy B>=A: fails",
            "  violation at parameter 0.001 with value -400.4004004",
        ]

    def test_symmetric_more_capable_witnesses_lie_in_the_lower_half(self, capsys):
        # A>=B was witnessed at 0.9999921875 when the whole bias interval was searched
        a, b = (str(DEMO_DATA / name) for name in ("eta_pair_a.txt", "eta_pair_b.txt"))
        assert main(["compare", a, b, "--order", "mc"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0::2] == ["more-capable A>=B: fails", "more-capable B>=A: fails"]
        xs = [float(line.split()[3]) for line in lines[1::2]]
        assert len(xs) == 2 and all(0.0 < x <= 0.5 for x in xs)
        assert xs[0] == 7.8125e-06  # 1 - 0.9999921875 at the printed precision

    def test_order_all_runs_everything(self, eta_file_a, eta_file_b, capsys):
        assert main(["compare", eta_file_a, eta_file_b]) == 0
        out = capsys.readouterr().out
        assert "degradable A->B" in out
        assert "less-noisy A>=B" in out
        assert "more-capable A>=B" in out

    def test_rows_within_the_load_tolerance_compare_exit_0(self, loose_file, capsys):
        # the degrading map's check keeps to the slack the file was loaded at
        assert main(["compare", loose_file, loose_file, "--order", "all"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [line for line in captured.out.splitlines() if line.endswith(":")] == ["  degrading map:"] * 2
        assert all(line.endswith(": holds") for line in captured.out.splitlines() if ">" in line)

    def test_rows_short_of_one_degrade_within_their_slack(self, loose_file, tmp_path, capsys):
        # the rows of A sum to 1 - 5e-10, and B's to 1: G_B - G_A peaks at 5.0000004137e-10 at
        # x = 0 from the sums alone, which refuted a degradation onto BSC(1/2)
        useless = tmp_path / "useless.txt"
        useless.write_text("2\n0.5 0.5\n0.5 0.5\n")
        assert main(["compare", loose_file, str(useless), "--order", "deg"]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "degradable A->B: holds", "  degrading map:", *["  0.50000000025 0.49999999975"] * 2,
        ]

    def test_drifting_degrading_map_exits_5(self, tmp_path, monkeypatch, capsys):
        # a map that does not re-compose A onto B raises NumericalInstabilityError: one line on
        # stderr and exit 5, not a traceback and the exit 1 of a failed check
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(format_channel(make_bsc(0.1)))
        b.write_text(format_channel(make_bsc(0.2)))
        monkeypatch.setattr(orders, "_degrading_map", lambda p_ch, q_ch: np.eye(2))
        assert main(["compare", str(a), str(b), "--order", "deg"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical instability: ") and captured.err.count("\n") == 1

    def test_holding_less_noisy_settles_more_capable_under_order_all(self, tmp_path, monkeypatch, capsys):
        # BSC(0.1) is less noisy than BSC(0.3), and so more capable: --order all searches only
        # B>=A, which fails, and prints what --order mc prints.  A file whose r1 is r0 reversed
        # within PAIRING_TOL but not exactly is decided less noisy on its canonical flat rows,
        # which are not its own: both of its more-capable orders are searched
        calls = []
        search = orders.is_more_capable
        monkeypatch.setattr(cli, "is_more_capable", lambda p, q: calls.append(1) or search(p, q))
        r0 = [0.1, 0.2, 0.3, 0.4]
        near = tmp_path / "near.txt"
        near.write_text(f"4\n{' '.join(map(repr, r0))}\n{0.4 + 3e-10!r} {0.3 - 3e-10!r} 0.2 0.1\n")
        exact, bsc, noisy = (tmp_path / f"{name}.txt" for name in ("exact", "bsc", "noisy"))
        exact.write_text(f"4\n{' '.join(map(repr, r0))}\n{' '.join(map(repr, r0[::-1]))}\n")
        bsc.write_text(format_channel(make_bsc(0.1)))
        noisy.write_text(format_channel(make_bsc(0.3)))
        assert cli._flat_columns_are_own(load_channel(str(exact)))
        assert bisochan.is_biso(load_channel(str(near))) and not cli._flat_columns_are_own(load_channel(str(near)))
        for a, searched in ((bsc, 1), (exact, 1), (near, 2)):
            calls.clear()
            assert main(["compare", str(a), str(noisy), "--order", "all"]) == 0
            out = capsys.readouterr().out
            assert "less-noisy A>=B: holds\nless-noisy B>=A: fails\n" in out and len(calls) == searched, a
            assert main(["compare", str(a), str(noisy), "--order", "mc"]) == 0
            mc = capsys.readouterr().out
            assert mc.startswith("more-capable A>=B: holds\nmore-capable B>=A: fails\n")
            assert out.endswith(mc) and len(calls) == searched + 2


_HOSTILE_VALUES = (0.0, 5e-324, 1e-310, 1e-300, 1e-17)


def _hostile_file(seed, outputs=16, values=_HOSTILE_VALUES):
    """A channel file of 1 to `outputs` outputs, general, BISO or BISO with shuffled columns, 40%
    of whose entries are `values` (0, 5e-324, 1e-310, 1e-300 or 1e-17) before its rows are
    renormalized."""
    rng = np.random.default_rng(seed)
    n, kind = int(rng.integers(1, outputs + 1)), int(rng.integers(3))
    rows = rng.uniform(0.01, 1.0, size=(2 if kind == 0 else 1, n))
    hostile = rng.random(rows.shape) < 0.4
    rows[hostile] = rng.choice(values, size=int(hostile.sum()))
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows = rows / rows.sum(axis=1, keepdims=True)
    if kind:
        rows = np.vstack((rows, rows[:, ::-1]))[:, rng.permutation(n) if kind == 2 else slice(None)]
    return f"{n}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist())


def _more_capable_verdicts(out):
    """compare's more-capable verdicts, A>=B then B>=A, each a list of its lines."""
    verdicts = []
    for line in out.splitlines():
        if line.startswith("more-capable"):
            verdicts.append([line])
        elif verdicts:
            verdicts[-1].append(line)
    return verdicts


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@example(7, 7)
def test_hostile_files_compare_cleanly_and_imply_what_the_search_decides(seed_a, seed_b):
    # --order all prints more-capable "holds" for a holding less-noisy verdict without a search;
    # wherever the search decides, it prints what --order mc prints, and it may settle an
    # undetermined search as holds.  No warning, nothing on stderr, exit 0
    verdicts = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{name}.txt") for name in "ab"]
        for path, seed in zip(paths, (seed_a, seed_b)):
            Path(path).write_text(_hostile_file(seed))
        for order in ("all", "mc"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["compare", *paths, "--order", order]) == 0
            assert err.getvalue() == ""
            verdicts[order] = _more_capable_verdicts(out.getvalue())
    assert len(verdicts["all"]) == len(verdicts["mc"]) == 2
    for implied, searched in zip(verdicts["all"], verdicts["mc"]):
        if searched[0].endswith(": undetermined"):
            assert implied in (searched, [searched[0].replace("undetermined", "holds")])
        else:
            assert implied == searched


_EXIT_CODES = (0, 1, 2, 3, 4, 5, 141)  # the README's list


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@example(1008, 1100)
def test_hostile_files_analyze_match_and_sweep_cleanly(seed_a, seed_b):
    # analyze, extremal and sweep on files of 1-32 outputs with 40% hostile entries: a listed exit
    # code, no exception out of main, no nan on stdout and each call under a second; on exit 0
    # nothing on stderr and no warning.  Files 1008 and 1100 made Newton's step inf / inf
    with tempfile.TemporaryDirectory() as tmp:
        a, b = (os.path.join(tmp, f"{name}.txt") for name in "ab")
        for path, seed in ((a, seed_a), (b, seed_b)):
            Path(path).write_text(_hostile_file(seed, 32, _HOSTILE_VALUES + (1e-200,)))
        runs = [["analyze", a]]
        runs += [["extremal", a, "--kind", k, "--out", os.path.join(tmp, k)] for k in ("alpha", "eta", "capacity")]
        runs += [["sweep", "--quantity", q, a, b, "--grid", "50"] for q in ("criterion", "mi-diff")]
        runs += [["sweep", "--quantity", "fi-bounds", a, "--grid", "50"]]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    start = time.perf_counter()
                    code = main(argv)
                    took = time.perf_counter() - start
            assert code in _EXIT_CODES, argv
            assert "nan" not in out.getvalue().replace(tmp, "").lower(), argv
            assert took < 1.0, (argv, took)
            if code == 0:
                assert err.getvalue() == "" and not caught, (argv, err.getvalue(), [str(w.message) for w in caught])


class TestExtremal:
    def test_rows_within_the_load_tolerance_exit_0(self, loose_file, capsys):
        # the dominated channel is composed within the slack its file was loaded at
        assert main(["extremal", loose_file, "--kind", "alpha"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[4:] == [
            "dominated two-output channel:", "  0.6 0.3999999995", "  0.3999999995 0.6",
            "collapsing map (rows follow the file's output columns):", "  1 0", "  0 1",
        ]

    def test_alpha_kind_prints_match_and_map(self, alpha_file_f, capsys):
        assert main(["extremal", alpha_file_f, "--kind", "alpha"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "kind: alpha", "class_value: 0.48", "bsc_p: 0.24", "bec_eps: 0.48",
            "dominated two-output channel:", "  0.76 0.24", "  0.24 0.76",
            "collapsing map (rows follow the file's output columns):", "  1 0", "  1 0", "  0 1", "  0 1",
        ]

    def test_eta_kind_on_bsc(self, tmp_path, capsys):
        path = tmp_path / "bsc.txt"
        path.write_text(format_channel(make_bsc(0.2)))
        assert main(["extremal", str(path), "--kind", "eta"]) == 0
        out = capsys.readouterr().out
        assert "bsc_p: 0.2\n" in out
        assert "bec_eps: 0.64" in out

    def test_non_biso_eta_exit_4(self, z_file):
        assert main(["extremal", z_file, "--kind", "eta"]) == 4

    def test_non_biso_alpha_allowed(self, z_file, capsys):
        assert main(["extremal", z_file, "--kind", "alpha"]) == 0
        out = capsys.readouterr().out
        assert "dominated two-output channel" in out

    def test_out_writes_matched_channels(self, alpha_file_f, tmp_path, capsys):
        outdir = tmp_path / "matched"
        assert main(["extremal", alpha_file_f, "--kind", "alpha", "--out", str(outdir)]) == 0
        assert (outdir / "bsc.txt").exists()
        assert (outdir / "bec.txt").exists()
        assert (outdir / "map.txt").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "3\n0.7 0.3 0.0\n0.0 0.3 0.7\n",  # BEC(0.3): an odd column, not in pairs
            "4\n0.6 0.4 0 0\n0.4 0.6 0 0\n",  # a zero pair
            "5\n0.05 0.3 0.2 0.35 0.1\n0.2 0.3 0.05 0.1 0.35\n",  # shuffled, an equal-rows column
        ],
        ids=["bec", "zero-pair", "shuffled"],
    )
    def test_alpha_map_composes_the_file_onto_its_bsc(self, text, tmp_path, capsys):
        path, outdir = tmp_path / "ch.txt", tmp_path / "matched"
        path.write_text(text)
        assert main(["extremal", str(path), "--kind", "alpha", "--out", str(outdir)]) == 0
        ch = load_channel(str(path))
        dmap = np.loadtxt(outdir / "map.txt", ndmin=2)
        assert dmap.shape == (ch.n_outputs, 2)
        assert compose(ch, dmap).isclose(load_channel(str(outdir / "bsc.txt")), atol=1e-12)

    def test_out_over_a_regular_file_exit_2(self, eta_file_a, tmp_path, capsys):
        taken = tmp_path / "F"
        taken.write_text("keep")
        assert main(["extremal", eta_file_a, "--kind", "eta", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "kind: eta" and len(captured.out.splitlines()) == 4
        assert captured.err.startswith("cannot write") and captured.err.count("\n") == 1
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_141_quietly(self, alpha_file_f, tmp_path, unbuffered):
        # a reader that has gone, as with `| head`, is no unwritable --out: the command stops
        # with 128 + SIGPIPE and nothing on stderr, whether the print or the final flush meets it
        env = dict(os.environ, PYTHONPATH=str(Path(bisochan.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        argv = ["extremal", alpha_file_f, "--kind", "alpha", "--out", str(tmp_path / "D")]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bisochan.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
            )
        finally:
            os.close(write)
        assert proc.returncode == 141 and proc.stderr == b""


def _outcome(argv):
    """`main(argv)`'s exit code, or its `SystemExit` code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


_PARSER_CASES = [
    [], ["-h"], ["-h", "analyze"], ["analyz"],
    *([name, "-h"] for name, *_ in cli._COMMANDS),
    ["analyze"], ["compare", "A"], ["extremal", "A"], ["sweep", "--quantity", "criterion"],
    ["compare", "A", "B", "--order", "x"], ["extremal", "A", "--kind", "x"],
    ["sweep", "--quantity", "x", "A"], ["sweep", "--quantity", "criterion", "A", "B", "--grid", "x"],
    ["analyze", "A", "--bogus"], ["compare", "A", "B", "--grid", "5"],
    ["compare", "A", "B", "--ord", "mc"], ["paper-check", "--lis"],
    ["analyze", "--", "A"],
]


class TestParser:
    @pytest.mark.parametrize("columns", ["80", "40"])
    @pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
    def test_output_matches_the_parser_of_every_command(
        self, argv, columns, eta_file_a, eta_file_b, monkeypatch
    ):
        # a narrow terminal wraps the top-level usage that "unrecognized arguments" prints
        monkeypatch.setenv("COLUMNS", columns)
        argv = [{"A": eta_file_a, "B": eta_file_b}.get(a, a) for a in argv]
        got = _outcome(argv)
        every_command = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: every_command())
        assert got == _outcome(argv)

    def test_parser_of_every_command_keeps_its_texts(self, monkeypatch):
        # the reference above is today's full parser; these are its texts that a `metavar` or a
        # fixed `usage=` on it would change
        monkeypatch.setenv("COLUMNS", "80")
        usage = "usage: bisochan [-h] {analyze,compare,extremal,paper-check,sweep} ...\n"
        error = usage + "bisochan: error: "
        assert _outcome([]) == (("SystemExit", 2), "", error + "the following arguments are required: command\n")
        code, out, err = _outcome(["analyz"])
        assert (code, out) == (("SystemExit", 2), "")
        assert err.startswith(error + "argument command: invalid choice: ")
        code, out, err = _outcome(["-h"])
        assert (code, err) == (("SystemExit", 0), "")
        assert out.startswith(usage) and "\n  {analyze,compare,extremal,paper-check,sweep}\n" in out
        for name, *_ in cli._COMMANDS:
            assert _outcome([name, "-h"])[1].startswith(f"usage: bisochan {name} [-h]")

    def test_each_call_builds_two_parsers(self, eta_file_a, eta_file_b, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        calls = [
            ["analyze", eta_file_a],
            ["compare", eta_file_a, eta_file_b, "--order", "deg"],
            ["extremal", eta_file_a, "--kind", "eta"],
            ["paper-check", "--list"],
            ["sweep", "--quantity", "criterion", eta_file_a, eta_file_b, "--grid", "3"],
        ]
        assert sorted(argv[0] for argv in calls) == sorted(name for name, *_ in cli._COMMANDS)
        for argv in calls:
            built.clear()
            assert main(argv) == 0
            assert len(built) == 2, argv
        built.clear()
        monkeypatch.setattr(sys, "argv", ["bisochan", *calls[0]])
        assert main() == 0  # the console script's path: the command comes from sys.argv
        assert len(built) == 2
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert len(built) == 6


class TestPaperCheck:
    def test_list(self, capsys):
        assert main(["paper-check", "--list"]) == 0
        out = capsys.readouterr().out
        assert "01-closed-form-counterexample" in out
        assert out.count(":") >= 13

    def test_only_single_check(self, capsys):
        assert main(["paper-check", "--only", "01"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "2/2 checks passed" in out

    def test_unknown_prefix_exit_4(self, capsys):
        assert main(["paper-check", "--only", "zz"]) == 4

    def test_known_discrepancy_fails_honestly(self, capsys):
        assert main(["paper-check", "--only", "08"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "0.77455" in out

    def test_full_run_prints_the_pinned_rows(self, capsys):
        # the pooled run: two known discrepancies fail, and check 10 prints its bisections' values
        assert main(["paper-check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "39/41 checks passed"
        fails = [line for line in lines if line.startswith("[FAIL]")]
        assert len(fails) == 2
        assert re.match(r"\[FAIL\] 08-[a-z-]+ +guessing probability of F at bias 0\.29:", fails[0])
        assert re.match(r"\[FAIL\] 11-[a-z-]+ +max MI difference of capacity-matched Z vs BSC:", fails[1])
        check_10 = [line for line in lines if line.startswith("[PASS] 10-reverse-coefficients ")]
        assert [line for line in check_10 if "(1 - eta_tv)" in line and "computed 1.16413914175e-07" in line]
        assert [line for line in check_10 if "(1 - eta_kl)" in line and "computed 1.90093643049e-07" in line]
        assert sum(line.startswith("[PASS] 12-order-hierarchy ") for line in lines) == 2


class TestSweep:
    def test_criterion_crosses_zero_in_reported_window(self, eta_file_a, eta_file_b, capsys):
        assert main(
            ["sweep", "--quantity", "criterion", eta_file_a, eta_file_b, "--grid", "999"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "q,forward,reverse"
        qs, fwd = [], []
        for line in lines[1:]:
            q, f, _ = line.split(",")
            qs.append(float(q))
            fwd.append(float(f))
        qs = np.array(qs)
        fwd = np.array(fwd)
        assert fwd[np.abs(qs - 0.001).argmin()] < 0
        assert fwd[np.abs(qs - 0.02).argmin()] > 0

    def test_fi_bounds_flat_upper(self, tmp_path, capsys):
        path = tmp_path / "bsc.txt"
        path.write_text(format_channel(make_bsc(0.25)))
        assert main(
            ["sweep", "--quantity", "fi-bounds", str(path), "--grid", "13", "--tmax", "1.2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,lower,upper"
        for line in lines[1:]:
            t, lower, upper = map(float, line.split(","))
            if t >= 1.0:
                assert abs(upper - 0.25) < 1e-12
            assert lower <= upper + 1e-9

    def test_mi_diff_deterministic(self, z_file, tmp_path, capsys):
        bsc_path = tmp_path / "bsc.txt"
        bsc_path.write_text(format_channel(make_bsc(0.2)))
        assert main(["sweep", "--quantity", "mi-diff", z_file, str(bsc_path), "--grid", "99"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--quantity", "mi-diff", z_file, str(bsc_path), "--grid", "99"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == "x,mi_a,mi_b,difference"

    def test_sweep_out_file(self, eta_file_a, eta_file_b, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--quantity", "criterion", eta_file_a, eta_file_b,
                "--grid", "9", "--out", str(out),
            ]
        ) == 0
        assert out.read_text().startswith("q,forward,reverse\n")

    def test_out_in_a_missing_directory_exit_2(self, eta_file_a, eta_file_b, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["sweep", "--quantity", "mi-diff", eta_file_a, eta_file_b, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.parent.exists()
        assert captured.err.startswith("cannot write") and captured.err.count("\n") == 1

    def test_degenerate_grid_exit_4(self, eta_file_a, eta_file_b, capsys):
        # one point is a grid, as for mi-diff: the row at q = 1/2; no point is not
        argv = ["sweep", "--quantity", "criterion", eta_file_a, eta_file_b, "--grid"]
        assert main([*argv, "1"]) == 0
        fwd = less_noisy_criterion(load_channel(eta_file_a), load_channel(eta_file_b), 0.5)
        assert capsys.readouterr().out == f"q,forward,reverse\n0.5,{_fmt(fwd)},{_fmt(0.0 - fwd)}\n"
        assert main([*argv, "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "precondition violated: grid_size" in captured.err

    def test_negative_leakage_exit_4(self, eta_file_a, capsys):
        assert main(["sweep", "--quantity", "fi-bounds", eta_file_a, "--tmax", "-1"]) == 4
        assert capsys.readouterr().err.startswith("precondition violated: ")

    def test_wrong_file_count_exit_4(self, eta_file_a):
        assert main(["sweep", "--quantity", "criterion", eta_file_a]) == 4

    def test_non_biso_criterion_sweeps_the_files_own_rows(self, z_file, capsys):
        # Z against a BISO channel: each row is the criterion at 12 digits, and nothing
        # symmetrizes it, so the forward column differs at q and 1 - q
        eta_a = str(DEMO_DATA / "eta_pair_a.txt")
        assert main(["sweep", "--quantity", "criterion", z_file, eta_a]) == 0
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert len(rows) == 999 and "nan" not in captured.out and captured.err == ""
        z, w = load_channel(z_file), load_channel(eta_a)
        for q_str, fwd_str, rev_str in rows:
            q = float(q_str)
            assert _fmt(less_noisy_criterion(z, w, q)) == fwd_str
            assert _fmt(less_noisy_criterion(w, z, q)) == rev_str
        fwd = np.array([float(row[1]) for row in rows])
        assert np.all(np.abs(fwd - fwd[::-1])[:499] > 1e-6)

    def test_subnormal_column_sweeps_criterion_without_nan(self, subnormal_files, capsys):
        # its flat row (d^2, d, r1) was 0 / 0 at every q > 1/2: q d rounds to -r1, d^2 to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--quantity", "criterion", *subnormal_files]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1000 and "nan" not in captured.out
        assert captured.err == ""

    def test_fi_bounds_requires_biso_exit_4(self, z_file, capsys):
        assert main(["sweep", "--quantity", "fi-bounds", z_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("precondition violated:")

    def test_fi_bounds_of_a_non_biso_file_creates_no_out_file_past_one_block(self, z_file, tmp_path, capsys):
        # the first block is computed before the output is opened, so its NotBisoError leaves no file
        out = tmp_path / "f.csv"
        assert main(["sweep", "--quantity", "fi-bounds", z_file, "--grid", "10000", "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("precondition violated:")

    def test_csv_rows_recompute_to_printed_precision(self, eta_file_a, eta_file_b, capsys):
        assert main(
            ["sweep", "--quantity", "criterion", eta_file_a, eta_file_b, "--grid", "49"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        w = canonicalize_biso(load_channel(eta_file_a))
        v = canonicalize_biso(load_channel(eta_file_b))
        for line in lines:
            q_str, fwd_str, rev_str = line.split(",")
            q = float(q_str)
            assert format(less_noisy_criterion(w, v, q), ".12g") == fwd_str
            assert format(less_noisy_criterion(v, w, q), ".12g") == rev_str

    def test_reverse_column_is_the_negated_forward_one(self, capsys):
        # reverse = 0 - forward: the forward digits with the sign flipped, but a zero or NaN prints unsigned
        # in both columns; the last sweep, a channel against itself, is +0 at every q
        files = [str(DEMO_DATA / "eta_pair_a.txt"), str(DEMO_DATA / "eta_pair_b.txt")]
        for pair in (files, files[:1] * 2):
            assert main(["sweep", "--quantity", "criterion", *pair]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
            assert len(rows) == 999
            for _, fwd_str, rev_str in rows:
                if fwd_str.startswith("-"):
                    assert rev_str == fwd_str[1:]
                else:
                    assert rev_str == (fwd_str if fwd_str in ("0", "nan") else "-" + fwd_str)
        assert {tuple(row[1:]) for row in rows} == {("0", "0")}
        # the one criterion sweep computes on its grid stands for the reverse one bit for bit
        w, v = (canonicalize_biso(load_channel(f)) for f in files)
        xs = np.arange(1, 1000) / 1000.0
        fwd, rev = less_noisy_criterion(w, v, xs), less_noisy_criterion(v, w, xs)
        assert fwd.tobytes() == (-rev).tobytes()

    @pytest.mark.parametrize(
        "extra",
        [["--tmax", "nan"], ["--tmax", "inf"], ["--tmax=-inf"], ["--grid", "-1"], ["--grid", "0"]],
    )
    def test_degenerate_fi_bounds_options_exit_4(self, eta_file_a, extra, capsys):
        assert main(["sweep", "--quantity", "fi-bounds", eta_file_a, *extra]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition violated: ")

    @pytest.mark.parametrize("case", ["fi-bounds at one point", "criterion", "missing file"])
    def test_negative_tmax_exits_4_before_reading_files(self, case, eta_file_a, eta_file_b, tmp_path):
        argv = {
            "fi-bounds at one point": ["fi-bounds", eta_file_a, "--grid", "1"],
            "criterion": ["criterion", eta_file_a, eta_file_b],
            "missing file": ["fi-bounds", str(tmp_path / "missing.txt")],
        }[case]
        expected = (4, "", "precondition violated: --tmax must be nonnegative, got -1.0\n")
        assert _outcome(["sweep", "--quantity", *argv, "--tmax", "-1"]) == expected

    def test_grid_checked_before_reading_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["sweep", "--quantity", "mi-diff", missing, missing, "--grid", "0"]) == 4
        assert capsys.readouterr().err.startswith("precondition violated: grid_size")

    @pytest.mark.parametrize("grid", [10**20, 2**63 - 1, cli.MAX_GRID + 1])
    def test_grid_above_the_cap_exits_4_without_allocating_it(self, tmp_path, grid):
        missing = str(tmp_path / "missing.txt")
        tracemalloc.start()
        try:
            code, out, err = _outcome(["sweep", "--quantity", "criterion", missing, missing, "--grid", str(grid)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert err == f"precondition violated: grid_size must be at most {cli.MAX_GRID}, got {grid}\n"
        assert peak < 1e6


def _per_value_csv(header, columns):
    """The per-value rendering the one-shot CSV writer replaced."""
    return "\n".join([header] + [",".join(_fmt(v) for v in row) for row in zip(*columns)]) + "\n"


def _render(header, columns):
    """The header and `_csv_rows` of the columns, the first as text as `cli._block` gives it."""
    return header + "\n" + _csv_rows(cli._block(columns[0].copy())[1], columns[1:])


def _fresh_sweep(quantity, paths, grid, tmax):
    """A sweep's CSV from whole-grid columns computed with the memos cleared."""
    cli._grid_column.cache_clear()
    applications._residual.cache_clear()
    chans = [load_channel(p) for p in paths]
    xs = np.arange(1, grid + 1) / (grid + 1.0)
    if quantity == "criterion":
        fwd = less_noisy_criterion(*chans, xs)
        return _per_value_csv("q,forward,reverse", (xs, fwd, 0.0 - fwd))
    if quantity == "mi-diff":
        mi_a, mi_b = (mutual_information_grid(as_channel(c), xs) for c in chans)
        return _per_value_csv("x,mi_a,mi_b,difference", (xs, mi_a, mi_b, mi_a - mi_b))
    ts = np.linspace(0.0, tmax, grid)
    pts = fi_curve_bounds(canonicalize_biso(chans[0]), ts)
    return _per_value_csv("t,lower,upper", (ts, pts.lower, pts.upper))


_PAIR = tuple(str(DEMO_DATA / f"eta_pair_{side}.txt") for side in "ab")
# one process's sweeps: a grid, two budget grids 0 and -0 apart, another grid, the first again
_MEMO_SEQUENCE = (
    ("criterion", _PAIR, 999, 1.2),
    ("fi-bounds", _PAIR[:1], 2, 0.0),
    ("fi-bounds", _PAIR[:1], 2, -0.0),
    ("criterion", _PAIR, 49, 1.2),
    ("criterion", _PAIR, 999, 1.2),
)


class TestCsvRendering:
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats())))
    @example([(math.nan, math.inf, -math.inf), (-0.0, 5e-324, -2.2250738585072014e-308)])
    @example([(1e16, 123456789012.5, 0.1 + 0.2)])
    def test_row_formatter_matches_fmt(self, rows):
        columns = [np.array(c, dtype=float) for c in zip(*rows)] if rows else [np.array([])] * 3
        assert _render("a,b,c", columns) == _per_value_csv("a,b,c", columns)

    @given(st.lists(st.floats()))
    @example([-0.0])
    @example([0.0])
    @example([float(np.copysign(np.nan, -1.0))])
    @example([5e-324, -5e-324])
    @example([123456789012.5, 1e16])
    def test_criterion_rows_print_the_reverse_from_the_forward_digits(self, values):
        fwd = np.array(values, dtype=float)
        qs = np.arange(1, fwd.size + 1) / (fwd.size + 1.0)
        printed = "q,forward,reverse\n" + cli._criterion_csv_rows(cli._block(qs)[1], fwd)
        assert printed == _per_value_csv("q,forward,reverse", (qs, fwd, 0.0 - fwd))

    @pytest.mark.parametrize(
        "quantity, names",
        [
            ("criterion", ("eta_pair_a", "eta_pair_b")),
            ("criterion", ("alpha_pair_f", "alpha_pair_g")),
            ("mi-diff", ("eta_pair_a", "eta_pair_b")),
            ("mi-diff", ("alpha_pair_f", "alpha_pair_g")),
            ("fi-bounds", ("eta_pair_a",)),
            ("fi-bounds", ("alpha_pair_g",)),
        ],
    )
    def test_sweep_stdout_matches_per_value_rendering(self, quantity, names, capsys):
        paths = [str(DEMO_DATA / f"{name}.txt") for name in names]
        assert main(["sweep", "--quantity", quantity, *paths]) == 0
        out = capsys.readouterr().out
        chans = [load_channel(p) for p in paths]
        if quantity == "criterion":
            xs = np.arange(1, 1000) / 1000.0
            fwd, rev = less_noisy_criterion(*chans, xs), less_noisy_criterion(*chans[::-1], xs)
            expected = _per_value_csv("q,forward,reverse", (xs, fwd, rev))
        elif quantity == "mi-diff":
            xs = np.arange(1, 1000) / 1000.0
            mi_a, mi_b = (mutual_information_grid(as_channel(c), xs) for c in chans)
            expected = _per_value_csv("x,mi_a,mi_b,difference", (xs, mi_a, mi_b, mi_a - mi_b))
        else:
            expected = _fresh_sweep(quantity, paths, 999, 1.2)  # not the memo against itself
        assert out == expected
        assert len(out.splitlines()) == 1000

    def test_sweeps_in_one_process_match_fresh_columns(self, capsys):
        cli._grid_column.cache_clear()
        outs = []
        for quantity, paths, grid, tmax in _MEMO_SEQUENCE:
            argv = ["sweep", "--quantity", quantity, *paths, "--grid", str(grid), "--tmax", repr(tmax)]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert cli._grid_column.cache_info().hits == 1  # the last sweep reads the first one's grid
        assert outs[1].endswith("\n0,0,0\n") and outs[2].endswith("\n-0,0,-0\n")
        for out, (quantity, paths, grid, tmax) in zip(outs, _MEMO_SEQUENCE):
            assert out == _fresh_sweep(quantity, paths, grid, tmax)

    def test_grids_past_the_memo_size_are_not_kept(self, tmp_path):
        # a process keeps the grid-only work of grids up to _MEMO_POINTS points, 999-point sweeps
        # and check 13's 81 budgets among them, and computes larger grids at each sweep: a
        # 200,000-point mi-diff sweep and a fi-bounds sweep of that size leave under 1 MB allocated
        assert 999 <= applications._MEMO_POINTS < 200_000
        cli._grid_column.cache_clear()
        applications._residual.cache_clear()
        out = str(tmp_path / "sweep.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for quantity, paths in (("mi-diff", _PAIR), ("fi-bounds", _PAIR[:1])):
                assert main(["sweep", "--quantity", quantity, *paths, "--grid", "200000", "--out", out]) == 0
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1e6
        assert cli._grid_column.cache_info().currsize == applications._residual.cache_info().currsize == 0
        for grid in (applications._MEMO_POINTS, 999, applications._MEMO_POINTS):
            assert main(["sweep", "--quantity", "fi-bounds", _PAIR[0], "--grid", str(grid), "--out", out]) == 0
        assert cli._grid_column.cache_info().hits == applications._residual.cache_info().hits == 1
        checks.check_applications()  # its 81 budgets, once per channel
        assert applications._residual.cache_info().hits > 1

    @pytest.mark.parametrize("quantity", ["criterion", "fi-bounds", "mi-diff"])
    @pytest.mark.parametrize("offset", [-1, 0, 1, applications._MEMO_POINTS + 1])
    def test_rows_either_side_of_a_block_are_the_per_value_bytes(self, quantity, offset, tmp_path, capsys):
        # `cmd_sweep` computes and writes `_MEMO_POINTS` rows at a time; a larger grid's first column is
        # formatted per block, and the last of 8,193 rows is a block of one point
        grid, out = applications._MEMO_POINTS + offset, tmp_path / "s.csv"
        paths = _PAIR[:1] if quantity == "fi-bounds" else _PAIR
        argv = ["sweep", "--quantity", quantity, *paths, "--grid", str(grid)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        assert printed == out.read_text(encoding="utf-8") == _fresh_sweep(quantity, paths, grid, 1.2)
        assert printed.count("\n") == grid + 1

    def test_a_large_sweep_holds_no_more_than_its_columns(self, tmp_path):
        # a 2^18-point sweep holds its first column (2 MB, built through one temporary of its size)
        # and one block's columns and text (about 1 MB at 4,096 points), not its result columns
        # (4 to 6 MB) nor its 11 to 17 MB of CSV text
        grid, out = 2**18, str(tmp_path / "sweep.csv")
        for quantity in ("criterion", "fi-bounds", "mi-diff"):
            argv = ["sweep", "--quantity", quantity, *(_PAIR[:1] if quantity == "fi-bounds" else _PAIR), "--out", out]
            assert main([*argv, "--grid", "8"]) == 0  # imports and first-call setup, not counted
            tracemalloc.start()
            try:
                assert main([*argv, "--grid", str(grid)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 8 * grid + 2e6, quantity
            assert os.path.getsize(out) > {"fi-bounds": 11e6}.get(quantity, 12e6)

    def test_memoized_grid_is_read_only(self):
        column, text = cli._grid_column(9)
        with pytest.raises(ValueError):
            column[0] = 0.5
        assert text == tuple(_fmt(v) for v in np.arange(1, 10) / 10.0)
