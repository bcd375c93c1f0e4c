import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from helpers import assert_bit_identical, frequency_blocks
from twinphoton import _core_py, cli, dynamics, oracle
from twinphoton.model import VARIANTS, InitialAtomicState, TimeGrid, XState
from twinphoton.negativity import negativity_x
from twinphoton.thermal import FockCutoff

CMD = [sys.executable, "-m", "twinphoton.cli"]
HEADER = "gt,A,B,C,D,E,epsilon"


def run_cli(*args):
    return subprocess.run([*CMD, *args], capture_output=True)


def kernel_calls(monkeypatch):
    """The list of variants _core_py.thermal_sweep is called with from now on, in call order."""
    calls = []
    kernel = _core_py.thermal_sweep

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(_core_py, "thermal_sweep", counting)
    return calls


def parse_csv(text):
    lines = text.strip().split("\n")
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == HEADER
    rows = [[float(v) for v in line.split(",")] for line in body[1:]]
    assert all(len(r) == 7 for r in rows)
    return comments, rows


def test_sweep_vacuum_peak_negativity():
    tmax = math.pi / (2.0 * math.sqrt(2.0))
    res = run_cli("sweep", "--initial", "eg", "--tmax", repr(tmax), "--steps", "8")
    assert res.returncode == 0, res.stderr
    comments, rows = parse_csv(res.stdout.decode())
    assert len(rows) == 9
    assert rows[0][0] == 0.0 and rows[0][2] == 1.0  # gt=0 row is the |+-> projector
    assert all(abs(v) == 0.0 for k, v in enumerate(rows[0]) if k not in (0, 2))
    assert rows[-1][0] == tmax
    assert abs(rows[-1][6] - (math.sqrt(2.0) / 2.0 - 0.5)) < 1e-12


def test_sweep_comment_provenance():
    res = run_cli("sweep", "--initial", "gg", "--nbar1", "0.5", "--steps", "4")
    assert res.returncode == 0, res.stderr
    comments, rows = parse_csv(res.stdout.decode())
    joined = "\n".join(comments)
    assert "initial=gg" in joined
    assert "fock cutoff" in joined
    assert "path: closed form" in joined
    assert len(rows) == 5


def test_sweep_ee_stays_separable():
    res = run_cli(
        "sweep", "--initial", "ee", "--nbar1", "1", "--nbar2", "1",
        "--tmax", "5", "--steps", "50", "--tail-tol", "1e-8",
    )
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout.decode())
    assert max(r[6] for r in rows) < 1e-12


def test_sweep_repeat_runs_are_byte_identical():
    args = (
        "sweep", "--initial", "mixed", "--lambda", "0.05",
        "--nbar1", "0.7", "--nbar2", "1.3", "--tmax", "4", "--steps", "40",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout


def test_closed_form_sweep_is_identical_across_blas_threads(monkeypatch):
    # the kernel reduces with np.sum, np.bincount and np.einsum, never BLAS; at
    # nbar 3 and 201 times each pass sums ~1,500 distinct frequencies in three blocks
    cutoff = FockCutoff.choose(3.0, 3.0, cli.DEFAULT_TAIL_TOL)
    for variant in ("ee", "eg", "gg"):
        assert frequency_blocks(monkeypatch, variant, TimeGrid(10.0, 200).points(), cutoff) >= 2
    for args in (
        ("--initial", "eg"),
        ("--initial", "mixed", "--lambda", "0.05"),
    ):
        argv = ("sweep", *args, "--nbar1", "3", "--nbar2", "3", "--steps", "200")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            res = subprocess.run([*CMD, *argv], capture_output=True, env=env)
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0] and outputs[0] == outputs[1], args


def test_sweep_out_file_matches_stdout(tmp_path):
    args = ("sweep", "--initial", "eg", "--nbar1", "0.3", "--tmax", "3", "--steps", "12")
    piped = run_cli(*args)
    path = tmp_path / "sweep.csv"
    direct = run_cli(*args, "--out", str(path))
    assert piped.returncode == direct.returncode == 0
    assert direct.stdout == b""
    assert path.read_bytes() == piped.stdout


def test_sweep_oracle_path_matches_closed_form():
    base = ("sweep", "--initial", "eg", "--tmax", "2", "--steps", "4")
    closed = run_cli(*base)
    brute = run_cli(*base, "--oracle", "--cutoff", "6,6")
    assert closed.returncode == brute.returncode == 0
    comments, rows_c = parse_csv(closed.stdout.decode())
    comments_o, rows_o = parse_csv(brute.stdout.decode())
    assert any("oracle" in c for c in comments_o)
    for rc, ro in zip(rows_c, rows_o):
        assert max(abs(a - b) for a, b in zip(rc, ro)) < 1e-10


@pytest.mark.parametrize("variant, lam", [("eg", None), ("mixed", 0.3)])
def test_sweep_rows_are_the_kernel_floats_exactly(variant, lam, tmp_path):
    # every CSV field is the kernel's float and epsilon that of its XState,
    # bit for bit: a dropped, reordered or rounded column fails here
    out = tmp_path / "out.csv"
    argv = ["sweep", "--initial", variant, "--nbar1", "0.3", "--nbar2", "2", "--steps", "40"]
    if lam is not None:
        argv += ["--lambda", repr(lam)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    gts = TimeGrid(10.0, 40).points()
    cutoff = FockCutoff.choose(0.3, 2.0, cli.DEFAULT_TAIL_TOL)
    values = dynamics.sweep([InitialAtomicState(variant, lam)], gts, cutoff)[0]
    eps = [negativity_x(XState(*row)) for row in values.tolist()]
    assert_bit_identical(np.array(rows), np.column_stack([gts, values, eps]))
    assert (values[:, 1] != values[:, 2]).any()  # B and C tell a swap apart


def test_separable_sweep_rows_end_alike_on_both_paths(capsys):
    # a separable state's negativity is 0.0 on both paths, never -0.0
    argv = ["sweep", "--initial", "gg", "--nbar1", "0.5", "--steps", "3"]
    ends = []
    for extra in ([], ["--oracle"]):
        assert cli.main(argv + extra) == 0
        body = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        ends.append([line.rsplit(",", 1)[1] for line in body[1:]])
    assert ends[0] == ends[1] == ["0.0"] * 4, ends


def test_sweep_cutoff_names_one_summed_set_on_both_paths():
    # --cutoff is the Fock set summed, with or without --oracle
    base = ("sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1", "--cutoff", "6,7",
            "--tmax", "3", "--steps", "6")
    closed = run_cli(*base)
    brute = run_cli(*base, "--oracle")
    assert closed.returncode == brute.returncode == 0, (closed.stderr, brute.stderr)
    comments_c, rows_c = parse_csv(closed.stdout.decode())
    comments_o, rows_o = parse_csv(brute.stdout.decode())
    cutoff_c = [c for c in comments_c if c.startswith("# fock cutoff")]
    cutoff_o = [c for c in comments_o if c.startswith("# fock cutoff")]
    assert cutoff_c == cutoff_o and "n_max1=6 n_max2=7" in cutoff_c[0], (cutoff_c, cutoff_o)
    assert "# path: oracle, truncation (8, 9)" in comments_o
    assert len(rows_c) == len(rows_o) == 7
    for rc, ro in zip(rows_c, rows_o):
        assert max(abs(a - b) for a, b in zip(rc, ro)) <= 1e-13


def test_automatic_set_is_summed_on_both_paths():
    # without --cutoff both paths sum the joint-weight set, not its extent's rectangle
    base = ("sweep", "--initial", "mixed", "--lambda", "0.3", "--nbar1", "1", "--nbar2", "0.6",
            "--steps", "5")
    closed = run_cli(*base)
    brute = run_cli(*base, "--oracle")
    assert closed.returncode == brute.returncode == 0, (closed.stderr, brute.stderr)
    comments_c, rows_c = parse_csv(closed.stdout.decode())
    comments_o, rows_o = parse_csv(brute.stdout.decode())
    cutoff = FockCutoff.choose(1.0, 0.6, cli.DEFAULT_TAIL_TOL)
    line = (f"# fock cutoff: points={cutoff.size} in extent n_max1={cutoff.n_max1}"
            f" n_max2={cutoff.n_max2} neglected_mass<={cutoff.tail_bound!r}")
    assert [c for c in comments_c if c.startswith("# fock cutoff")] == [line], comments_c
    assert [c for c in comments_o if c.startswith("# fock cutoff")] == [line], comments_o
    assert len(rows_c) == len(rows_o) == 6
    for rc, ro in zip(rows_c, rows_o):
        assert max(abs(a - b) for a, b in zip(rc, ro)) <= 1e-13


def test_figure_preset3_mixture_never_entangles(tmp_path):
    outdir = tmp_path / "figs"
    res = run_cli("figure", "--preset", "3", "--outdir", str(outdir), "--tail-tol", "1e-8")
    assert res.returncode == 0, res.stderr
    printed = res.stdout.decode().strip().split("\n")
    expected = [
        os.path.join(str(outdir), "fig3_mixed_lambda0.01.csv"),
        os.path.join(str(outdir), "fig3_mixed_lambda0.05.csv"),
    ]
    assert printed == expected
    for path in expected:
        with open(path) as fh:
            _, rows = parse_csv(fh.read())
        assert len(rows) == 1001
        assert all(r[6] == 0.0 for r in rows)


def test_figure_preset2_low_occupancy_entangles(tmp_path):
    res = run_cli("figure", "--preset", "2", "--outdir", str(tmp_path), "--tail-tol", "1e-8")
    assert res.returncode == 0, res.stderr
    _, low = parse_csv((tmp_path / "fig2_gg_nbar0.3.csv").read_text())
    _, high = parse_csv((tmp_path / "fig2_gg_nbar1.csv").read_text())
    assert len(low) == len(high) == 1001
    assert max(r[6] for r in low) > 1e-5


def test_check_subcommand_passes():
    res = run_cli("check", "--cutoff", "6,6", "--steps", "5", "--tmax", "2")
    assert res.returncode == 0, res.stderr
    out = res.stdout.decode()
    assert "PASS" in out
    for label in ("eg", "gg", "ee", "mixed"):
        assert label in out


def test_check_compares_both_paths_on_one_retained_set(monkeypatch, capsys):
    # both paths get the FockCutoff object as their last argument, in one call each
    received = {"sweep": [], "thermal_sweep": []}

    def record(module, name):
        path = getattr(module, name)

        def recording(*args):
            received[name].append(args[-1])
            return path(*args)

        monkeypatch.setattr(module, name, recording)

    record(cli.dynamics, "sweep")
    record(cli.oracle, "thermal_sweep")
    argv = ["check", "--cutoff", "5,6", "--nbar1", "0.3", "--nbar2", "2", "--steps", "2"]
    assert cli.main(argv) == 0
    assert "PASS" in capsys.readouterr().out
    cutoffs = received["sweep"] + received["thermal_sweep"]
    assert len(received["sweep"]) == len(received["thermal_sweep"]) == 1
    assert all(cutoff is cutoffs[0] for cutoff in cutoffs)
    assert cutoffs[0] == FockCutoff.explicit(5, 6, 0.3, 2.0)


def test_check_subcommand_detects_violation():
    res = run_cli(
        "check", "--cutoff", "6,6", "--steps", "3", "--tmax", "2", "--tol", "1e-300"
    )
    assert res.returncode == 2
    assert "FAIL" in res.stdout.decode()


def test_check_fails_when_the_oracle_returns_nan(monkeypatch, capsys):
    thermal_sweep = oracle.thermal_sweep

    def one_nan(initials, gts, cutoff):
        out = thermal_sweep(initials, gts, cutoff)
        out[0][3][1, 2] = math.nan
        return out

    monkeypatch.setattr(cli.oracle, "thermal_sweep", one_nan)
    assert cli.main(["check", "--cutoff", "6,6", "--steps", "5"]) == 2
    out = capsys.readouterr().out
    assert "eg: max |element| dev nan" in out
    assert "overall max deviation nan" in out and "FAIL" in out


def test_sweep_refuses_a_non_finite_row(tmp_path):
    # gt * Omega / 2 overflows in the kernel at gt = 1e307, so the row is NaN
    out = tmp_path / "overflow.csv"
    res = run_cli(
        "sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1", "--tmax", "1e307",
        "--steps", "1", "--out", str(out),
    )
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert b"gt=1e+307" in res.stderr, res.stderr
    assert not out.exists()


def test_sweep_that_cannot_hold_its_fock_set_fails_in_one_line(tmp_path):
    # at nbar2 1e15 the one-row set holds 2.3e16 pairs, whose weights alone need
    # more bytes than any address space: the run warns, then fails at once; the
    # child's address space (one BLAS thread) is capped so that a regression
    # fails, not the host
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = tmp_path / "huge.csv"
    argv = ["sweep", "--initial", "eg", "--nbar1", "0", "--nbar2", "1e15", "--steps", "1"]
    res = subprocess.run(
        [*CMD, *argv, "--out", str(out)],
        capture_output=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_memory,
    )
    assert res.returncode == 1, (res.stdout, res.stderr)
    err = res.stderr.decode().splitlines()
    assert len(err) == 2 and err[0].startswith("twinphoton: warning:"), err
    assert err[1].startswith("twinphoton: error: out of memory: "), err
    assert not out.exists()


def test_sweep_runs_at_a_subnormal_tail_tolerance():
    res = run_cli(
        "sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1", "--tail-tol", "1e-320",
        "--steps", "1",
    )
    assert res.returncode == 0, (res.stdout, res.stderr)
    assert res.stderr == b""
    _, rows = parse_csv(res.stdout.decode())
    assert len(rows) == 2


def test_calls_in_one_process_match_fresh_calls(capsys):
    # main() reuses one parser per process; the `append` default of check's
    # --initial must not carry the first call's states into the second
    argvs = [
        ["check", "--initial", "eg", "--steps", "2"],
        ["check", "--steps", "2"],
        ["sweep", "--initial", "gg", "--nbar1", "0.5", "--steps", "3"],
    ]
    parser = cli._parser()
    reused = []
    for argv in argvs:
        assert cli.main(argv) == 0
        reused.append(capsys.readouterr().out)
    assert cli._parser() is parser
    for argv, out in zip(argvs, reused):
        cli._parser.cache_clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out, argv
    assert "ee:" not in reused[0] and "ee:" in reused[1]


def test_usage_errors_exit_one(capsys):
    bad_calls = [
        (),
        ("frobnicate",),
        ("sweep",),
        ("sweep", "--initial", "xx"),
        ("sweep", "--initial", "mixed"),
        ("sweep", "--initial", "eg", "--lambda", "0.3"),
        ("sweep", "--initial", "mixed", "--lambda", "1.5"),
        ("sweep", "--initial", "eg", "--cutoff", "banana"),
        ("sweep", "--initial", "eg", "--nbar1", "-0.5"),
        ("sweep", "--initial", "eg", "--nbar1", "1e17"),
        ("sweep", "--initial", "eg", "--steps", "0"),
        ("sweep", "--initial", "eg", "--tmax", "1e308", "--steps", "2"),
        ("sweep", "--initial", "eg", "--tail-tol", "0"),
        ("sweep", "--initial", "eg", "--cutoff", "3,3", "--tail-tol", "nan"),
        ("sweep", "--initial", "eg", "--tail-tol", "inf"),
        ("figure",),
        ("figure", "--preset", "1", "--tail-tol", "0"),
        ("check", "--tol", "nan"),
        ("check", "--tol", "inf"),
        ("check", "--initial", "eg", "--lambda", "7"),
        ("check", "--initial", "gg", "--lambda", "nan"),
    ]
    for args in bad_calls:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(list(args))
        err = capsys.readouterr().err
        assert exit_info.value.code == 1, (args, err)
        assert err  # some diagnostic lands on stderr
        if args and args[0] in ("sweep", "figure", "check"):
            assert f"usage: twinphoton {args[0]}" in err, (args, err)
    # a bad mean photon number is named by its option
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--initial", "eg", "--nbar1", "-0.5"])
    assert "error: nbar1 must be" in capsys.readouterr().err
    # the exit status of the real process, for an error raised past argparse
    res = run_cli("sweep", "--initial", "eg", "--nbar1", "-0.5")
    assert res.returncode == 1, (res.stdout, res.stderr)
    assert b"usage: twinphoton sweep" in res.stderr, res.stderr


def test_large_sweep_warns_before_running(monkeypatch, capsys, tmp_path):
    # mixed runs four kernel passes over the set's pairs at every time sample
    cutoff = FockCutoff.choose(0.2, 0.5, cli.DEFAULT_TAIL_TOL)
    terms = cutoff.size * 5 * 4
    assert cutoff.size < (cutoff.n_max1 + 1) * (cutoff.n_max2 + 1)
    argv = [
        "sweep", "--initial", "mixed", "--lambda", "0.05", "--nbar1", "0.2", "--nbar2", "0.5",
        "--steps", "4", "--out", str(tmp_path / "mixed.csv"),
    ]
    monkeypatch.setattr(cli, "WARN_TERMS", terms)
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    quiet = (tmp_path / "mixed.csv").read_bytes()

    monkeypatch.setattr(cli, "WARN_TERMS", terms - 1)
    assert cli.main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{terms:.3g} terms" in err[0], err
    extent = f"extent {cutoff.n_max1 + 1}x{cutoff.n_max2 + 1}"
    assert f"Fock set of {cutoff.size} pairs ({extent})" in err[0], err
    assert (tmp_path / "mixed.csv").read_bytes() == quiet


def test_sweep_warns_when_its_kernel_pass_would_need_more_than_a_gibibyte(capsys):
    # at nbar 1000 per mode the set holds 3.5e8 pairs: 6.9e8 terms at two
    # times, under WARN_TERMS, but up to 32 GiB in the kernel's moment pass
    cutoff = FockCutoff.choose(1000.0, 1000.0, cli.DEFAULT_TAIL_TOL)
    grid = TimeGrid(10.0, 1)
    assert cutoff.size * (grid.steps + 1) <= cli.WARN_TERMS
    assert cutoff.size * _core_py.PAIR_BYTES > cli.WARN_BYTES
    cli._warn_if_large([InitialAtomicState("eg")], grid, cutoff)
    err = capsys.readouterr().err.splitlines()
    gib = cutoff.size * _core_py.PAIR_BYTES / (1 << 30)
    assert len(err) == 1 and f"holds up to {gib:.3g} GiB" in err[0], err
    assert f"Fock set of {cutoff.size} pairs" in err[0], err


def test_check_passes_at_a_production_cutoff(capsys):
    # the extent 38 x 38 of the Fock set a sweep at nbar 1 sums, on an oracle truncated at 39,39
    cutoff = FockCutoff.choose(1.0, 1.0, cli.DEFAULT_TAIL_TOL)
    assert (cutoff.n_max1, cutoff.n_max2) == (37, 37)
    assert cli.main(["check", "--cutoff", "37,37", "--tol", "1e-13"]) == 0
    out, err = capsys.readouterr()
    assert "truncation (39, 39)" in out and "PASS" in out, out
    assert err == ""


def test_large_oracle_run_warns_before_running(monkeypatch, capsys, tmp_path):
    # cutoff 3,4 is truncated at 5,6: 4 x 6 x 7 = 168 states, evolved at 5 times
    work = 168 * 5
    sweep = ["sweep", "--initial", "eg", "--nbar1", "1", "--oracle", "--cutoff", "3,4",
             "--steps", "4", "--out", str(tmp_path / "eg.csv")]
    check = ["check", "--cutoff", "3,4", "--steps", "4"]
    monkeypatch.setattr(cli, "WARN_ORACLE_STATE_TIMES", work)
    outputs = {}
    for argv in (sweep, check):
        assert cli.main(argv) == 0
        outputs[argv[0]] = capsys.readouterr()
        assert outputs[argv[0]].err == ""
    quiet = (tmp_path / "eg.csv").read_bytes()

    monkeypatch.setattr(cli, "WARN_ORACLE_STATE_TIMES", work - 1)
    for argv in (sweep, check):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert len(err) == 1 and f"{work:.3g} state-times" in err[0], err
        assert out == outputs[argv[0]].out
    assert (tmp_path / "eg.csv").read_bytes() == quiet


def test_the_oracle_truncation_follows_headroom(monkeypatch, capsys):
    # oracle.truncation is the one place the headroom is added: the sweep's
    # path label, the check header, the warning's state count and the space
    # oracle.thermal_sweep evolves all follow it; cutoff 2,3 is then
    # truncated at 5,6: 4 x 6 x 7 = 168 states
    monkeypatch.setattr(oracle, "HEADROOM", 3)
    monkeypatch.setattr(cli, "WARN_ORACLE_STATE_TIMES", 0)
    built = []
    init = oracle.Propagator.__init__

    def recording(self, n_max1, n_max2):
        built.append((n_max1, n_max2))
        init(self, n_max1, n_max2)

    monkeypatch.setattr(oracle.Propagator, "__init__", recording)
    sweep = ["sweep", "--initial", "eg", "--nbar1", "1", "--oracle", "--cutoff", "2,3",
             "--steps", "2"]
    assert cli.main(sweep) == 0
    out, err = capsys.readouterr()
    assert "# path: oracle, truncation (5, 6)\n" in out, out
    assert "168 states of truncation (5, 6)" in err, err
    assert cli.main(["check", "--cutoff", "2,3", "--steps", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("closed form vs oracle: truncation (5, 6),") and "PASS" in out, out
    assert "168 states of truncation (5, 6)" in err, err
    assert built == [(5, 6), (5, 6)]


def test_warned_pass_count_is_the_kernel_call_count(monkeypatch, capsys):
    # _warn_if_large counts one kernel pass per distinct pure variant of the
    # states it is given, as dynamics.sweep runs them
    calls = kernel_calls(monkeypatch)
    monkeypatch.setattr(cli, "WARN_TERMS", 0)
    cutoff = FockCutoff.choose(0.2, 0.5, 1e-6)
    grid = TimeGrid(1.0, 1)
    singles = [[InitialAtomicState(v, 0.05 if v == "mixed" else None)] for v in VARIANTS]
    shared = [
        [InitialAtomicState("eg"), InitialAtomicState("eg")],
        [InitialAtomicState("eg"), InitialAtomicState("gg")],
        [InitialAtomicState("mixed", 0.01), InitialAtomicState("mixed", 0.05)],
        [InitialAtomicState("ge"), InitialAtomicState("mixed", 0.05)],
    ]
    for initials in singles + shared:
        calls.clear()
        dynamics.sweep(initials, grid.points(), cutoff)
        cli._warn_if_large(initials, grid, cutoff)
        err = capsys.readouterr().err
        assert f" x {len(calls)} kernel pass(es)," in err, (initials, err)


def test_figure_warns_before_a_large_sweep(monkeypatch, capsys, tmp_path):
    # preset 3's two mixed curves share one field at nbar 1 and its four pure passes
    cutoff = FockCutoff.choose(1.0, 1.0, cli.DEFAULT_TAIL_TOL)
    terms = cutoff.size * 1001 * 4
    argv = ["figure", "--preset", "3", "--outdir", str(tmp_path)]
    monkeypatch.setattr(cli, "WARN_TERMS", terms)
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    quiet = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert len(quiet) == 2

    monkeypatch.setattr(cli, "WARN_TERMS", terms - 1)
    assert cli.main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{terms:.3g} terms" in err[0], err
    assert f"Fock set of {cutoff.size} pairs" in err[0] and "x 4 kernel pass(es)" in err[0], err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == quiet


def test_check_header_names_the_compared_set(capsys):
    # at nbar1 1e17 the 10,10 rectangle holds almost none of the field's mass:
    # the paths agree on it, and the header says how little was compared
    assert cli.main(["check", "--nbar1", "1e17", "--nbar2", "0.123456789", "--steps", "2"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("closed form vs oracle: truncation (12, 12),"), header
    assert " nbar=(1e+17, 0.123456789)," in header, header
    assert header.endswith(", points=121, neglected_mass<=1.0"), header


def test_a_negative_zero_mean_photon_number_writes_the_bytes_of_zero(capsys, tmp_path):
    documents, headers = [], []
    for nbar in ("-0.0", "0"):
        out = tmp_path / f"eg_{nbar}.csv"
        argv = ["sweep", "--initial", "eg", "--nbar1", nbar, "--nbar2", "1", "--steps", "1"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        documents.append(out.read_bytes())
        assert cli.main(["check", "--nbar1", nbar, "--steps", "1"]) == 0
        headers.append(capsys.readouterr().out.splitlines()[0])
    assert documents[0] == documents[1]
    assert b" nbar1=0.0 " in documents[0]
    assert headers[0] == headers[1] and " nbar=(0.0, 1.0)," in headers[0], headers


def test_figure_sweeps_each_field_once(monkeypatch, tmp_path):
    # the curves of one field share one sweep: preset 3's two mixed curves
    # take the four pure passes once, presets 1 and 2 one pass per field
    calls = kernel_calls(monkeypatch)
    for preset, passes in ((1, 2), (2, 2), (3, 4)):
        calls.clear()
        assert cli.main(["figure", "--preset", str(preset), "--outdir", str(tmp_path)]) == 0
        assert len(calls) == passes, (preset, calls)


def test_check_sweep_passes_each_pure_variant_once(monkeypatch):
    # check's states share their pure parts: one kernel pass per distinct variant
    cutoff = FockCutoff.explicit(4, 6, 1.0, 0.5)
    gts = [0.0, 0.7, 3.0]
    initials = [
        InitialAtomicState(v, 0.05 if v == "mixed" else None) for v in cli.CHECK_DEFAULT_STATES
    ]
    alone = [dynamics.sweep([initial], gts, cutoff)[0] for initial in initials]
    calls = kernel_calls(monkeypatch)
    together = dynamics.sweep(initials, gts, cutoff)
    assert calls == ["eg", "gg", "ee", "ge"]
    for a, b in zip(together, alone):
        assert_bit_identical(a, b)
    # a state listed twice adds no pass, and each copy is its own array
    calls.clear()
    twice = dynamics.sweep(initials + initials[:1], gts, cutoff)
    assert calls == ["eg", "gg", "ee", "ge"]
    assert_bit_identical(twice[-1], alone[0])
    assert twice[-1] is not twice[0]


def test_default_sweep_writes_nothing_to_stderr(capsys, tmp_path):
    assert cli.main(["sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 5 + 1 + 1001  # provenance, header, one row per time
    # nor do the hot mixed sweep and the default check, the other benchmark workloads
    for argv in (
        ["sweep", "--initial", "mixed", "--lambda", "0.05", "--nbar1", "3.0", "--nbar2", "10.0",
         "--tmax", "10.0", "--steps", "10", "--out", str(tmp_path / "mixed.csv")],
        ["check"],
    ):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_oracle_runs_never_load_numpy_masked_arrays(tmp_path):
    # numpy.ma costs every oracle process about 1 MB and an import; the oracle
    # needs none of it, so neither check nor sweep --oracle may load it
    code = (
        "import sys\n"
        "from twinphoton import cli\n"
        "assert cli.main(['check', '--cutoff', '4,4', '--steps', '4']) == 0\n"
        "assert cli.main(['sweep', '--initial', 'mixed', '--lambda', '0.3', '--oracle',"
        f" '--cutoff', '4,4', '--steps', '4', '--out', {str(tmp_path / 'oracle.csv')!r}]) == 0\n"
        "print(sorted(n for n in sys.modules if n == 'numpy.ma' or n.startswith('numpy.ma.')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode().splitlines()[-1] == "[]", res.stdout


def run_into_closed_stdout(argv, unbuffered):
    """Run the CLI with a stdout pipe whose read end is closed before it writes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([*CMD, *argv], stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_not_an_error(unbuffered, tmp_path):
    # `twinphoton check | head -1`: the reader leaves, the run finishes with its own status
    res = run_into_closed_stdout(["check", "--cutoff", "4,4", "--steps", "4"], unbuffered)
    assert (res.returncode, res.stderr) == (0, b"")
    res = run_into_closed_stdout(
        ["check", "--cutoff", "4,4", "--steps", "4", "--tol", "1e-300"], unbuffered
    )
    assert (res.returncode, res.stderr) == (2, b"")
    res = run_into_closed_stdout(["figure", "--preset", "1", "--outdir", str(tmp_path)], unbuffered)
    assert (res.returncode, res.stderr) == (0, b"")
    names = [name for _, _, _, name in cli.FIGURE_PRESETS[1]]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    # a real I/O error is still reported
    out = tmp_path / "no_such_dir" / "eg.csv"
    res = run_cli("sweep", "--initial", "eg", "--steps", "2", "--out", str(out))
    assert res.returncode == 1 and res.stderr.startswith(b"twinphoton: error: "), res.stderr


def test_check_echoes_its_inputs_exactly(capsys):
    argv = ["check", "--tmax", "0.123456789", "--lambda", "0.0123456789", "--tol", "0.00123456789",
            "--initial", "mixed", "--cutoff", "3,3", "--steps", "3"]
    assert cli.main(argv) == 0
    header, label, verdict = capsys.readouterr().out.splitlines()
    assert " 4 times in [0, 0.123456789]," in header, header
    assert label.startswith("  mixed(lambda=0.0123456789): "), label
    assert verdict.endswith(" tol 0.00123456789: PASS"), verdict
    assert cli.main(["check", "--cutoff", "3,3", "--steps", "3"]) == 0
    assert " 4 times in [0, 5.0]," in capsys.readouterr().out
