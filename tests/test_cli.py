import math
import os
import subprocess
import sys

from twinphoton import cli
from twinphoton.thermal import FockCutoff

CMD = [sys.executable, "-m", "twinphoton.cli"]
HEADER = "gt,A,B,C,D,E,epsilon"


def run_cli(*args):
    return subprocess.run([*CMD, *args], capture_output=True)


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


def test_check_subcommand_detects_violation():
    res = run_cli(
        "check", "--cutoff", "6,6", "--steps", "3", "--tmax", "2", "--tol", "1e-300"
    )
    assert res.returncode == 2
    assert "FAIL" in res.stdout.decode()


def test_usage_errors_exit_one():
    bad_calls = [
        (),
        ("frobnicate",),
        ("sweep",),
        ("sweep", "--initial", "xx"),
        ("sweep", "--initial", "mixed"),
        ("sweep", "--initial", "eg", "--lambda", "0.3"),
        ("sweep", "--initial", "mixed", "--lambda", "1.5"),
        ("sweep", "--initial", "eg", "--oracle"),
        ("sweep", "--initial", "eg", "--oracle", "--cutoff", "15,15"),
        ("sweep", "--initial", "eg", "--cutoff", "banana"),
        ("sweep", "--initial", "eg", "--nbar1", "-0.5"),
        ("sweep", "--initial", "eg", "--nbar1", "1e17"),
        ("sweep", "--initial", "eg", "--steps", "0"),
        ("sweep", "--initial", "eg", "--tail-tol", "0"),
        ("sweep", "--initial", "eg", "--cutoff", "3,3", "--tail-tol", "nan"),
        ("check", "--cutoff", "1,1"),
        ("check", "--tol", "nan"),
        ("check", "--tol", "inf"),
    ]
    for args in bad_calls:
        res = run_cli(*args)
        assert res.returncode == 1, (args, res.stdout, res.stderr)
        assert res.stderr  # some diagnostic lands on stderr


def test_large_sweep_warns_before_running(monkeypatch, capsys, tmp_path):
    # mixed runs four kernel passes over the grid at every time sample
    cutoff = FockCutoff.choose(0.2, 0.5, cli.DEFAULT_TAIL_TOL)
    terms = (cutoff.n_max1 + 1) * (cutoff.n_max2 + 1) * 5 * 4
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
    assert (tmp_path / "mixed.csv").read_bytes() == quiet


def test_default_sweep_writes_nothing_to_stderr(capsys):
    assert cli.main(["sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 5 + 1 + 1001  # provenance, header, one row per time
