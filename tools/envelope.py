#!/usr/bin/env python3
"""Compare the CLI's outputs with another commit's, byte for byte, on a fixed corpus.

    python3 tools/envelope.py <commit>

Checks <commit> out with `git worktree add --detach` in a temporary
directory and runs every argv of CORPUS against that tree's src/ and against
the src/ of the working tree this script lives in.  Each run has its own
empty working directory and OPENBLAS_NUM_THREADS=1.  The exit code, stdout,
stderr and every file the run writes are compared byte for byte.  Prints one
line per argv: `identical`, or the largest numeric deviation and the first
differing line.  Argvs named in HEAD_LINES run with their stdout closed
after that many lines, as in `twinphoton check | head -1`.  Exits 0 only
when every argv is identical, 1 when some argv differs and 2 when the commit
cannot be checked out.  The worktree is removed afterwards.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, argv): the benchmark's two sweeps, check, the figure presets, two
# oracle sweeps, edge inputs (a negative zero, a subnormal tail tolerance,
# a one-row Fock set, an enormous mean photon number), two short uniform
# grids the benchmark does not run (a hot field, long times), check into a
# closed pipe, a uniform grid of more times than a trig block holds, a
# one-pair Fock set over many times, a mixture's four kernel passes on
# angle addition and with subnormal weights, the one pure state no other
# argv writes on its own (ge, whose B and C columns differ), and an oracle
# sweep whose every column lies in a one-state block (gg with mode 1 empty)
CORPUS = [
    ("sweep-eg", ["sweep", "--initial", "eg", "--nbar1", "1.0", "--nbar2", "1.0",
                  "--tmax", "10.0", "--steps", "1000", "--out", "out.csv"]),
    ("sweep-mixed-hot", ["sweep", "--initial", "mixed", "--lambda", "0.05", "--nbar1", "3.0",
                         "--nbar2", "10.0", "--tmax", "10.0", "--steps", "10", "--out", "out.csv"]),
    ("check", ["check"]),
    ("check-34", ["check", "--cutoff", "34,34", "--tol", "1e-13"]),
    ("figure-1", ["figure", "--preset", "1"]),
    ("figure-2", ["figure", "--preset", "2"]),
    ("figure-3", ["figure", "--preset", "3"]),
    ("oracle-ee", ["sweep", "--initial", "ee", "--nbar1", "0.3", "--nbar2", "0.7", "--oracle",
                   "--cutoff", "12,12", "--steps", "60"]),
    ("oracle-mixed", ["sweep", "--oracle", "--initial", "mixed", "--lambda", "0.3",
                      "--nbar1", "0.5", "--nbar2", "2", "--cutoff", "8,12", "--steps", "60"]),
    ("nbar-negative-zero", ["sweep", "--initial", "eg", "--nbar1", "-0.0", "--nbar2", "1"]),
    ("subnormal-tail-tol", ["sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1",
                            "--tail-tol", "1e-320", "--steps", "2"]),
    ("one-row-set", ["sweep", "--initial", "eg", "--nbar1", "0", "--nbar2", "2.66"]),
    ("check-nbar-1e17", ["check", "--nbar1", "1e17"]),
    ("sweep-ee-hot-41", ["sweep", "--initial", "ee", "--nbar1", "10", "--nbar2", "10",
                         "--steps", "40"]),
    ("sweep-eg-tmax-200", ["sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1",
                           "--tmax", "200", "--steps", "40"]),
    ("check-stdout-closed", ["check"]),
    ("sweep-long-grid", ["sweep", "--initial", "eg", "--nbar1", "1", "--nbar2", "1",
                         "--steps", "20000"]),
    ("one-pair-many-times", ["sweep", "--initial", "gg", "--nbar1", "0", "--nbar2", "0",
                             "--steps", "5000"]),
    ("mixed-hot-1001", ["sweep", "--initial", "mixed", "--lambda", "0.3", "--nbar1", "10",
                        "--nbar2", "10"]),
    ("mixed-subnormal-tail-tol", ["sweep", "--initial", "mixed", "--lambda", "0.3",
                                  "--nbar1", "1", "--nbar2", "1", "--tail-tol", "1e-320",
                                  "--steps", "2"]),
    ("sweep-ge", ["sweep", "--initial", "ge", "--nbar1", "0.3", "--nbar2", "2",
                  "--steps", "200"]),
    ("oracle-one-row", ["sweep", "--oracle", "--initial", "gg", "--nbar1", "0", "--nbar2", "2",
                        "--cutoff", "0,40", "--steps", "200"]),
]

# argvs whose stdout pipe is closed after this many lines
HEAD_LINES = {"check-stdout-closed": 1}

NUMBER = re.compile(r"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run(src: str, argv: list[str], cwd: str, lines: int | None = None) -> dict[str, bytes]:
    """One CLI run on the package in ``src``, in ``cwd``: its outputs as named byte strings.

    With ``lines``, stdout is read up to that many lines and then closed;
    the lines read are the run's stdout.
    """
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "twinphoton.cli", *argv]
    pipe = subprocess.PIPE
    with subprocess.Popen(command, cwd=cwd, env=env, stdout=pipe, stderr=pipe) as proc:
        if lines is None:
            stdout, stderr = proc.communicate()
        else:
            stdout = b"".join(proc.stdout.readline() for _ in range(lines))
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait()
    outputs = {"exit": b"%d\n" % proc.returncode, "stdout": stdout, "stderr": stderr}
    for directory, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                outputs["file " + os.path.relpath(path, cwd)] = f.read()
    return outputs


def _line_deviation(a: str | None, b: str | None) -> float:
    """Largest |x - y| over the numbers of two lines that read alike but for them, else inf."""
    if a is None or b is None or NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return math.inf
    deviation = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            deviation = max(deviation, abs(x - y) if math.isfinite(x - y) else math.inf)
    return deviation


def compare(parent: dict[str, bytes], this: dict[str, bytes]) -> tuple[float, str | None]:
    """(deviation, first) between two runs' outputs; first is None when they are identical.

    deviation is the largest numeric deviation over the differing lines, inf
    where two lines differ in more than their numbers or an output is
    missing on one side; first names the first differing line as
    'output:line: parent != this'.
    """
    deviation, first = 0.0, None
    for name in sorted(parent.keys() | this.keys()):
        a, b = parent.get(name), this.get(name)
        if a == b:
            continue
        if a is None or b is None:
            deviation = math.inf
            first = first or f"{name}: written by one side only"
            continue
        lines = itertools.zip_longest(
            a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
        )
        differing = [(number, x, y) for number, (x, y) in enumerate(lines, 1) if x != y]
        if differing:
            number, x, y = differing[0]
            first = first or f"{name}:{number}: {x!r} != {y!r}"
            deviation = max([deviation] + [_line_deviation(x, y) for _, x, y in differing])
        else:  # the same lines, so the bytes differ in their line endings
            deviation = math.inf
            first = first or f"{name}: line endings"
    return deviation, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit", help="the commit to compare the working tree's outputs with")
    commit = parser.parse_args(argv).commit
    tmp = tempfile.mkdtemp(prefix="envelope-")
    tree = os.path.join(tmp, "tree")
    try:
        added = subprocess.run(
            ["git", "-C", ROOT, "worktree", "add", "--detach", tree, commit],
            capture_output=True, text=True,
        )
        if added.returncode:
            print(f"envelope: {added.stderr.strip()}", file=sys.stderr)
            return 2
        identical = True
        for name, corpus_argv in CORPUS:
            runs = []
            for side, root in (("parent", tree), ("this", ROOT)):
                cwd = os.path.join(tmp, side, name)
                os.makedirs(cwd)
                src = os.path.join(root, "src")
                runs.append(run(src, corpus_argv, cwd, HEAD_LINES.get(name)))
            deviation, first = compare(*runs)
            if first is None:
                print(f"{name}: identical")
            else:
                identical = False
                size = "not numeric" if math.isinf(deviation) else f"{deviation:.3g}"
                print(f"{name}: max numeric deviation {size}; first differing line {first}")
        return 0 if identical else 1
    finally:
        remove = ["git", "-C", ROOT, "worktree", "remove", "--force", tree]
        subprocess.run(remove, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
