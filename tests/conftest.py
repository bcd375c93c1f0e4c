"""Collects acceptance-criterion results and prints one line each at the end."""

import os

# pyproject's pythonpath puts src/ on sys.path for this process; the CLI tests
# run `python -m twinphoton.cli` in subprocesses, which need it in PYTHONPATH
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

ACCEPTANCE_LINES = []


def record_acceptance(number: int, ok: bool, detail: str):
    ACCEPTANCE_LINES.append((number, f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
