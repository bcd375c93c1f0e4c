import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_path = os.path.join(ROOT, "tools", "envelope.py")
_spec = importlib.util.spec_from_file_location("envelope", _path)
envelope = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(envelope)


def test_compare_reports_identical_outputs_and_the_size_of_a_moved_field():
    csv = b"# nbar1=1.0\ngt,A,B\n0.0,1.0,0.0\n0.5,0.25,0.125\n"
    outputs = {"exit": b"0\n", "stdout": b"", "stderr": b"", "file out.csv": csv}
    assert envelope.compare(outputs, dict(outputs)) == (0.0, None)

    moved = dict(outputs, **{"file out.csv": csv.replace(b"0.25,", b"%r," % (0.25 + 1e-15))})
    deviation, first = envelope.compare(outputs, moved)
    assert deviation == pytest.approx(1e-15, rel=0.1)
    assert first == f"file out.csv:4: '0.5,0.25,0.125' != '0.5,{0.25 + 1e-15!r},0.125'"

    # a line that differs in more than its numbers has no numeric size
    worded = dict(outputs, stdout=b"FAIL\n")
    assert envelope.compare(outputs, worded)[0] == float("inf")
