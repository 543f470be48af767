"""tools/report_diff.py's float comparison: a witness vector's entries are
held relative to the vector's largest magnitude, a scalar relative to
itself."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _passes(base, change):
    """True when the tool would accept change against base."""
    diffs, floats = [], []
    worst, _ = report_diff.compare(base, change, "", diffs, floats)
    return not diffs and not floats and worst <= report_diff.REL_TOL


def test_small_coefficient_moved_by_rounding_passes():
    base = {"witness": {"coefficients": [0.5, -0.25, 1e-6]}}
    change = {"witness": {"coefficients": [0.5, -0.25, 1e-6 + 1e-14]}}
    assert _passes(base, change)


def test_small_scalar_moved_by_rounding_fails():
    assert not _passes({"value": 1e-6}, {"value": 1e-6 + 1e-14})


def test_coefficient_moved_beyond_tolerance_of_the_top_entry_fails():
    base = {"witness": {"coefficients": [0.5, -0.25, 1e-6]}}
    change = {"witness": {"coefficients": [0.5, -0.25, 1e-6 + 1e-11 * 0.5]}}
    assert not _passes(base, change)
