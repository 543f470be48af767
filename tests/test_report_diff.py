"""tools/report_diff.py's float comparison: a witness vector's entries are
held relative to the vector's largest magnitude, a residual field against
an absolute floor, any other scalar relative to itself."""
import importlib.util
from pathlib import Path

import pytest

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


def test_residual_fields_at_rounding_level_pass():
    # the values a reconstruction error and a round-trip gap take from one
    # rounding to another: relative 0.73 and 0.33, both far below 1e-12
    base = {"reconstruction_error": 4e-17, "roundtrip_max_gap": 8.9e-16,
            "failures": [{"gap": 3e-13}]}
    change = {"reconstruction_error": 1.5e-16, "roundtrip_max_gap": 1.33e-15,
              "failures": [{"gap": 5e-13}]}
    assert _passes(base, change)


@pytest.mark.parametrize("base, change", [
    ({"identity_residual_max": 1e-13}, {"identity_residual_max": 2e-12}),
    ({"max_reconstruction_error": 1e-16}, {"max_reconstruction_error": None}),
    ({"value": 4e-17}, {"value": 1.5e-16}),
], ids=["residual-above-the-floor", "residual-not-a-number", "other-field"])
def test_residual_floor_holds_only_for_residual_fields_below_it(base, change):
    assert not _passes(base, change)
