"""Frozen end-to-end outputs: the seed-7, 10-participant reports and trained
models must match tests/fixtures/golden/ byte for byte.

Two runs of one commit agreeing says nothing about a change between
commits; these fixtures do.  scripts/make_golden_fixtures.py wrote them and
defines what they hold; regenerate them only for a declared output change.
"""

import importlib.util
from pathlib import Path

import pytest

from loadsense import FORMAT_VERSION

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"


@pytest.fixture(scope="module")
def outputs() -> dict[str, bytes]:
    spec = importlib.util.spec_from_file_location("make_golden_fixtures", ROOT / "scripts" / "make_golden_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.golden_outputs()


def test_fixture_set_is_complete(outputs):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(outputs)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_output_matches_golden_bytes(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("report_*.csv")))
def test_report_header_carries_the_format_version(name):
    """The fixtures and FORMAT_VERSION move together: a declared format
    change bumps the version and regenerates the reports."""
    assert (GOLDEN / name).read_text().startswith(f"# format_version={FORMAT_VERSION}\n")
