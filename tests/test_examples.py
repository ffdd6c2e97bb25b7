"""Smoke tests for the example scripts.

Every example must import cleanly and expose a ``main`` entry point.
The two that read per-subscriber deliveries off a memory sink —
quickstart and geo_advertising, a few seconds each — also run end to
end here; CI's example smoke step runs all four.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path):
    spec = importlib.util.spec_from_file_location("example_%s" % path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_has_expected_scripts():
    names = {path.name for path in EXAMPLE_FILES}
    assert {"quickstart.py", "geo_advertising.py", "event_monitoring.py"} <= names
    assert len(EXAMPLE_FILES) >= 3


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_imports_and_has_main(path):
    module = load_example(path)
    assert hasattr(module, "main"), "%s must define main()" % path.name
    assert callable(module.main)


def test_quickstart_runs_end_to_end(capsys):
    module = load_example(EXAMPLES_DIR / "quickstart.py")
    module.main()
    output = capsys.readouterr().out
    assert "Matches delivered" in output
    assert "throughput" in output.lower()


def test_geo_advertising_runs_end_to_end(capsys):
    module = load_example(EXAMPLES_DIR / "geo_advertising.py")
    module.main()
    output = capsys.readouterr().out
    assert "impressions" in output
    assert "per-campaign impression counts" in output
