"""`analyze` prints the bundled scenarios' reports byte for byte.

The JSON reports are the benchmark's references in
``perfbench/expected``, which this test only reads; the text reports are
the files in ``tests/analyze_output``.
"""

from pathlib import Path

import pytest

from agenda_algebra.cli import main
from agenda_algebra.scenarios import BUNDLED, scenario_text

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = {
    "json": (["--json", "analyze"], ROOT / "perfbench" / "expected", "json"),
    "text": (["analyze"], ROOT / "tests" / "analyze_output", "txt"),
}


@pytest.mark.parametrize("mode", EXPECTED)
@pytest.mark.parametrize("name", BUNDLED)
def test_analyze_output_is_unchanged(name, mode, tmp_path, capsys):
    argv, folder, suffix = EXPECTED[mode]
    path = tmp_path / f"{name}.json"
    path.write_text(scenario_text(name))
    assert main([*argv, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (folder / f"{name}.{suffix}").read_text()
