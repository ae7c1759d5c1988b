"""Every demo runs in-process, so an API change that breaks one fails here."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demos_run(capsys):
    paths = sorted(DEMOS.glob("*.py"))
    assert paths
    for path in paths:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, path.name
