"""The CLI's output on the fixed corpus of ``tools/golden.py`` is the
recorded one, so a change that claims unchanged outputs is checked here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_match_the_recorded_digests():
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden.differences(golden.run_corpus(), recorded) == []
