"""Replay the golden CLI corpus in process: every case must give the
recorded exit code, stdout and stderr byte for byte.

The corpus is written by ``tests/golden/record.py``; see that file for
how and when to re-record it.
"""

import json
from pathlib import Path

import pytest

from betticone.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_replay(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
