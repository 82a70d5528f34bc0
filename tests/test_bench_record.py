"""`bench/record.py`'s refusals, which come before any run."""

import importlib.util
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "bench" / "record.py"


def record_main():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_a_checkout_holding_bytecode_is_refused(tmp_path, capsys):
    # the children do not write bytecode, but they would read it
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("raise SystemExit('no run expected')\n")
    cached = checkout / "src" / "betticone" / "__pycache__"
    cached.mkdir(parents=True)
    with pytest.raises(SystemExit) as exit_:
        record_main()(["--out", str(tmp_path / "bench.json"), "--seeds", "1",
                       "--side", f"side={checkout}"])
    assert exit_.value.code == 2
    assert f"--side side: {cached} holds bytecode" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
