"""Each script under scripts/ runs to its end on a tiny budget.

The scripts call the package's internals directly, so an API change that
breaks one shows here. Each runs in a child process from `tmp_path`, which
is the only place it writes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ckml.cli import main

REPO = Path(__file__).resolve().parent.parent


def run_script(name, args, cwd):
    """The script's output lines; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name, args, last", [
    ("run_ablation_study.py", ["--seeds", "1", "--epochs", "1"],
     r"specific_only +\d\.\d{4} +\d\.\d{4}"),
    ("run_hyper_sweeps.py", ["--epochs", "1"], r"  ngcf  : ndcg@10=\d\.\d{4}"),
    ("run_interest_spread.py", ["--seeds", "1", "--out", "spread.jsonl"],
     r"wrote spread\.jsonl")])
def test_synthetic_study_script_runs(tmp_path, name, args, last):
    lines = run_script(name, args, tmp_path)
    assert re.fullmatch(last, lines[-1]), lines[-1]


def test_full_scale_script_trains_a_synthesized_dataset(tmp_path, capsys):
    assert main(["synth", "--config", str(REPO / "configs" / "gradcheck.ini"),
                 "--out", str(tmp_path / "data")]) == 0
    lines = run_script("reproduce_full_scale.py",
                       ["--manifest", str(tmp_path / "data" / "manifest.txt"),
                        "--epochs", "1"], tmp_path)
    assert re.fullmatch(r"best epoch [01]: NDCG@10=\d\.\d{4}", lines[-1]), lines[-1]


def test_count_lines_splits_each_file_by_kind(tmp_path):
    source = tmp_path / "m.py"
    source.write_text('"""Doc\nstring."""\n\n# a comment\nx = 1  # code\n\n\ndef f():\n'
                      '    """One line."""\n    return x\n')
    lines = run_script("count_lines.py", [str(source)], tmp_path)
    assert lines[-1].split()[1:] == ["10", "3", "3", "1", "3"]
