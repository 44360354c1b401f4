"""``tools/bench_record.py`` names each checkout by the git tree of its
``src`` directory, hashed from the files, so a checkout exported without
``.git`` is named as git would name it, and reads a run's result only from
a strictly valid JSON last line."""

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def load_recorder():
    path = REPO / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(*args, env=None):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_src_tree_equals_git_tree(tmp_path):
    if git("rev-parse", "--git-dir").returncode != 0:
        pytest.skip("not a git checkout")
    # git's own tree of the working files, built in a scratch index
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp_path / "index"))
    assert git("add", "-A", "--", "src", env=env).returncode == 0
    root = git("write-tree", env=env).stdout.strip()
    want = git("rev-parse", f"{root}:src").stdout.strip()
    assert load_recorder().tree_hash(REPO / "src") == want
    if not git("status", "--porcelain", "--", "src").stdout.strip():
        assert want == git("rev-parse", "HEAD:src").stdout.strip()


def test_src_tree_of_an_export_without_git(tmp_path):
    recorder = load_recorder()
    src = tmp_path / "src"
    shutil.copytree(REPO / "src", src)
    (src / "fvadvect" / "__pycache__").mkdir(exist_ok=True)
    (src / "fvadvect" / "__pycache__" / "grid.cpython.pyc").write_bytes(b"\0")
    (src / "empty").mkdir()
    assert recorder.tree_hash(src) == recorder.tree_hash(REPO / "src")
    (src / "fvadvect" / "grid.py").write_text("# changed\n")
    assert recorder.tree_hash(src) != recorder.tree_hash(REPO / "src")


RESULT = {"correct": True, "attempted": 1, "failed": 0,
          "metrics": {"run_s": {"value": 0.25, "unit": "s"}}}


def run_with_output(monkeypatch, text, returncode=0):
    """``run_once`` on a benchmark process that printed ``text``."""
    recorder = load_recorder()

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=text)

    monkeypatch.setattr(recorder.subprocess, "run", fake_run)
    return recorder.run_once(REPO, "stability-table", 1, 1.0, 0)[0]


def test_a_good_last_line_is_the_result(monkeypatch):
    text = '{"provenance": {"numpy": "2"}}\nreport\n' + json.dumps(RESULT) + "\n"
    record = run_with_output(monkeypatch, text)
    assert record == {"exit_code": 0, "correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"run_s": 0.25}}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_metric_is_malformed(monkeypatch, value):
    line = json.dumps(RESULT).replace("0.25", value)
    record = run_with_output(monkeypatch, "report\n" + line + "\n")
    assert record == {"exit_code": 0, "malformed": True, "last_line": line}


def test_a_line_after_the_result_is_malformed(monkeypatch):
    text = json.dumps(RESULT) + "\nRuntimeWarning: overflow encountered in multiply\n"
    record = run_with_output(monkeypatch, text)
    assert record == {"exit_code": 0, "malformed": True,
                      "last_line": "RuntimeWarning: overflow encountered in multiply"}
