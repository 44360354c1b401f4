"""``tools/bench_record.py`` names each checkout by the git tree of its
``src`` directory, hashed from the files, so a checkout exported without
``.git`` is named as git would name it."""

import importlib.util
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
