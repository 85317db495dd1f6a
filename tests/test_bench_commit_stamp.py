"""The commit a benchmark artefact is stamped with: the checked-out hash
for a clean tree, ``<hash>-dirty`` for a tree with changes, so numbers
regenerated before their commit exists never carry the parent's hash."""

import importlib.util
import os
import subprocess

BENCH_CONFTEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "conftest.py")


def _current_commit():
    spec = importlib.util.spec_from_file_location("_bench_conftest",
                                                  BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._current_commit


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
         "-c", "commit.gpgsign=false"] + list(args),
        cwd=str(repo), check=True, capture_output=True, text=True,
    ).stdout.strip()


def _repo(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    return _git(tmp_path, "rev-parse", "HEAD")


def test_a_clean_tree_is_stamped_with_its_commit(tmp_path):
    head = _repo(tmp_path)
    assert _current_commit()(str(tmp_path)) == head


def test_a_dirty_tree_is_stamped_dirty(tmp_path):
    head = _repo(tmp_path)
    (tmp_path / "a.txt").write_text("two\n")
    assert _current_commit()(str(tmp_path)) == head + "-dirty"
    (tmp_path / "a.txt").write_text("one\n")
    (tmp_path / "new.txt").write_text("untracked\n")
    assert _current_commit()(str(tmp_path)) == head + "-dirty"


def test_outside_a_checkout_there_is_no_commit(tmp_path):
    assert _current_commit()(str(tmp_path)) is None
