"""scripts/bench_pairs.py names each side of a record by the full hash of
its commit, resolved before any run, so a record made with ``--parent
HEAD`` still names that commit after HEAD moves."""

import importlib.util
import os
import subprocess

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "bench_pairs.py")


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", "-c", "tag.gpgsign=false", *args],
        cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def history(tmp_path, bench_pairs, monkeypatch):
    # two commits on branch "main", the first tagged "base"
    _git(tmp_path, "init", "-q", "-b", "main")
    for n in (1, 2):
        (tmp_path / "f.txt").write_text(f"{n}\n")
        _git(tmp_path, "add", "f.txt")
        _git(tmp_path, "commit", "-q", "-m", f"commit {n}")
        if n == 1:
            _git(tmp_path, "tag", "base")
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    return tmp_path, _git(tmp_path, "rev-parse", "HEAD~1"), _git(tmp_path, "rev-parse", "HEAD")


@pytest.mark.parametrize("ref, which", [
    ("HEAD", 1), ("HEAD~1", 0), ("main", 1), ("base", 0), ("abbrev", 1),
], ids=["head", "head-parent", "branch", "tag", "abbreviated"])
def test_resolve_names_the_full_commit_hash(bench_pairs, history, ref, which):
    root, *commits = history
    if ref == "abbrev":
        ref = commits[1][:8]
    assert bench_pairs.resolve(ref) == commits[which]
    assert len(commits[which]) == 40


def test_resolved_head_still_names_its_commit_after_head_moves(bench_pairs, history):
    root, _, head = history
    resolved = bench_pairs.resolve("HEAD")
    (root / "f.txt").write_text("3\n")
    _git(root, "commit", "-q", "-am", "commit 3")
    assert bench_pairs.resolve("HEAD") != resolved == head


@pytest.mark.parametrize("ref", ["no-such-ref", "HEAD^{tree}", "HEAD~5"],
                         ids=["unknown", "tree", "past-the-root"])
def test_resolve_refuses_a_ref_that_names_no_commit(bench_pairs, history, ref):
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.resolve(ref)
