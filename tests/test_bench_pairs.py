"""scripts/bench_pairs.py names each side of a record by the full hash of
its commit, resolved before any run, so a record made with ``--parent
HEAD`` still names that commit after HEAD moves, and it tells a run that
failed only on the traced layer accounting check from one that failed on
any other check."""

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


_ACCOUNTING = "output check: layer self times add up to 0.5063 s of a 0.5001 s sweep"


@pytest.mark.parametrize("correct, stderr, kind", [
    (True, "", None),
    (False, _ACCOUNTING, "accounting_only"),
    (False, "\n".join([_ACCOUNTING, "progress 3/10", _ACCOUNTING]), "accounting_only"),
    (False, "\n".join([_ACCOUNTING, "output check: traced artifact differs from the untraced one"]),
     "other"),
    (False, "\n".join([_ACCOUNTING, "check: completed 9 + rejected 2 != 10 trials"]), "other"),
    (False, "output check: layer counts differ between sweeps of one seed", "other"),
    (False, "check: no traced sweep completed", "other"),
    (False, "sweep failed: boom", "other"),
    (False, "", "other"),
], ids=["passed", "accounting", "accounting-twice", "with-artifact", "with-count", "layer-counts",
        "no-traced-sweep", "no-check-line", "silent"])
def test_failure_kind_separates_the_accounting_check_from_the_others(bench_pairs, correct,
                                                                      stderr, kind):
    assert bench_pairs.failure_kind(correct, stderr) == kind
