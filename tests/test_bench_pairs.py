import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def repo(tmp_path):
    """A git repository with two commits of a stand-in checkout."""
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "perfbench" / "run.py").write_text("print('first')\n")
    (root / "BENCHMARK.json").write_text("{}\n")
    (root / "notes.txt").write_text("not copied\n")

    def git(*argv):
        subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (root / "perfbench" / "run.py").write_text("print('second')\n")
    git("commit", "-q", "-am", "second")
    return root


def test_parent_may_be_a_revision(bench_pairs, repo, tmp_path):
    args = bench_pairs.parse_args(["--parent", "HEAD~1", "--change", str(repo), "--seed", "1",
                                   "--out", str(tmp_path / "out.json")])
    assert args.parent_commit and len(args.parent_commit) == 40
    dst = tmp_path / "parent"
    bench_pairs.extract_commit(str(repo), args.parent_commit, str(dst))
    assert (dst / "perfbench" / "run.py").read_text() == "print('first')\n"
    assert (dst / "BENCHMARK.json").is_file()
    assert not (dst / "notes.txt").exists()


def test_parent_checkout_is_not_a_revision(bench_pairs, repo, tmp_path):
    args = bench_pairs.parse_args(["--parent", str(repo), "--change", str(repo), "--seed", "1",
                                   "--out", str(tmp_path / "out.json")])
    assert args.parent_commit is None


def test_unknown_parent_is_refused(bench_pairs, repo, tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "no-such-revision", "--change", str(repo),
                                "--seed", "1", "--out", str(tmp_path / "out.json")])


def test_pair_line_shows_every_metric(bench_pairs):
    metrics = [{"name": "ops_per_s"}, {"name": "setup_s"}, {"name": "peak_rss_mb"}]
    values = {"parent": (150.0, 0.157, 140.5), "change": (152.0, 0.0612, 140.25)}
    pair = {side: {"metrics": {spec["name"]: {"value": v}
                               for spec, v in zip(metrics, values[side])}}
            for side in values}
    assert bench_pairs.pair_line("fit-n4096", 561, pair, metrics) == (
        "fit-n4096 seed 561: ops_per_s parent 150 change 152; "
        "setup_s parent 0.157 change 0.0612; peak_rss_mb parent 140.5 change 140.25")


def test_counts_line_shows_each_run(bench_pairs):
    attempted_failed = {"parent": [[24, 6], [24, 6]], "change": [[24, 6], [23, 5]]}
    assert bench_pairs.counts_line(attempted_failed) == (
        "  failed/attempted: parent 6/24 6/24; change 6/24 5/23")
