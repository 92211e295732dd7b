"""FIXTURES.md §4 as written: SIGKILL the driver process mid-run, rerun,
assert committed partitions survive, output is row-identical to an
uninterrupted run, and no doc_id duplicates. Uses real subprocesses with
their own Ray sessions (the pytest session's Ray is untouched).

The checkpoint runs one streaming execution per call and commits a
partition (one input file) as soon as its rows are accounted for, so
commits arrive in bursts: a kill sent from outside after polling the
manifest landed either after the first burst or after the last one, and
then found all 24 partitions committed. So the runner kills itself: a
wrapper around ``checkpoint._commit_manifest`` (``on_commit`` looks it
up as a module global) sends the runner's own process a real SIGKILL
right after the manifest row of the third commit is written.

Each runner starts its Ray session under its own short temp dir, and
after every run the test stops exactly the processes of that session
(the dashboard agent of a SIGKILLed driver outlives it otherwise); it
never runs a global ``ray stop``, which would stop the test session's
own Ray too."""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_DOCS = 240
N_FILES = 24

RUNNER = """
import glob, os, signal, sys, ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR", _temp_dir=sys.argv[3])
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from unravel_ray import checkpoint
from unravel_ray.checkpoint import run_with_checkpoint_files
from unravel_ray.config import PipelineConfig

src_dir, out_dir, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[4])
if kill_after:
    commit, rows = checkpoint._commit_manifest, []

    def commit_then_kill(out, row):
        commit(out, row)
        rows.append(row)
        if len(rows) == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    checkpoint._commit_manifest = commit_then_kill

cfg = PipelineConfig(ocr_concurrency=1, explode_batch_size=64)
files = glob.glob(os.path.join(src_dir, "*.parquet"))
res = run_with_checkpoint_files(files, out_dir, cfg=cfg)
print("DONE", res["executed"], res["skipped"])
ray.shutdown()
"""


def _write_shards(src_dir):
    import pyarrow.parquet as pq

    from unravel_ray.synth import make_corpus

    os.makedirs(src_dir)
    corpus = make_corpus(N_DOCS)
    per = N_DOCS // N_FILES
    for i in range(N_FILES):
        pq.write_table(corpus.slice(i * per, per),
                       os.path.join(src_dir, f"shard-{i:02d}.parquet"))


def _stop_session(temp_dir):
    """SIGKILL every process whose command line names ``temp_dir`` (the
    runner, its GCS, raylet and agents) and their children (workers
    rename themselves ``ray::...``), then remove the dir."""
    ps = subprocess.run(["ps", "-eo", "pid=,ppid=,args="], capture_output=True,
                        text=True, check=True).stdout
    rows = [line.split(None, 2) + [""] for line in ps.splitlines()]
    named = {int(r[0]) for r in rows if temp_dir in r[2]} - {os.getpid()}
    for pid in named | {int(r[0]) for r in rows if int(r[1]) in named}:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(temp_dir, ignore_errors=True)


def _run(src_dir, out_dir, kill_after_parts=0, timeout=420):
    """Run the runner to its end, or (``kill_after_parts`` > 0) until it
    SIGKILLs itself after that many commits."""
    # AF_UNIX socket paths stop at 107 bytes: keep the session dir short
    ray_tmp = tempfile.mkdtemp(prefix="ray-", dir="/tmp")
    env = dict(os.environ, PYTHONPATH=REPO)
    try:
        p = subprocess.Popen([sys.executable, "-c", RUNNER, src_dir, out_dir,
                              ray_tmp, str(kill_after_parts)],
                             env=env, cwd=REPO, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            pytest.fail("runner did not exit in time")
        if kill_after_parts:
            assert p.returncode == -signal.SIGKILL, \
                f"runner was not SIGKILLed ({p.returncode}): {err[-2000:]}"
            return None
        assert p.returncode == 0, err[-2000:]
        return out
    finally:
        _stop_session(ray_tmp)


@pytest.mark.slow
def test_sigkill_mid_run_then_resume(ray_session, tmp_path):
    import collections

    from unravel_ray.checkpoint import load_extracted, read_manifest

    src = str(tmp_path / "src")
    straight = str(tmp_path / "straight")
    killed = str(tmp_path / "killed")
    _write_shards(src)

    _run(src, straight)

    _run(src, killed, kill_after_parts=3)
    m = read_manifest(killed)
    assert 3 <= len(m) < N_FILES, f"expected a partial manifest, got {sorted(m)}"
    committed_before = set(m)

    out = _run(src, killed)  # resume
    assert "DONE" in out
    m2 = read_manifest(killed)
    assert set(m2) == set(range(N_FILES))
    # committed partitions were not re-executed: their manifest rows unchanged
    for pid in committed_before:
        assert m2[pid] == m[pid]

    a = sorted(load_extracted(straight).take_all(), key=lambda r: r["doc_id"])
    b = sorted(load_extracted(killed).take_all(), key=lambda r: r["doc_id"])
    assert len(b) == N_DOCS
    assert a == b
    ids = [r["doc_id"] for r in b]
    assert not [d for d, c in collections.Counter(ids).items() if c > 1]
