"""python -m unravel_ray drives the flagship end to end in a fresh
process (the `ray job submit` surface)."""

import json
import os
import subprocess
import sys


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _corpus(tmp_path):
    """120 synth docs written as parquet files under tmp_path/docs; returns
    (docs dir, env for CLI subprocesses)."""
    docs = tmp_path / "docs"
    env = dict(os.environ, PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)  # CLI must default to a local session
    gen = (
        "import ray; ray.init(address='local', num_cpus=2, "
        "include_dashboard=False, logging_level='ERROR');"
        "from unravel_ray.synth import corpus_dataset;"
        f"corpus_dataset(120, block_size=60).write_parquet({str(docs)!r});"
        "ray.shutdown()"
    )
    subprocess.run([sys.executable, "-c", gen], check=True, env=env,
                   cwd=REPO, capture_output=True)
    return docs, env


def _stats(out, env):
    s = subprocess.run(
        [sys.executable, "-m", "unravel_ray", "stats",
         "--input", str(out), "--num-cpus", "2"],
        check=True, env=env, cwd=REPO, capture_output=True,
        text=True)
    return [json.loads(ln) for ln in s.stdout.strip().splitlines()
            if ln.startswith("{")]


def test_cli_extract_and_stats(tmp_path):
    from unravel_ray.checkpoint import read_manifest

    docs, env = _corpus(tmp_path)
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "unravel_ray", "extract",
         "--input", str(docs), "--output", str(out), "--num-cpus", "2"],
        check=True, env=env, cwd=REPO, capture_output=True,
        text=True)
    assert sum(r["n_rows"] for r in read_manifest(str(out)).values()) == 120
    assert sum(r["n_docs"] for r in _stats(out, env)) == 120


def test_cli_stats_reads_committed_output(ray_session, tmp_path, split_victims):
    """stats over a publish dir whose extraction split one doc: the tallies
    count each doc once, the repaired one included, and no marker row."""
    import ray.data

    from unravel_ray.config import PipelineConfig
    from unravel_ray.pipeline import extract_publish
    from unravel_ray.synth import make_corpus

    split_victims({"doc-00000006"})
    out = tmp_path / "pub"
    extract_publish(ray.data.from_arrow(make_corpus(40)),
                    PipelineConfig(ocr_concurrency=1), str(out))
    env = dict(os.environ, PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)
    rows = _stats(out, env)
    assert sum(r["n_docs"] for r in rows) == 40
    assert "__split__" not in {r["status"] for r in rows}


def test_cli_extract_checkpoint_resumes(tmp_path):
    """extract: one partition per input parquet file; a second run over
    the same input commits nothing new."""
    from unravel_ray.checkpoint import read_manifest

    docs, env = _corpus(tmp_path)
    out = tmp_path / "ckpt"
    n_files = len(list(docs.glob("*.parquet")))
    cmd = [sys.executable, "-m", "unravel_ray", "extract",
           "--input", str(docs), "--output", str(out), "--num-cpus", "2"]

    def run():
        r = subprocess.run(cmd, check=True, env=env, cwd=REPO,
                           capture_output=True, text=True)
        return json.loads(r.stdout.strip().splitlines()[-1])

    first = run()
    assert first["executed"] == list(range(n_files)) and first["skipped"] == []
    m = read_manifest(str(out))
    assert set(m) == set(range(n_files))
    assert sum(r["n_rows"] for r in m.values()) == 120
    second = run()
    assert second["executed"] == []
    assert second["skipped"] == list(range(n_files))
