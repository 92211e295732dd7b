"""Checkpoint/resume correctness (FIXTURES.md §4, D1 semantics):
interrupt after K committed partitions, rerun, assert (a) committed
partitions are skipped, (b) final table row-identical to an uninterrupted
run, (c) no duplicate doc_id."""

import collections
import os

import pytest

import ray.data

import ray.data as _rd  # noqa: F401

from unravel_ray.checkpoint import (
    PartitionInterrupted,
    load_extracted,
    read_manifest,
    run_with_checkpoint,
)
from unravel_ray.config import PipelineConfig
from unravel_ray.synth import make_corpus

N_DOCS = 200
N_PARTS = 6
CFG = PipelineConfig(reassemble_buckets=8, ocr_concurrency=1, explode_batch_size=64)


def _make_docs():
    return ray.data.from_arrow(make_corpus(N_DOCS))


def _rows(out_dir):
    rows = load_extracted(out_dir).take_all()
    return sorted(rows, key=lambda r: r["doc_id"])


def test_kill_and_resume(ray_session, tmp_path):
    straight = tmp_path / "straight"
    resumed = tmp_path / "resumed"

    # uninterrupted baseline
    res = run_with_checkpoint(_make_docs, str(straight), N_PARTS, CFG)
    assert res["executed"] == list(range(N_PARTS))

    # interrupted after 3 commits
    with pytest.raises(PartitionInterrupted):
        run_with_checkpoint(_make_docs, str(resumed), N_PARTS, CFG, fail_after=3)
    m = read_manifest(str(resumed))
    assert len(m) == 3

    # resume completes only the pending partitions
    res2 = run_with_checkpoint(_make_docs, str(resumed), N_PARTS, CFG)
    assert sorted(res2["skipped"]) == sorted(m.keys())
    assert len(res2["executed"]) == N_PARTS - 3

    a, b = _rows(str(straight)), _rows(str(resumed))
    assert len(a) == N_DOCS
    assert a == b  # row-identical output

    ids = [r["doc_id"] for r in b]
    dupes = [d for d, c in collections.Counter(ids).items() if c > 1]
    assert not dupes


def test_manifest_lineage_fields(ray_session, tmp_path):
    out = tmp_path / "o"
    run_with_checkpoint(_make_docs, str(out), 4, CFG)
    m = read_manifest(str(out))
    assert set(m) == {0, 1, 2, 3}
    total_rows = sum(r["n_rows"] for r in m.values())
    assert total_rows == N_DOCS
    for r in m.values():
        assert r["n_rows"] == r["n_completed"] + r["n_failed"]
        assert ":" in r["input_fingerprint"]
        assert r["wall_time_s"] >= 0


def test_verify_inputs_invalidates_changed_partition(ray_session, tmp_path):
    """verify_inputs=True must re-extract a partition whose SOURCE rows
    changed (same doc ids, edited content) and leave others untouched."""
    import pyarrow as pa

    from unravel_ray.schema import DOCS_SCHEMA

    out = str(tmp_path / "vi")
    base = make_corpus(80).to_pylist()

    def make_v1():
        return ray.data.from_arrow(pa.Table.from_pylist(base, schema=DOCS_SCHEMA))

    run_with_checkpoint(make_v1, out, 4, CFG)
    m1 = read_manifest(out)

    # edit ONE doc's content (same id)
    edited = [dict(r) for r in base]
    victim = next(r for r in edited if r["spans"] and r["spans"][0]["kind"] == "html")
    victim["spans"] = [dict(victim["spans"][0], text="<p>changed content</p>")]

    def make_v2():
        return ray.data.from_arrow(pa.Table.from_pylist(edited, schema=DOCS_SCHEMA))

    # plain resume skips everything (crash-resume contract)
    res_plain = run_with_checkpoint(make_v2, out, 4, CFG)
    assert res_plain["executed"] == []

    # verified resume re-runs exactly the victim's partition
    res = run_with_checkpoint(make_v2, out, 4, CFG, verify_inputs=True)
    assert len(res["executed"]) == 1
    m2 = read_manifest(out)
    changed = res["executed"][0]
    assert m2[changed]["input_fingerprint"] != m1[changed]["input_fingerprint"]
    for pid in res["skipped"]:
        assert m2[pid] == m1[pid]

    rows = {r["doc_id"]: r for r in load_extracted(out).take_all()}
    assert any(s["text"] == "changed content" for s in rows[victim["doc_id"]]["spans"])


def test_fragment_aligned_checkpoint(ray_session, tmp_path):
    """Partitions = input files; each partition reads only its shard;
    a touched file invalidates exactly its partition."""
    import os
    import time as _time

    import pyarrow.parquet as pq

    from unravel_ray.checkpoint import run_with_checkpoint_files

    src = tmp_path / "src"
    src.mkdir()
    corpus = make_corpus(120)
    files = []
    for i in range(4):
        f = str(src / f"shard-{i}.parquet")
        pq.write_table(corpus.slice(i * 30, 30), f)
        files.append(f)

    out = str(tmp_path / "out")
    res = run_with_checkpoint_files(files, out, files_per_partition=1, cfg=CFG)
    assert res["executed"] == [0, 1, 2, 3]
    assert load_extracted(out).count() == 120

    # no-op resume
    res2 = run_with_checkpoint_files(files, out, files_per_partition=1, cfg=CFG)
    assert res2["executed"] == [] and len(res2["skipped"]) == 4

    # touching one file invalidates exactly that partition
    _time.sleep(1.1)
    pq.write_table(corpus.slice(60, 30), files[2])
    os.utime(files[2])
    res3 = run_with_checkpoint_files(files, out, files_per_partition=1, cfg=CFG)
    assert res3["executed"] == [2]
    assert load_extracted(out).count() == 120


def test_checkpoint_repairs_split_docs_streaming(ray_session, tmp_path, monkeypatch):
    """Force fragment markers inside the checkpointed partition write: the
    footer audit must place an exact recompute in data-repair.parquet and
    load_extracted must return the complete doc set, marker-free."""
    import pyarrow as pa

    import unravel_ray.pipeline as P
    from unravel_ray.checkpoint import load_extracted, run_with_checkpoint
    from unravel_ray.schema import SPLIT_MARKER_STATUS
    from unravel_ray.synth import make_corpus

    corpus = make_corpus(24)
    victim = corpus["doc_id"][5].as_py()
    real_core = P._build_extraction_core

    def broken_core(docs, cfg):
        ds = real_core(docs, cfg)

        def sabotage(t: pa.Table) -> pa.Table:
            from unravel_ray.schema import EXTRACTED_SCHEMA as ES
            from unravel_ray.schema import SPLIT_MARKER_STATUS as SMS

            rows = []
            for r in t.to_pylist():
                if r["doc_id"] == "doc-00000005":
                    m = dict(r, spans=[], status=SMS, error_message=None,
                             provider=None, n_spans=0, n_chars=0,
                             confidence_micros=None, language_detected=None)
                    rows.extend([m, dict(m)])
                else:
                    rows.append(r)
            return pa.Table.from_pylist(rows, schema=ES)

        return ds.map_batches(sabotage, batch_format="pyarrow")

    monkeypatch.setattr(P, "_build_extraction_core", broken_core)
    out = str(tmp_path / "ckpt_split")

    def make_docs():
        import ray.data

        return ray.data.from_arrow(corpus)

    run_with_checkpoint(make_docs, out, n_partitions=3, cfg=CFG)
    import os

    repair_files = [
        os.path.join(out, d, "data-repair.parquet")
        for d in os.listdir(out) if d.startswith("part-")
        if os.path.exists(os.path.join(out, d, "data-repair.parquet"))
    ]
    assert len(repair_files) == 1  # the victim's partition got a repair file
    rows = load_extracted(out).take_all()
    assert len(rows) == 24
    assert all(r["status"] != SPLIT_MARKER_STATUS for r in rows)
    fixed = next(r for r in rows if r["doc_id"] == victim)
    assert fixed["status"] in ("completed", "failed")
    assert victim == "doc-00000005"


def _write_shards(src, corpus, n_files):
    import pyarrow.parquet as pq

    src.mkdir()
    per = corpus.num_rows // n_files
    files = []
    for i in range(n_files):
        f = str(src / f"shard-{i}.parquet")
        pq.write_table(corpus.slice(i * per, per), f)
        files.append(f)
    return files


def test_files_checkpoint_kill_and_resume(ray_session, tmp_path):
    """One execution per call: fail_after=3 abandons it after three
    commits; the resume runs only the other three and the result equals
    an uninterrupted run row for row."""
    from unravel_ray.checkpoint import run_with_checkpoint_files

    files = _write_shards(tmp_path / "src", make_corpus(180), 6)
    straight, resumed = str(tmp_path / "straight"), str(tmp_path / "resumed")
    assert run_with_checkpoint_files(files, straight, cfg=CFG)["executed"] == list(range(6))

    with pytest.raises(PartitionInterrupted):
        run_with_checkpoint_files(files, resumed, cfg=CFG, fail_after=3)
    m = read_manifest(resumed)
    assert len(m) == 3

    res = run_with_checkpoint_files(files, resumed, cfg=CFG)
    assert res["skipped"] == sorted(m)
    assert res["executed"] == sorted(set(range(6)) - set(m))

    a, b = _rows(straight), _rows(resumed)
    assert len(a) == 180
    assert a == b
    ids = [r["doc_id"] for r in b]
    assert len(ids) == len(set(ids))
    assert sum(r["n_rows"] for r in read_manifest(resumed).values()) == 180
    assert not [d for d in os.listdir(resumed) if d.startswith(".tmp-part-")]


def test_files_checkpoint_repairs_split_docs(ray_session, tmp_path, monkeypatch):
    """Split markers inside the one-execution files variant: the commit
    recomputes the marked doc into data-repair.parquet and load_extracted
    returns the complete doc set, marker-free."""
    import pyarrow as pa

    import unravel_ray.pipeline as P
    from unravel_ray.checkpoint import run_with_checkpoint_files
    from unravel_ray.schema import SPLIT_MARKER_STATUS

    victim = "doc-00000005"
    real_core = P._build_extraction_core

    def sabotage(t: pa.Table) -> pa.Table:
        rows = []
        for r in t.to_pylist():
            if r["doc_id"] == victim:
                m = dict(r, spans=[], status=SPLIT_MARKER_STATUS,
                         error_message=None, provider=None, n_spans=0,
                         n_chars=0, confidence_micros=None,
                         language_detected=None)
                rows.extend([m, dict(m)])
            else:
                rows.append(r)
        return pa.Table.from_pylist(rows, schema=t.schema)  # keeps the tag

    monkeypatch.setattr(P, "_build_extraction_core", lambda docs, cfg: real_core(
        docs, cfg).map_batches(sabotage, batch_format="pyarrow"))
    files = _write_shards(tmp_path / "src", make_corpus(24), 3)
    out = str(tmp_path / "out")
    res = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res["executed"] == [0, 1, 2]

    repair_files = [d for d in os.listdir(out) if d.startswith("part-")
                    and os.path.exists(os.path.join(out, d, "data-repair.parquet"))]
    assert repair_files == ["part-0"]  # doc 5 lives in the first shard
    rows = load_extracted(out).take_all()
    assert sorted(r["doc_id"] for r in rows) == [f"doc-{i:08d}" for i in range(24)]
    assert all(r["status"] != SPLIT_MARKER_STATUS for r in rows)
    assert next(r for r in rows if r["doc_id"] == victim)["status"] in (
        "completed", "failed")
    assert sum(r["n_rows"] for r in read_manifest(out).values()) == 24


def test_files_checkpoint_commits_empty_partition(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from unravel_ray.checkpoint import run_with_checkpoint_files

    files = _write_shards(tmp_path / "src", make_corpus(40), 2)
    empty = str(tmp_path / "src" / "shard-2.parquet")
    pq.write_table(make_corpus(1).slice(0, 0), empty)
    out = str(tmp_path / "out")
    res = run_with_checkpoint_files(files + [empty], out, cfg=CFG)
    assert res == {"executed": [0, 1, 2], "skipped": []}
    m = read_manifest(out)
    assert m[2]["n_rows"] == 0 and m[2]["n_completed"] == 0
    assert os.path.isdir(os.path.join(out, "part-2"))
    assert load_extracted(out).count() == 40


def test_files_checkpoint_rejects_shuffle_reassembly(tmp_path):
    from unravel_ray.checkpoint import run_with_checkpoint_files

    with pytest.raises(ValueError):
        run_with_checkpoint_files([], str(tmp_path / "out"),
                                  cfg=PipelineConfig(reassembly="shuffle"))
