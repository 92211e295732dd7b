"""Checkpoint/resume correctness (FIXTURES.md §4, D1 semantics):
interrupt after K committed partitions, rerun, assert (a) committed
partitions are skipped, (b) final table row-identical to an uninterrupted
run, (c) no duplicate doc_id."""

import os

import pytest

from unravel_ray.checkpoint import (
    PartitionInterrupted,
    load_extracted,
    read_manifest,
    run_with_checkpoint_files,
)
from unravel_ray.config import PipelineConfig
from unravel_ray.synth import make_corpus

CFG = PipelineConfig(ocr_concurrency=1, explode_batch_size=64)


def _rows(out_dir):
    rows = load_extracted(out_dir).take_all()
    return sorted(rows, key=lambda r: r["doc_id"])


def test_fragment_aligned_checkpoint(ray_session, tmp_path):
    """Partitions = input files; each partition reads only its shard;
    a touched file invalidates exactly its partition."""
    import os
    import time as _time

    import pyarrow.parquet as pq

    src = tmp_path / "src"
    src.mkdir()
    corpus = make_corpus(120)
    files = []
    for i in range(4):
        f = str(src / f"shard-{i}.parquet")
        pq.write_table(corpus.slice(i * 30, 30), f)
        files.append(f)

    out = str(tmp_path / "out")
    res = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res["executed"] == [0, 1, 2, 3]
    assert load_extracted(out).count() == 120

    # no-op resume
    res2 = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res2["executed"] == [] and len(res2["skipped"]) == 4

    # touching one file invalidates exactly that partition
    _time.sleep(1.1)
    pq.write_table(corpus.slice(60, 30), files[2])
    os.utime(files[2])
    res3 = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res3["executed"] == [2]
    assert load_extracted(out).count() == 120


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


def test_manifest_lineage_fields(ray_session, tmp_path):
    files = _write_shards(tmp_path / "src", make_corpus(120), 4)
    out = str(tmp_path / "o")
    run_with_checkpoint_files(files, out, cfg=CFG)
    m = read_manifest(out)
    assert set(m) == {0, 1, 2, 3}
    assert sum(r["n_rows"] for r in m.values()) == 120
    for pid, r in m.items():
        assert r["n_rows"] == r["n_completed"] + r["n_failed"]
        assert r["input_fingerprint"].startswith(f"shard-{pid}.parquet:")
        assert r["wall_time_s"] >= 0


def test_kill_and_resume(ray_session, tmp_path):
    """Two interrupted calls in a row, then a clean one: each call runs
    only what the earlier calls left pending, committed manifest rows
    never change, and no row of an abandoned execution reaches the table."""
    files = _write_shards(tmp_path / "src", make_corpus(200), 5)
    out = str(tmp_path / "out")
    with pytest.raises(PartitionInterrupted):
        run_with_checkpoint_files(files, out, cfg=CFG, fail_after=2)
    first = read_manifest(out)
    assert len(first) == 2

    with pytest.raises(PartitionInterrupted):
        run_with_checkpoint_files(files, out, cfg=CFG, fail_after=2)
    second = read_manifest(out)
    assert len(second) == 4
    assert {pid: second[pid] for pid in first} == first

    res = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res["skipped"] == sorted(second)
    assert res["executed"] == sorted(set(range(5)) - set(second))
    ids = [r["doc_id"] for r in _rows(out)]
    assert ids == [f"doc-{i:08d}" for i in range(200)]  # each doc once
    m = read_manifest(out)
    assert {pid: m[pid] for pid in second} == second
    assert sum(r["n_rows"] for r in m.values()) == 200
    assert not [d for d in os.listdir(out) if d.startswith(".tmp-part-")]


def test_verify_inputs_invalidates_changed_partition(ray_session, tmp_path):
    """Editing one doc's content (same doc ids) in one input file re-runs
    exactly that file's partition; the other manifest rows stay as they
    were and the output carries the new content."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = make_corpus(80)
    files = _write_shards(tmp_path / "src", corpus, 4)
    out = str(tmp_path / "vi")
    run_with_checkpoint_files(files, out, cfg=CFG)
    m1 = read_manifest(out)

    base = corpus.to_pylist()
    pos = next(i for i, r in enumerate(base)
               if r["spans"] and r["spans"][0]["kind"] == "html")
    victim = base[pos]
    victim["spans"] = [dict(victim["spans"][0], text="<p>changed content</p>")]
    changed = pos // 20
    path = files[changed]
    pq.write_table(pa.Table.from_pylist(base[changed * 20:(changed + 1) * 20],
                                        schema=corpus.schema), path)
    st = os.stat(path)
    os.utime(path, (st.st_atime, st.st_mtime + 5))  # a later whole second

    res = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res["executed"] == [changed]
    m2 = read_manifest(out)
    assert m2[changed]["input_fingerprint"] != m1[changed]["input_fingerprint"]
    for pid in res["skipped"]:
        assert m2[pid] == m1[pid]

    rows = {r["doc_id"]: r for r in load_extracted(out).take_all()}
    assert len(rows) == 80
    assert any(s["text"] == "changed content" for s in rows[victim["doc_id"]]["spans"])


def test_files_checkpoint_kill_and_resume(ray_session, tmp_path):
    """One execution per call: fail_after=3 abandons it after three
    commits; the resume runs only the other three and the result equals
    an uninterrupted run row for row."""
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


def _repaired_parts(out):
    return sorted(pid for pid, m in read_manifest(out).items()
                  if m["n_split_repaired"])


def test_files_checkpoint_repairs_split_docs(ray_session, tmp_path, split_victims):
    """Split markers inside the one-execution files variant: the commit
    recomputes the marked doc into the partition's attempt dir and
    load_extracted returns the complete doc set, marker-free."""
    from unravel_ray.schema import SPLIT_MARKER_STATUS

    victim = "doc-00000005"
    split_victims({victim})
    files = _write_shards(tmp_path / "src", make_corpus(24), 3)
    out = str(tmp_path / "out")
    res = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res["executed"] == [0, 1, 2]

    assert _repaired_parts(out) == [0]  # doc 5 lives in the first shard
    rows = load_extracted(out).take_all()
    assert sorted(r["doc_id"] for r in rows) == [f"doc-{i:08d}" for i in range(24)]
    assert all(r["status"] != SPLIT_MARKER_STATUS for r in rows)
    assert next(r for r in rows if r["doc_id"] == victim)["status"] in (
        "completed", "failed")
    assert sum(r["n_rows"] for r in read_manifest(out).values()) == 24


def test_checkpoint_repairs_split_docs_streaming(ray_session, tmp_path, split_victims):
    """Split docs in two partitions of an interrupted, then resumed run:
    each partition commits its own exact recompute, so the final table
    equals a run without split docs row for row."""
    files = _write_shards(tmp_path / "src", make_corpus(24), 3)
    clean = str(tmp_path / "clean")
    run_with_checkpoint_files(files, clean, cfg=CFG)

    split_victims({"doc-00000005", "doc-00000020"})
    out = str(tmp_path / "out")
    with pytest.raises(PartitionInterrupted):
        run_with_checkpoint_files(files, out, cfg=CFG, fail_after=1)
    first = read_manifest(out)
    assert len(first) == 1
    res = run_with_checkpoint_files(files, out, cfg=CFG)
    assert res["skipped"] == sorted(first)
    assert sorted(res["executed"] + res["skipped"]) == [0, 1, 2]

    assert _repaired_parts(out) == [0, 2]  # docs 5 and 20
    assert _rows(out) == _rows(clean)
    assert sum(r["n_rows"] for r in read_manifest(out).values()) == 24


def test_files_checkpoint_commits_empty_partition(ray_session, tmp_path):
    import pyarrow.parquet as pq

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


def test_half_written_manifest_row_is_not_committed(tmp_path):
    """A kill inside _commit_manifest can leave a truncated ``.tmp-*``
    row; only renamed ``part-*`` rows count as committed, so a resume
    neither trips over the fragment nor skips its partition."""
    from unravel_ray.checkpoint import _commit_manifest, manifest_dir

    out = str(tmp_path / "o")
    _commit_manifest(out, {"partition_id": 0, "input_fingerprint": "f:1:1"})
    with open(os.path.join(manifest_dir(out), ".tmp-1.json"), "w") as f:
        f.write('{"partition_id": 1, "input_fin')
    assert set(read_manifest(out)) == {0}
