"""The extraction commit protocol: per-partition commit + exact resume
(SURVEY.md §4, north rule).

The reference's idempotency contract — COMPLETED docs are skipped on
reprocess, enforced by UNIQUE(document_id)
(ProcessOcr.java:71-74, ExtractTextFromDocumentImpl.java:50-54,
V11__create_ocr_data_table.sql) — has no transactional store here, so
idempotency comes from partition-granularity commit. Both extraction
entry points commit through ``_extract_commit``:
``run_with_checkpoint_files`` (one partition per input parquet file) and
``pipeline.extract_publish`` (one partition, id 0).

1. Every source row carries an int32 partition tag (PARTITION_TAG).
2. One streaming Ray Data execution runs ``_build_extraction_core`` ->
   ``_write_tagged_block``: workers write the non-marker rows into a
   unique ``.tmp-part-{pid}.{attempt}/`` dir and return slim summaries.
3. The driver folds the summaries per partition (``_Pending``). A
   checkpoint partition closes when they account for every input row
   (footer row count); a publish partition closes when the stream ends.
4. Split docs — those a block cut separated, reported by their marker
   doc_ids — are recomputed from source in one block, and the same worker
   function writes them into the attempt dir.
5. The attempt dir is renamed to ``part-{pid}``.
6. The manifest row (json, temp + rename) commits the partition:
   ``_manifest/part-{pid}.json`` for a checkpoint, ``PUBLISHED.json`` for
   a publish. Both carry n_rows, n_completed, n_failed, n_split_repaired
   and wall_time_s; checkpoint rows add the partition id and the input
   file's (name, size, mtime) fingerprint — the lineage record.

No extracted row reaches the driver. Resume = anti-join the partitions
against the manifest: committed partitions whose file is unchanged are
skipped (their inputs are never re-read). A crash mid-partition leaves
only an attempt dir, which is never read and is removed on the way out —
exactly-once output per partition.

At 10^12-doc scale the partition count is the unit of restart work; the
fingerprints let a changed input file invalidate only its partition.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc

from .config import PipelineConfig


class PartitionInterrupted(RuntimeError):
    """Injected by tests to simulate a driver crash between partitions."""


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def read_manifest(out_dir: str) -> dict[int, dict]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return {}
    out: dict[int, dict] = {}
    for name in os.listdir(mdir):
        # committed rows only: a ``.tmp-*`` row may be half-written
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                row = json.load(f)
            out[int(row["partition_id"])] = row
    return out


def _write_json(path: str, row: dict) -> None:
    """Durable json write: ``.tmp-{name}`` + fsync, then one rename."""
    tmp = os.path.join(os.path.dirname(path), ".tmp-" + os.path.basename(path))
    with open(tmp, "w") as f:
        json.dump(row, f)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)


def _commit_manifest(out_dir: str, row: dict) -> None:
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    _write_json(os.path.join(mdir, f"part-{row['partition_id']}.json"), row)


def load_extracted(out_dir: str):
    """Read the committed output: only ``part-*`` dirs, which hold no
    SPLIT_MARKER_STATUS rows (workers never write them)."""
    import ray.data

    parts = sorted(
        os.path.join(out_dir, d, f)
        for d in os.listdir(out_dir)
        if d.startswith("part-") and os.path.isdir(os.path.join(out_dir, d))
        for f in os.listdir(os.path.join(out_dir, d))
        if f.endswith(".parquet")
    )
    return ray.data.read_parquet(parts)


def _file_fingerprint(path: str) -> str:
    """(basename, size, mtime): change detection without reading."""
    st = os.stat(path)
    return f"{os.path.basename(path)}:{st.st_size}:{int(st.st_mtime)}"


def _tag_partitions(batch: pa.Table, pid_of: dict[str, int]) -> pa.Table:
    """Swap read_parquet's ``path`` column for the int32 partition tag."""
    from .schema import PARTITION_TAG

    paths = batch["path"]
    uniq = pc.unique(paths)
    pids = pa.array([pid_of[os.path.normpath(p)] for p in uniq.to_pylist()],
                    pa.int32())
    tags = pc.take(pids, pc.index_in(paths, value_set=uniq))
    return batch.drop_columns(["path"]).append_column(PARTITION_TAG, tags)


def _tag_constant(batch: pa.Table, pid: int) -> pa.Table:
    """Tag every row of ``batch`` with partition ``pid``."""
    from .schema import PARTITION_TAG

    return batch.append_column(
        PARTITION_TAG, pa.repeat(pa.scalar(pid, pa.int32()), batch.num_rows))


_SUMMARY_SCHEMA = pa.schema([
    pa.field("pid", pa.int32()),
    pa.field("file", pa.string()),
    pa.field("n_kept", pa.int64()),
    pa.field("n_completed", pa.int64()),
    pa.field("marker_ids", pa.list_(pa.string())),
])


def _attempt_dir(out_dir: str, pid: int, attempt: str) -> str:
    return os.path.join(out_dir, f".tmp-part-{pid}.{attempt}")


def _write_tagged_block(block: pa.Table, out_dir: str, attempt: str) -> pa.Table:
    """Worker side of the commit protocol: write one finalized block's
    rows, per partition and without the tag, into that partition's
    attempt dir; return one slim summary row per partition in the block.

    Split-marker rows are not written; their doc_ids ride in the summary
    and the commit recomputes those docs. The file name hashes the written
    doc_ids, so a retried task overwrites its own file and the driver can
    drop the repeated summary row."""
    import pyarrow.parquet as pq

    from .schema import PARTITION_TAG, SPLIT_MARKER_STATUS

    if not block.num_rows:
        return _SUMMARY_SCHEMA.empty_table()
    rows = []
    tags = block[PARTITION_TAG]
    pids = pc.unique(tags).to_pylist()
    for pid in pids:
        # a single-tag block (every publish block) needs no filter copy
        part = block if len(pids) == 1 else block.filter(pc.equal(tags, pid))
        part = part.drop_columns([PARTITION_TAG])
        is_marker = pc.equal(part["status"], SPLIT_MARKER_STATUS)
        keep = part.filter(pc.invert(is_marker)) if pc.any(is_marker).as_py() else part
        name = None
        if keep.num_rows:
            ids = "\x1f".join(keep["doc_id"].to_pylist()).encode()
            name = hashlib.blake2b(ids, digest_size=12).hexdigest() + ".parquet"
            attempt_dir = _attempt_dir(out_dir, pid, attempt)
            os.makedirs(attempt_dir, exist_ok=True)
            pq.write_table(keep, os.path.join(attempt_dir, name))
        rows.append({
            "pid": pid,
            "file": name,
            "n_kept": keep.num_rows,
            "n_completed": pc.sum(pc.cast(pc.equal(keep["status"], "completed"),
                                          pa.int64())).as_py() or 0,
            "marker_ids": pc.unique(part["doc_id"].filter(is_marker)).to_pylist(),
        })
    return pa.Table.from_pylist(rows, schema=_SUMMARY_SCHEMA)


class _Pending:
    """Driver-side state of one partition awaiting its commit.

    ``source()`` returns the partition's untagged docs (the split-doc
    recompute reads them again); ``n_input`` is its input row count, or
    None when only the end of the stream closes the partition."""

    def __init__(self, source, n_input: int | None) -> None:
        self.source, self.n_input = source, n_input
        self.files: set[str] = set()
        self.markers: set[str] = set()
        self.n_kept = self.n_completed = 0
        self.committed = False

    def add(self, row: dict) -> bool:
        """Fold one summary row in; True once every input doc is
        accounted for (kept rows + distinct split-marker ids)."""
        if row["file"] is not None:
            if row["file"] in self.files:
                return False  # a retried task's repeated summary
            self.files.add(row["file"])
            self.n_kept += row["n_kept"]
            self.n_completed += row["n_completed"]
        self.markers.update(row["marker_ids"])
        return self.n_kept + len(self.markers) == self.n_input


def _recompute_docs(docs, pid: int, doc_ids: set[str], cfg: PipelineConfig):
    """Re-extract exactly ``doc_ids`` of ``docs`` in a single block, tagged
    ``pid`` (one block => finalize sees every unit => markers impossible)."""
    import ray

    from . import pipeline

    ref = ray.put(pa.array(sorted(doc_ids), pa.string()))

    def keep(t: pa.Table) -> pa.Table:
        return _tag_constant(t.filter(pc.is_in(t["doc_id"], value_set=ray.get(ref))), pid)

    src = docs.map_batches(keep, batch_format="pyarrow").repartition(1)
    return pipeline._build_extraction_core(src, cfg)


def _extract_commit(docs, pending: dict[int, _Pending], out_dir: str,
                    cfg: PipelineConfig, on_commit) -> None:
    """Run the commit protocol (module docstring) over ``pending``.

    ``docs`` is the tagged source of every pending partition with input
    rows (unused when there is none). Each partition is committed as soon
    as it closes; zero-row partitions commit before the execution starts.
    ``on_commit(pid, stats)`` writes the manifest row once ``part-{pid}``
    is in place and may raise to abandon the execution. Attempt dirs are
    unique per call, so tasks of an abandoned execution never land in a
    later commit; every ``.tmp-part-*`` dir is removed on the way out."""
    import pyarrow.parquet as pq

    from . import pipeline
    from .schema import EXTRACTED_SCHEMA

    attempt = uuid.uuid4().hex[:12]
    t_start = time.time()

    def write(extracted):
        return iter(extracted.map_batches(
            _write_tagged_block, fn_kwargs={"out_dir": out_dir, "attempt": attempt},
            batch_format="pyarrow", batch_size=None,
        ).iter_batches(batch_size=None, batch_format="pyarrow"))

    def commit(pid: int, p: _Pending) -> None:
        if p.markers:
            redo = [row for batch in write(_recompute_docs(p.source(), pid, p.markers, cfg))
                    for row in batch.to_pylist()]
            still = sorted(d for row in redo for d in row["marker_ids"])
            if still:
                raise RuntimeError(f"partition {pid}: recompute still split {still}")
            for row in redo:
                p.add(row)
        tmp = _attempt_dir(out_dir, pid, attempt)
        if not p.files:
            os.makedirs(tmp, exist_ok=True)
            pq.write_table(EXTRACTED_SCHEMA.empty_table(),
                           os.path.join(tmp, "data.parquet"))
        final = os.path.join(out_dir, f"part-{pid}")
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        p.committed = True
        on_commit(pid, {
            "n_rows": p.n_kept,
            "n_completed": p.n_completed,
            # every failure status (failed, failed_validation, failed_storage)
            "n_failed": p.n_kept - p.n_completed,
            "n_split_repaired": len(p.markers),
            "wall_time_s": round(time.time() - t_start, 3),
        })

    try:
        for pid, p in pending.items():
            if p.n_input == 0:
                commit(pid, p)
        live = {pid: p for pid, p in pending.items() if not p.committed}
        if not live:
            return
        it = write(pipeline._build_extraction_core(docs, cfg))
        try:
            for batch in it:
                for row in batch.to_pylist():
                    p = live[row["pid"]]
                    # a late marker-only row for a committed partition
                    # carries nothing new
                    if not p.committed and p.add(row):
                        commit(row["pid"], p)
        finally:
            it.close()  # abandons the execution when on_commit raised
        for pid, p in live.items():
            if not p.committed and p.n_input is None:
                commit(pid, p)
        unclosed = {pid: (p.n_kept + len(p.markers), p.n_input)
                    for pid, p in live.items() if not p.committed}
        if unclosed:
            # e.g. a doc_id repeated in the input: finalize merges the
            # copies, so the partition can never account for every row
            raise RuntimeError(
                f"partitions did not close (rows seen, rows in): {unclosed}")
    finally:
        _remove_attempt_dirs(out_dir)


def run_with_checkpoint_files(
    input_files: list[str],
    out_dir: str,
    cfg: PipelineConfig | None = None,
    fail_after: int | None = None,
) -> dict:
    """Fragment-aligned checkpointing — the 100 TB shape.

    Partition ``pid`` is the ``pid``-th of the sorted input files; the
    manifest fingerprint is the file's (name, size, mtime), so change
    detection reads no content and a touched file re-runs only its
    partition. One call is ONE streaming Ray Data execution over every
    pending partition's file (read_parquet with paths -> partition tag
    -> ``_extract_commit``); a partition commits when its summaries
    account for every input row of its file (footer row count), and
    ``wall_time_s`` runs from call start to that commit. Workers write
    straight into ``out_dir``, so on a multi-node cluster it must be
    shared storage.

    A crash loses at most the uncommitted partitions. ``fail_after=k``
    stops after k commits and abandons the execution (test hook).

    Returns {"executed": [pids, ascending], "skipped": [pids]}.
    """
    import pyarrow.parquet as pq
    import ray.data

    cfg = cfg or PipelineConfig()
    os.makedirs(out_dir, exist_ok=True)
    done = read_manifest(out_dir)
    skipped: list[int] = []
    pending: dict[int, _Pending] = {}
    fingerprint: dict[int, str] = {}
    pid_of: dict[str, int] = {}
    for pid, path in enumerate(os.path.abspath(f) for f in sorted(input_files)):
        in_fp = _file_fingerprint(path)
        if pid in done and done[pid]["input_fingerprint"] == in_fp:
            skipped.append(pid)
            continue
        n_input = pq.ParquetFile(path).metadata.num_rows
        pending[pid] = _Pending(functools.partial(ray.data.read_parquet, path), n_input)
        fingerprint[pid] = in_fp
        if n_input:
            pid_of[path] = pid
    executed: list[int] = []

    def on_commit(pid: int, stats: dict) -> None:
        _commit_manifest(out_dir, {"partition_id": pid,
                                   "input_fingerprint": fingerprint[pid], **stats})
        executed.append(pid)
        if fail_after is not None and len(executed) >= fail_after:
            raise PartitionInterrupted(f"injected failure after {fail_after} partitions")

    docs = None
    if pid_of:
        docs = ray.data.read_parquet(list(pid_of), include_paths=True).map_batches(
            _tag_partitions, fn_kwargs={"pid_of": pid_of},
            batch_format="pyarrow", batch_size=None)
    _extract_commit(docs, pending, out_dir, cfg, on_commit)
    return {"executed": sorted(executed), "skipped": skipped}


def _remove_attempt_dirs(out_dir: str) -> None:
    """Drop every uncommitted ``.tmp-part-*`` attempt dir: this call's and
    any left by a crashed or abandoned earlier call (never read —
    load_extracted trusts only ``part-*``)."""
    for name in os.listdir(out_dir):
        if name.startswith(".tmp-part-"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
