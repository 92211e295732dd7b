"""Flagship extraction pipeline composition (SURVEY.md §3.1 rebuilt on Ray Data).

The reference's bulk-upload→Kafka→consumer→provider→rollup flow
(BulkDocumentUploadExtractionImpl.java:62-204 → ProcessOcr.java:57-151)
collapses into one lazy streaming Dataset plan:

    read → explode_extract (stateless tasks)
         → OcrStage (actor pool, warm providers)
         → finalize_block: block-local merge + in-doc sort(offset, sub);
           docs split by a block cut come out as marker rows
         → extract_publish: committed through the checkpoint protocol
           (workers write the rows; split docs are recomputed from source)
    extracted → keyed_aggregate(collection_id) → rollup   # G2

Everything streams with backpressure; nothing materializes the full input.
Library code never calls ray.init() — callers own the session.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import time

import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data import Dataset

from .config import PipelineConfig
from .stages import OcrStage, explode_extract, finalize_block, ocr_task
from .synth import interleave_documents_batch


def _ocr_stage(units: Dataset, cfg: PipelineConfig) -> Dataset:
    """OCR stage scheduling (A1/A2):

    * providers holding heavyweight warm engines -> dedicated ACTOR POOL
      (state in __init__, cfg.ocr_concurrency x cfg.ocr_num_cpus);
    * provider chains that declare requires_warm_state=False -> task-based
      with a per-worker-process registry cache (same warm-state guarantee,
      no pool spin-up/autoscale ramp, fuses with neighboring task stages).
    cfg.ocr_compute: "auto" (above) | "actors" | "tasks".
    """
    mode = cfg.ocr_compute
    if mode == "auto":
        from .providers import _PROVIDER_CLASSES

        chain = dict.fromkeys((cfg.preferred_provider, *cfg.fallback_chain))
        warm = any(
            getattr(_PROVIDER_CLASSES.get(n), "requires_warm_state", True)
            for n in chain
        )
        mode = "actors" if warm else "tasks"
    if mode == "tasks":
        # whole blocks: task mode fuses with its neighbors, so slicing to
        # ocr_batch_size cannot spread work across tasks — it only adds
        # re-batching overhead. The batch knob matters for the ACTOR pool,
        # where each call is a scheduling unit (whale-PDF spreading).
        return units.map_batches(
            ocr_task,
            fn_kwargs={
                "preferred": cfg.preferred_provider,
                "fallback_chain": tuple(cfg.fallback_chain),
                "max_retries": cfg.ocr_max_retries,
            },
            batch_format="pyarrow",
            batch_size=None,
        )
    return units.map_batches(
        OcrStage,
        fn_constructor_kwargs={
            "preferred": cfg.preferred_provider,
            "fallback_chain": cfg.fallback_chain,
            "max_retries": cfg.ocr_max_retries,
        },
        batch_format="pyarrow",
        batch_size=cfg.ocr_batch_size,
        concurrency=cfg.ocr_concurrency,
        num_cpus=cfg.ocr_num_cpus,
    )


def _build_extraction_core(ds: Dataset, cfg: PipelineConfig) -> Dataset:
    """docs (DOCS_SCHEMA) -> extracted (EXTRACTED_SCHEMA), one streaming
    plan: explode -> OCR -> finalize_block.

    explode_extract keeps each doc's work units contiguous in one block,
    so finalize_block reassembles each doc inside its block: merge +
    in-doc sort(offset, sub). A doc split by a mid-table block cut
    (possible only when a map output exceeds target_max_block_size) comes
    out as a SPLIT_MARKER_STATUS row instead — detected block-locally via
    n_units, no shuffle. The commit protocol (checkpoint._extract_commit,
    behind extract_publish and run_with_checkpoint_files) never writes
    those rows and recomputes their docs from source."""
    units = ds.map_batches(
        explode_extract, batch_format="pyarrow", batch_size=cfg.explode_batch_size
    )
    return _ocr_stage(units, cfg).map_batches(
        finalize_block, batch_format="pyarrow", batch_size=None)


@contextlib.contextmanager
def _publish_lock(out_dir: str, timeout_s: float = 600.0):
    """Cross-process commit mutex for a shared publish dir: O_EXCL lock
    file; waiters poll until the holder releases (or the manifest lands).
    A stale lock older than ``timeout_s`` (crashed holder) is stolen."""
    lock = os.path.join(out_dir, ".publish.lock")
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            break
        except FileExistsError:
            if os.path.exists(os.path.join(out_dir, "PUBLISHED.json")):
                # holder committed; nothing left to build
                yield
                return
            try:
                if time.time() - os.stat(lock).st_mtime > timeout_s:
                    os.unlink(lock)  # stale (crashed holder) — steal
                    continue
            except FileNotFoundError:
                continue  # released between the open and the stat — retry
            if time.monotonic() > deadline:
                raise TimeoutError(f"publish lock busy > {timeout_s}s: {lock}")
            time.sleep(0.2)
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def extract_publish(docs: Dataset, cfg: PipelineConfig | None = None,
                    out_dir: str | None = None) -> Dataset:
    """Extract ``docs`` into ``out_dir`` and return a lazy read of the
    committed parquet — the default unbounded-scale path.

    This is the single-partition case (id 0) of the checkpoint commit
    protocol (checkpoint._extract_commit): workers write the rows into an
    attempt dir, split docs are recomputed from source into the same dir,
    the dir is renamed to ``part-0`` and a PUBLISHED.json manifest
    (n_rows, n_completed, n_failed, n_split_repaired, wall_time_s)
    commits it. The object store never pins the corpus and no extracted
    row reaches the driver.

    Re-calling with the same out_dir returns the committed result without
    recomputing (the read-through-cache analog, SURVEY.md A6); processes
    sharing one out_dir build it once under _publish_lock. Pass
    out_dir=None for a fresh throwaway directory under /tmp.
    """
    from . import checkpoint

    cfg = cfg or PipelineConfig()
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="unravel-publish-")
    manifest_path = os.path.join(out_dir, "PUBLISHED.json")
    if not os.path.exists(manifest_path):
        os.makedirs(out_dir, exist_ok=True)
        with _publish_lock(out_dir):
            # re-check under the lock: another process may have committed
            # while we waited
            if not os.path.exists(manifest_path):
                tagged = docs.map_batches(
                    checkpoint._tag_constant, fn_kwargs={"pid": 0},
                    batch_format="pyarrow", batch_size=None)
                checkpoint._extract_commit(
                    tagged, {0: checkpoint._Pending(lambda: docs, None)}, out_dir,
                    cfg, lambda pid, stats: checkpoint._write_json(manifest_path, stats))
    return checkpoint.load_extracted(out_dir)


def build_rollup(extracted: Dataset) -> Dataset:
    """Collection status roll-up (G2, ProcessOcr.java:185-217).

    The projection turns each row's status into completed / failed /
    pending indicators; ``relational.keyed_aggregate`` folds them per
    collection, so only partial rows cross the exchange — no raw-row
    shuffle of span payloads.
    """
    from .relational import keyed_aggregate

    def indicators(batch: pa.Table) -> pa.Table:
        status = batch["status"]
        completed = pc.cast(pc.equal(status, "completed"), pa.int64())
        failed = pc.cast(
            pc.is_in(status, value_set=pa.array(
                ["failed", "failed_validation", "failed_storage"])),
            pa.int64(),
        )
        pending = pc.cast(
            pc.invert(
                pc.is_in(
                    status,
                    value_set=pa.array(
                        ["completed", "failed", "failed_validation", "failed_storage"]),
                )
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "collection_id": batch["collection_id"],
                "completed": completed,
                "failed": failed,
                "pending": pending,
            }
        )

    agg = keyed_aggregate(
        extracted.map_batches(indicators, batch_format="pyarrow", batch_size=None),
        ["collection_id"],
        [("n_docs", None, "count_all"), ("n_completed", "completed", "sum"),
         ("n_failed", "failed", "sum"), ("n_pending", "pending", "sum")])

    def decide(batch: pa.Table) -> pa.Table:
        n, comp, fail = batch["n_docs"], batch["n_completed"], batch["n_failed"]
        terminal = pc.add(comp, fail)
        status = pc.if_else(
            pc.equal(comp, n),
            pa.scalar("processed"),
            pc.if_else(pc.equal(terminal, n), pa.scalar("failed_ocr"),
                       pa.scalar("processing")),
        )
        return batch.append_column("collection_status", status)

    return agg.map_batches(decide, batch_format="pyarrow")


def documents_to_docs(sf_dir: str, cfg: PipelineConfig | None = None) -> Dataset:
    """Driver testdata bridge: documents.parquet -> interleaved DOCS rows.

    The testdata files are single-row-group parquet => one read block; the
    repartition splits it so the python-heavy bridge (and everything fused
    after it) parallelizes instead of running on one task.
    """
    cfg = cfg or PipelineConfig()
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    # strip the writer's pandas schema metadata before the repartition —
    # Ray's block-schema dedup can't hash metadata dicts and logs a
    # warning per reduce task otherwise
    ds = ds.map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    ).repartition(32)
    return ds.map_batches(
        interleave_documents_batch, fn_kwargs={"seed": cfg.seed},
        batch_format="pyarrow",
    )


def _code_fingerprint() -> str:
    """Hash of the package source files' (name, size, mtime) — invalidates
    published caches when the engine code changes (dev safety; stable in a
    deployed run where files don't change)."""
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.blake2b(digest_size=8)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            st = os.stat(os.path.join(pkg_dir, name))
            h.update(f"{name}:{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()


def _input_fingerprint(sf_dir: str) -> str:
    """(size, mtime_ns) of the input parquet — regenerating documents.parquet
    in place must invalidate the published-extraction cache, same as a code
    change does via _code_fingerprint."""
    path = os.path.join(sf_dir, "documents.parquet")
    try:
        st = os.stat(path)
        return f"{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        return "missing"


def flagship_publish_dir(sf_dir: str, cfg: PipelineConfig) -> str:
    """Deterministic publish dir: same (input-data, config, code) -> same
    dir, so the N queries that start from the flagship extraction share ONE
    extraction run instead of re-running the pipeline each."""
    key = hashlib.blake2b(
        f"{os.path.abspath(sf_dir)}:{_input_fingerprint(sf_dir)}:"
        f"{cfg.seed}:"
        f"{cfg.preferred_provider}:{cfg.fallback_chain}:{_code_fingerprint()}".encode(),
        digest_size=10,
    ).hexdigest()
    base = os.environ.get("GRAFT_PUBLISH_DIR", "/tmp/unravel_publish")
    return os.path.join(base, key)


def run_flagship(sf_dir: str, cfg: PipelineConfig | None = None) -> Dataset:
    """documents.parquet -> interleave -> extract; the entry() pipeline.

    Uses extract_publish: one streaming pass committed to parquet, lazy
    read back — the plan never holds the corpus in the object store, and
    repeated flagship-derived queries reuse the committed extraction
    (cache keyed on input+config+code)."""
    cfg = cfg or PipelineConfig()
    return extract_publish(
        documents_to_docs(sf_dir, cfg), cfg, flagship_publish_dir(sf_dir, cfg)
    )

