"""The three workloads: what one round calls, and how its outputs are checked.

Each round makes the same engine calls through ``bench.op`` (which times
them and counts failures) and returns its outputs; ``check`` compares
them with values computed apart from the engine; ``details`` gives the
workload's own figures, which the run prints to stderr and the traced run
writes to its trace file.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import checks
from prepare import QUERIES

PROBE_DOCS = 1_000


def to_table(result) -> pa.Table:
    """Consume an engine result (a Ray Dataset or an Arrow table)."""
    if isinstance(result, pa.Table):
        return result
    blocks = [t for t in result.iter_batches(batch_size=None, batch_format="pyarrow")
              if t.num_rows]
    if not blocks:
        return result.schema().base_schema.empty_table()
    return pa.concat_tables(blocks, promote_options="default")


def engine(module: str):
    """Engine modules are imported inside the timed operations, so a missing
    or raising engine counts as failed operations."""
    return importlib.import_module(module)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class _CorpusWorkload:
    """Shared by the two extraction workloads: corpus files, closed-form
    expectations and the reference sample."""

    def __init__(self, inputs: str) -> None:
        docs_dir = os.path.join(inputs, "docs")
        self.files = sorted(os.path.join(docs_dir, f) for f in os.listdir(docs_dir))
        self.expected = pq.read_table(os.path.join(inputs, "expected.parquet"))
        self.rollup_want = checks.recount_rollup(self.expected)
        with open(os.path.join(inputs, "reference.json")) as f:
            self.reference = json.load(f)
        self.n_docs = self.expected.num_rows

    def probe_block(self) -> pa.Table:
        blocks, n = [], 0
        for path in self.files:
            blocks.append(pq.read_table(path))
            n += blocks[-1].num_rows
            if n >= PROBE_DOCS:
                break
        return pa.concat_tables(blocks).slice(0, PROBE_DOCS)

    def sample_rows(self, out: pa.Table) -> dict[str, dict]:
        ids = pa.array(sorted(self.reference), pa.string())
        rows = out.filter(pc.is_in(out["doc_id"], value_set=ids)).to_pylist()
        return {r["doc_id"]: r for r in rows}

    def check_extraction(self, out: pa.Table, selftest: bool) -> tuple[list, list]:
        rows = self.sample_rows(out)
        errors = checks.check_extracted(out, self.expected)
        errors += checks.check_spans(rows, self.reference)
        missed = []
        if selftest:
            missed = checks.mutation_selftest(out=out, expected=self.expected,
                                              rows=rows, reference=self.reference)
        return errors, missed


class BulkExtract(_CorpusWorkload):
    name = "bulk_extract"

    def round(self, bench, out_dir: str) -> dict:
        import ray.data

        pipeline = "unravel_ray.pipeline"
        published = bench.op("pipeline.extract_publish", lambda: engine(
            pipeline).extract_publish(ray.data.read_parquet(self.files), out_dir=out_dir))
        table = bench.op("pipeline.readback", lambda: to_table(published), published)
        rollup = bench.op("pipeline.build_rollup", lambda: to_table(
            engine(pipeline).build_rollup(published)), published)
        return {"out_dir": out_dir, "table": table, "rollup": rollup}

    def check(self, o: dict, selftest: bool) -> tuple[list, list]:
        errors, missed = [], []
        if o["table"] is not None:
            errors, missed = self.check_extraction(o["table"], selftest)
        if o["rollup"] is not None:
            errors += checks.check_rollup(o["rollup"], self.rollup_want)
            if selftest:
                missed += checks.mutation_selftest(rollup=o["rollup"],
                                                   rollup_want=self.rollup_want)
        return errors, missed

    def details(self, o: dict, timings: dict) -> dict:
        with open(os.path.join(o["out_dir"], "PUBLISHED.json")) as f:
            manifest = json.load(f)
        return {
            "extract_docs_per_s": self.n_docs / timings["pipeline.extract_publish"],
            "readback_rows_per_s": self.n_docs / timings["pipeline.readback"],
            "rollup_s": timings["pipeline.build_rollup"],
            "published_bytes_per_doc": _dir_bytes(o["out_dir"]) / self.n_docs,
            "pipeline.split_repaired": manifest["n_split_repaired"],
        }


class CheckpointResume(_CorpusWorkload):
    name = "checkpoint_resume"

    def round(self, bench, out_dir: str) -> dict:
        ckpt = "unravel_ray.checkpoint"
        half = len(self.files) // 2
        first = bench.op("checkpoint.first_call", lambda: engine(
            ckpt).run_with_checkpoint_files(self.files[:half], out_dir))
        resume = bench.op("checkpoint.resume_call", lambda: engine(
            ckpt).run_with_checkpoint_files(self.files, out_dir), first)
        table = bench.op("checkpoint.load_extracted", lambda: to_table(
            engine(ckpt).load_extracted(out_dir)), resume)
        return {"out_dir": out_dir, "first": first, "resume": resume, "table": table}

    def check(self, o: dict, selftest: bool) -> tuple[list, list]:
        half, n = len(self.files) // 2, len(self.files)
        errors, missed = [], []
        if o["first"] is not None and o["first"] != {"executed": list(range(half)),
                                                     "skipped": []}:
            errors.append(f"first call ran {o['first']}")
        if o["resume"] is not None and o["resume"] != {"executed": list(range(half, n)),
                                                       "skipped": list(range(half))}:
            errors.append(f"resuming call ran {o['resume']}")
        if o["table"] is not None:
            found, missed = self.check_extraction(o["table"], selftest)
            errors += found
            manifest = checks.read_manifests(o["out_dir"])
            errors += checks.check_manifest_rows(manifest, o["table"].num_rows)
            if selftest and not checks.check_manifest_rows(manifest, o["table"].num_rows - 1):
                missed.append("manifest total off by one")
        return errors, missed

    def details(self, o: dict, timings: dict) -> dict:
        walls = [m["wall_time_s"] for m in checks.read_manifests(o["out_dir"]).values()]
        both = timings["checkpoint.first_call"] + timings["checkpoint.resume_call"]
        return {
            "checkpoint_docs_per_s": self.n_docs / both,
            "resume_s": timings["checkpoint.resume_call"],
            "readback_rows_per_s": self.n_docs / timings["checkpoint.load_extracted"],
            "published_bytes_per_doc": _dir_bytes(o["out_dir"]) / self.n_docs,
            "checkpoint.partitions_executed_first": len(o["first"]["executed"]),
            "checkpoint.partitions_executed_resume": len(o["resume"]["executed"]),
            "checkpoint.partition_wall_s_p50": statistics.median(walls),
            "checkpoint.partition_wall_s_max": max(walls),
        }


class Sf01Analytics:
    name = "sf01_analytics"

    def __init__(self, inputs: str) -> None:
        self.sf = os.path.join(inputs, "sf")
        with open(os.path.join(inputs, "oracle.json")) as f:
            self.digests = json.load(f)

    def round(self, bench, out_dir: str) -> dict:
        results = {}
        for layer, names in QUERIES.items():
            for q in names:
                results[q] = bench.op(f"{layer}.{q}", lambda q=q: to_table(
                    engine("__ray_entry__").queries()[q](self.sf)))
        return results

    def check(self, results: dict, selftest: bool) -> tuple[list, list]:
        errors = []
        for q, t in results.items():
            if t is not None:
                errors += checks.check_digest(q, t, self.digests[q])
        missed = []
        if selftest:
            done = {q: t for q, t in results.items() if t is not None}
            missed = checks.mutation_selftest(results=done, digests=self.digests)
        return errors, missed

    def details(self, results: dict, timings: dict) -> dict:
        d = {f"{layer}_s": sum(timings[f"{layer}.{q}"] for q in names)
             for layer, names in QUERIES.items()}
        d.update({f"{layer}.{q}_s": timings[f"{layer}.{q}"]
                  for layer, names in QUERIES.items() for q in names})
        d["dedup.candidate_pairs"] = results["minhash_pairs"].num_rows
        d["dedup.verified_pairs"] = results["jaccard_pairs"].num_rows
        return d

    def probe_block(self) -> pa.Table:
        """Documents in the engine's input shape, through the engine's own
        documents bridge (the flagship path over this table)."""
        docs = pq.read_table(os.path.join(self.sf, "documents.parquet"),
                             columns=["doc_id", "text", "lang"])
        return engine("unravel_ray.synth").interleave_documents_batch(
            docs.slice(0, PROBE_DOCS))


WORKLOADS = {w.name: w for w in (BulkExtract, CheckpointResume, Sf01Analytics)}
