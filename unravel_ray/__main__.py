"""CLI entry points — the `ray job submit` surface of the engine.

    python -m unravel_ray extract --input docs.parquet --output /out \
        [--checkpoint] [--num-cpus 8]
    python -m unravel_ray rollup --input /out/raw --output /out/rollup
    python -m unravel_ray stats --input /out/raw

`extract` runs the flagship interleaved-extraction pipeline on a parquet
corpus of DOCS_SCHEMA rows (doc_id, spans list<struct<kind,text,
media_ref,offset>>, mime_type, file_size, ...) via the
write-audit-publish path; with --checkpoint it runs the
partition-manifest variant instead, one partition per input parquet file
(resumable: re-running skips committed partitions). On a cluster the
same module runs unchanged under
`ray job submit -- python -m unravel_ray extract ...` with RAY_ADDRESS
pointing at the cluster (ray.init here is guarded and local-only when no
address is set).

This is the ONLY module in the package that may call ray.init().
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _ray_up(num_cpus: int | None) -> None:
    import ray

    if ray.is_initialized():
        return
    kwargs: dict = {"include_dashboard": False}
    if os.environ.get("RAY_ADDRESS"):
        kwargs["address"] = os.environ["RAY_ADDRESS"]
    else:
        kwargs["address"] = "local"
    if num_cpus:
        kwargs["num_cpus"] = num_cpus
    ray.init(**kwargs)


def cmd_extract(args: argparse.Namespace) -> int:
    import ray

    from .checkpoint import run_with_checkpoint_files
    from .config import PipelineConfig
    from .pipeline import extract_publish, read_docs_corpus

    _ray_up(args.num_cpus)
    cfg = PipelineConfig()
    if args.checkpoint:
        files = (sorted(glob.glob(os.path.join(args.input, "**", "*.parquet"),
                                  recursive=True))
                 if os.path.isdir(args.input) else [args.input])
        summary = run_with_checkpoint_files(files, args.output, cfg=cfg)
        print(json.dumps({"output": args.output, **summary}))
    else:
        extract_publish(read_docs_corpus(args.input), cfg, args.output)
        with open(os.path.join(args.output, "PUBLISHED.json")) as f:
            manifest = json.load(f)
        print(json.dumps({"output": args.output, **manifest}))
    ray.shutdown()
    return 0


def cmd_rollup(args: argparse.Namespace) -> int:
    import ray
    import ray.data

    from .pipeline import build_rollup

    _ray_up(args.num_cpus)
    extracted = ray.data.read_parquet(args.input)
    out = build_rollup(extracted)
    if args.output:
        out.write_parquet(args.output)
        print(json.dumps({"output": args.output, "n_rows": out.count()}))
    else:
        for row in out.take_all():
            print(json.dumps(row, default=str))
    ray.shutdown()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Slim status/provider tallies of a committed extraction (footer-
    friendly columns only)."""
    import ray
    import ray.data
    from ray.data.aggregate import Count

    _ray_up(args.num_cpus)
    ds = ray.data.read_parquet(args.input, columns=["status", "provider"])
    rows = (ds.groupby(["status", "provider"])
            .aggregate(Count(alias_name="n_docs")).take_all())
    for row in sorted(rows, key=lambda r: (-r["n_docs"],
                                           str(r["status"]),
                                           str(r["provider"]))):
        print(json.dumps(row))
    ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="unravel_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="run the flagship extraction")
    ex.add_argument("--input", required=True,
                    help="parquet path/dir of DOCS_SCHEMA rows")
    ex.add_argument("--output", required=True, help="publish directory")
    ex.add_argument("--checkpoint", action="store_true",
                    help="partition-manifest resumable variant, one "
                         "partition per input parquet file")
    ex.add_argument("--num-cpus", type=int, default=None)
    ex.set_defaults(fn=cmd_extract)

    ro = sub.add_parser("rollup", help="collection status rollup")
    ro.add_argument("--input", required=True)
    ro.add_argument("--output", default=None)
    ro.add_argument("--num-cpus", type=int, default=None)
    ro.set_defaults(fn=cmd_rollup)

    st = sub.add_parser("stats", help="status/provider tallies")
    st.add_argument("--input", required=True)
    st.add_argument("--num-cpus", type=int, default=None)
    st.set_defaults(fn=cmd_stats)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
