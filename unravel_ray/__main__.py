"""CLI entry points — the `ray job submit` surface of the engine.

    python -m unravel_ray extract --input DOCS --output OUT [--num-cpus 8]
    python -m unravel_ray rollup --input OUT [--output ROLLUP_DIR]
    python -m unravel_ray stats --input OUT

`extract` runs the flagship interleaved-extraction pipeline on a parquet
corpus of DOCS_SCHEMA rows (doc_id, spans list<struct<kind,text,
media_ref,offset>>, mime_type, file_size, ...): DOCS is a parquet file or
a dir whose `*.parquet` files (recursive, sorted) are one partition each,
committed through run_with_checkpoint_files — resumable: re-running skips
committed partitions whose file is unchanged. `rollup` and `stats` read
the committed output of OUT through load_extracted (extract's output or
an extract_publish dir), never an attempt dir or a split-marker row. On a
cluster the same module runs unchanged under
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

    _ray_up(args.num_cpus)
    files = (sorted(glob.glob(os.path.join(args.input, "**", "*.parquet"),
                              recursive=True))
             if os.path.isdir(args.input) else [args.input])
    summary = run_with_checkpoint_files(files, args.output)
    print(json.dumps({"output": args.output, **summary}))
    ray.shutdown()
    return 0


def cmd_rollup(args: argparse.Namespace) -> int:
    import ray

    from .checkpoint import load_extracted
    from .pipeline import build_rollup

    _ray_up(args.num_cpus)
    out = build_rollup(load_extracted(args.input))
    if args.output:
        out.write_parquet(args.output)
        print(json.dumps({"output": args.output, "n_rows": out.count()}))
    else:
        for row in out.take_all():
            print(json.dumps(row, default=str))
    ray.shutdown()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Slim status/provider tallies of a committed extraction."""
    import ray

    from .checkpoint import load_extracted
    from .relational import keyed_aggregate

    _ray_up(args.num_cpus)
    ds = load_extracted(args.input).select_columns(["status", "provider"])
    rows = keyed_aggregate(ds, ["status", "provider"],
                           [("n_docs", None, "count_all")]).take_all()
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
    ex.add_argument("--output", required=True,
                    help="output dir (one committed part-{pid} per file)")
    ex.add_argument("--num-cpus", type=int, default=None)
    ex.set_defaults(fn=cmd_extract)

    ro = sub.add_parser("rollup", help="collection status rollup")
    ro.add_argument("--input", required=True, help="committed output dir")
    ro.add_argument("--output", default=None)
    ro.add_argument("--num-cpus", type=int, default=None)
    ro.set_defaults(fn=cmd_rollup)

    st = sub.add_parser("stats", help="status/provider tallies")
    st.add_argument("--input", required=True, help="committed output dir")
    st.add_argument("--num-cpus", type=int, default=None)
    st.set_defaults(fn=cmd_stats)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
