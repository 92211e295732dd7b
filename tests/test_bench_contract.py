"""Pins for the bench harness contract.

bench.py is outside the pytest surface (it owns its own Ray session), but
its *static* contracts — the headline names resolving to real queries()
entries, and the publish-cache key actually keying on input/config/code —
are importable without a session and broke silently once (a stale cache
turned the "cold publish" timing into a warm readback)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_headline_names_are_query_entries(ray_session):
    import bench

    import __ray_entry__ as e

    q = e.queries()
    headline = bench._headline_queries()
    assert headline, "headline set must not be empty"
    for name in headline:
        assert name in q, f"bench headline {name!r} missing from queries()"
    # flagship_extract must run FIRST: downstream flagship-derived queries
    # reuse its committed publish; bench clears the cache only around it
    assert next(iter(headline)) == "flagship_extract"


def test_flagship_publish_dir_keys_on_input_and_config(tmp_path):
    from unravel_ray.config import PipelineConfig
    from unravel_ray.pipeline import flagship_publish_dir

    sf = "/root/testdata/sf0.001"
    base = flagship_publish_dir(sf, PipelineConfig())
    # deterministic: same (input, config, code) -> same dir
    assert flagship_publish_dir(sf, PipelineConfig()) == base
    # different input dir -> different dir
    assert flagship_publish_dir("/root/testdata/sf0.01", PipelineConfig()) != base
    # different config (seed) -> different dir
    assert flagship_publish_dir(sf, PipelineConfig(seed=999)) != base
    # regenerating the input parquet in place (mtime change) -> different dir
    doc = tmp_path / "documents.parquet"
    doc.write_bytes(b"x")
    d1 = flagship_publish_dir(str(tmp_path), PipelineConfig())
    os.utime(doc, ns=(1, 1))
    d2 = flagship_publish_dir(str(tmp_path), PipelineConfig())
    assert d1 != d2


def test_bench_defaults_to_usable_cpus(monkeypatch):
    """Without $RAY_GRAFT_CPUS the bench session is sized to the CPUs this
    process may run on (not a fixed 32); the variable still overrides."""
    import bench

    monkeypatch.delenv("RAY_GRAFT_CPUS", raising=False)
    assert bench._num_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("RAY_GRAFT_CPUS", "3")
    assert bench._num_cpus() == 3
