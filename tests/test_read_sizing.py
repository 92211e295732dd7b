"""Read sizing of the sf tables (``relational.read_parquet_sized``): one
block per session CPU, more once the selected columns' footer bytes
exceed ``DataContext.target_max_block_size``; and query results that do
not depend on the block count the read produces."""

import math

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

SF_DIR = "/root/testdata/sf0.01"


@pytest.fixture
def read_spy(monkeypatch):
    """Record ``override_num_blocks`` of every ``ray.data.read_parquet``
    call; ``spy.force`` replaces it when set."""
    real = ray.data.read_parquet
    calls = []

    def spy(*args, **kw):
        calls.append(kw.get("override_num_blocks"))
        if spy.force is not None:
            kw["override_num_blocks"] = spy.force
        return real(*args, **kw)

    spy.calls, spy.force = calls, None
    monkeypatch.setattr(ray.data, "read_parquet", spy)
    return spy


def _footer_bytes(path, columns):
    md = pq.read_metadata(path)
    return sum(md.row_group(i).column(j).total_uncompressed_size
               for i in range(md.num_row_groups)
               for j in range(md.num_columns)
               if md.row_group(i).column(j).path_in_schema in columns)


def test_small_file_reads_one_block_per_cpu(ray_session, tmp_path, read_spy):
    from unravel_ray.relational import read_parquet_sized

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"a": list(range(1000)),
                             "b": [str(i) * 5 for i in range(1000)]}), path)
    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus == 4
    ds = read_parquet_sized(path, ["a"]).materialize()
    assert read_spy.calls == [cpus]
    assert ds.num_blocks() == cpus
    assert ds.count() == 1000


def test_tiny_block_target_raises_count_to_footer_bound(ray_session, tmp_path,
                                                        read_spy):
    from ray.data import DataContext

    from unravel_ray.relational import read_parquet_sized

    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"a": list(range(1000)),
                             "b": [str(i) * 5 for i in range(1000)]}), path)
    nbytes = _footer_bytes(path, {"a", "b"})
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = nbytes // 10
    try:
        ds = read_parquet_sized(path, ["a", "b"]).materialize()
        only_a = math.ceil(_footer_bytes(path, {"a"}) / ctx.target_max_block_size)
        read_parquet_sized(path, ["a"])
    finally:
        ctx.target_max_block_size = old
    want = math.ceil(nbytes / (nbytes // 10))
    assert want > 4
    # the bound counts only the selected columns
    assert read_spy.calls == [want, max(4, only_a)]
    # Ray may split further at the same target, never less
    assert ds.num_blocks() >= want
    assert sorted(ds.to_pandas()["a"]) == list(range(1000))


def _canon(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df[sorted(df.columns)].sort_values(sorted(df.columns)) \
        .reset_index(drop=True)


@pytest.mark.parametrize("name", ["lineitem_pricing", "minhash_pairs",
                                  "jaccard_pairs"])
def test_results_do_not_depend_on_read_block_count(ray_session, read_spy, name):
    import __ray_entry__ as e

    q = e.queries()[name]
    sized = _canon(q(SF_DIR))
    assert read_spy.calls and set(read_spy.calls) == {4}, read_spy.calls
    read_spy.force = 1
    one = _canon(q(SF_DIR))
    assert len(sized) > 0
    pd.testing.assert_frame_equal(sized, one)
