"""relational.keyed_aggregate against one Arrow group_by over the whole
input: same groups, same values, same dtypes, whatever the block layout."""

import datetime

import pyarrow as pa
import pyarrow.compute as pc

AGGS = [("n", None, "count_all"), ("s", "v", "sum"),
        ("lo", "v", "min"), ("hi", "v", "max")]


def _reference(table: pa.Table, keys: list[str], aggs) -> pa.Table:
    """One pa.TableGroupBy over the concatenated input, renamed, with
    integer sums as int64 — what keyed_aggregate must return."""
    spec = [([], "count_all") if fn == "count_all" else (col, fn)
            for _, col, fn in aggs]
    g = pa.TableGroupBy(table, keys).aggregate(spec)
    vals = [c for n, c in zip(g.column_names, g.columns) if n not in keys]
    cols = {k: g[k] for k in keys}
    for (name, _, fn), col in zip(aggs, vals):
        cols[name] = (pc.cast(col, pa.int64())
                      if fn in ("sum", "count_all") else col)
    return pa.table(cols)


def _run(table: pa.Table, keys: list[str], aggs=AGGS, n_blocks: int = 5):
    """keyed_aggregate over ``table`` cut into ``n_blocks`` input blocks;
    returns (result table, number of non-empty output blocks)."""
    import ray
    import ray.data

    from unravel_ray.relational import keyed_aggregate

    step = max(1, -(-table.num_rows // n_blocks))
    ds = ray.data.from_arrow(
        [table.slice(i, step) for i in range(0, max(table.num_rows, 1), step)])
    out = [t for t in ray.get(
        keyed_aggregate(ds, keys, aggs).to_arrow_refs()) if t.num_rows]
    return (pa.concat_tables(out) if out else None), len(out)


def _check(table: pa.Table, keys: list[str], aggs=AGGS, n_blocks: int = 5):
    got, n_out = _run(table, keys, aggs, n_blocks)
    order = [(k, "ascending") for k in keys]
    want = _reference(table, keys, aggs).sort_by(order)
    got = got.sort_by(order)
    assert got.schema == want.schema, (got.schema, want.schema)
    assert got.combine_chunks().equals(want.combine_chunks())
    return got, n_out


def test_int_key_matches_one_group_by(ray_session):
    t = pa.table({"k": pa.array([i % 7 for i in range(300)], pa.int64()),
                  "v": pa.array([i * 3 - 100 for i in range(300)], pa.int32())})
    got, _ = _check(t, ["k"])
    # sums widen to int64, min/max keep the column's dtype
    assert got.schema.field("s").type == pa.int64()
    assert got.schema.field("n").type == pa.int64()
    assert got.schema.field("lo").type == pa.int32()
    assert got.schema.field("hi").type == pa.int32()


def test_string_key_with_nulls(ray_session):
    keys = ["a", None, "b", "a", None, "c"] * 40
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(range(len(keys)), pa.int64())})
    got, _ = _check(t, ["k"])
    assert got.num_rows == 4  # nulls form one group, as in SQL GROUP BY


def test_timestamp_and_bool_keys(ray_session):
    base = datetime.datetime(2024, 1, 1)
    t = pa.table({
        "ts": pa.array([base + datetime.timedelta(hours=i % 5)
                        for i in range(200)], pa.timestamp("us")),
        "flag": pa.array([i % 3 == 0 for i in range(200)], pa.bool_()),
        "v": pa.array(range(200), pa.int64()),
    })
    got, _ = _check(t, ["ts", "flag"])
    assert got.schema.field("ts").type == pa.timestamp("us")
    assert got.schema.field("flag").type == pa.bool_()
    # min/max of a timestamp column keep the timestamp type
    got, _ = _check(t, ["flag"], [("first", "ts", "min"), ("last", "ts", "max")])
    assert got.schema.field("first").type == pa.timestamp("us")


def test_float_and_date_keys(ray_session):
    """Keys with no int64 image (fractional floats, dates) are placed by
    their string form, so equal values still meet in one group."""
    t = pa.table({
        "f": pa.array([(i % 6) / 4 for i in range(240)], pa.float64()),
        "d": pa.array([datetime.date(2024, 1, 1 + i % 4) for i in range(240)],
                      pa.date32()),
        "v": pa.array(range(240), pa.int64()),
    })
    got, _ = _check(t, ["f", "d"])
    assert got.num_rows == 12


def test_constant_first_key_still_spreads(ray_session):
    """Block ids hash every key column: pairs that share their first key
    land in more than one reduce partition (hashing only the first key
    would send all of them to one task)."""
    from unravel_ray.relational import exchange_partitions, AGG_BLOCKS

    t = pa.table({"g": pa.array(["only"] * 400, pa.string()),
                  "v": pa.array([i % 100 for i in range(400)], pa.int64()),
                  "w": pa.array(range(400), pa.int64())})
    aggs = [("n", None, "count_all"), ("s", "w", "sum")]
    got, n_out = _check(t, ["g", "v"], aggs)
    assert got.num_rows == 100
    assert exchange_partitions(AGG_BLOCKS) > 1
    assert n_out > 1


def test_sum_over_all_null_group_is_null(ray_session):
    t = pa.table({"k": pa.array(["x", "x", "y", "y", "y"] * 10, pa.string()),
                  "v": pa.array([None, None, 1, None, 2] * 10, pa.int64())})
    got, _ = _check(t, ["k"])
    x = got.filter(pc.equal(got["k"], "x"))
    assert x["n"].to_pylist() == [20]
    assert x["s"].to_pylist() == [None]
    assert x["lo"].to_pylist() == [None]
    assert x["hi"].to_pylist() == [None]


def test_boolean_sum_is_int64(ray_session):
    t = pa.table({"k": pa.array([i % 3 for i in range(90)], pa.int64()),
                  "b": pa.array([i % 2 == 0 for i in range(90)], pa.bool_())})
    got, _ = _check(t, ["k"], [("n_true", "b", "sum")])
    assert got.schema.field("n_true").type == pa.int64()


def test_one_row(ray_session):
    t = pa.table({"k": pa.array(["a"], pa.string()),
                  "v": pa.array([5], pa.int64())})
    got, _ = _check(t, ["k"], n_blocks=1)
    assert got.to_pylist() == [{"k": "a", "n": 1, "s": 5, "lo": 5, "hi": 5}]


def test_empty_input_gives_no_rows(ray_session):
    t = pa.table({"k": pa.array([], pa.string()),
                  "v": pa.array([], pa.int64())})
    got, n_out = _run(t, ["k"], n_blocks=1)
    assert got is None and n_out == 0


# ---------------------------------------------------------------------------
# the keyed exchange under keyed_aggregate: hash_exchange and map_groups
# ---------------------------------------------------------------------------

def test_map_groups_matches_ray_groupby(ray_session):
    """map_groups returns, row for row, what Ray's groupby().map_groups()
    does: two keys (a constant first key, a second key with nulls, which
    form one group), a multi-block input and more groups than reduce
    partitions."""
    import ray
    import ray.data

    from unravel_ray.relational import AGG_BLOCKS, exchange_partitions, map_groups

    def summary(g: pa.Table) -> pa.Table:
        # one row per group, independent of the row order inside it
        return pa.table({
            "c": g["c"][:1], "k": g["k"][:1],
            "n": pa.array([g.num_rows], pa.int64()),
            "s": pa.array([pc.sum(g["v"]).as_py()], pa.int64()),
            "ids": pa.array([",".join(map(str, sorted(g["id"].to_pylist())))]),
        })

    n = 600
    ks = [None if i % 13 == 0 else i % 37 for i in range(n)]
    t = pa.table({"c": pa.array(["only"] * n, pa.string()),
                  "k": pa.array(ks, pa.int64()),
                  "v": pa.array([(i * 7) % 50 for i in range(n)], pa.int64()),
                  "id": pa.array(range(n), pa.int64())})
    ds = ray.data.from_arrow([t.slice(i, 75) for i in range(0, n, 75)])
    order = [("c", "ascending"), ("k", "ascending")]
    want = ds.groupby(["c", "k"]).map_groups(
        summary, batch_format="pyarrow").to_arrow_refs()
    want = pa.concat_tables(ray.get(want)).sort_by(order)
    blocks = [b for b in ray.get(
        map_groups(ds, ["c", "k"], summary).to_arrow_refs())
        if b.num_rows]
    got = pa.concat_tables(blocks).sort_by(order)
    assert got.equals(want)
    assert got.num_rows == 38  # 37 values + the null group
    assert got.num_rows > exchange_partitions(AGG_BLOCKS)
    assert len(blocks) > 1  # the constant first key does not pin one task


def test_hash_exchange_without_keys_calls_fn_once(ray_session):
    """keys=[] sends every row to one partition: fn runs exactly once,
    over the whole multi-block input."""
    import ray.data

    from unravel_ray.relational import hash_exchange

    t = pa.table({"v": pa.array(range(500), pa.int64())})
    ds = ray.data.from_arrow([t.slice(i, 50) for i in range(0, 500, 50)])
    out = hash_exchange(ds, [], lambda p: pa.table(
        {"rows": [p.num_rows], "cols": [",".join(p.column_names)]})).take_all()
    assert out == [{"rows": 500, "cols": "v"}]


def _cogroup_inputs():
    """Two inputs with different columns and types; the right one holds
    a single key, so most reduce partitions get none of its rows. Both
    carry an ``lv`` column, of different types."""
    import ray.data

    n = 200
    left = pa.table({"k": pa.array([i % 50 for i in range(n)], pa.int64()),
                     "lv": pa.array([f"l{i}" for i in range(n)], pa.string()),
                     "lx": pa.array([i / 4 for i in range(n)], pa.float64())})
    right = pa.table({
        "k": pa.array([7, 7, 7], pa.int64()),
        "lv": pa.array([70, 71, 72], pa.int64()),
        "rv": pa.array([1, 2, 3], pa.int32()),
        "rd": pa.array([datetime.date(2024, 1, d) for d in (1, 2, 3)],
                       pa.date32())})
    return (ray.data.from_arrow([left.slice(i, 50) for i in range(0, n, 50)]),
            ray.data.from_arrow(right), left, right)


def test_cogroup_hands_each_input_its_own_schema(ray_session):
    """The list form of hash_exchange calls fn with one table per input,
    in that input's schema, an empty one where the input has no rows in
    the partition."""
    from unravel_ray.relational import AGG_BLOCKS, exchange_partitions, hash_exchange

    lds, rds, left, right = _cogroup_inputs()

    def seen(*tables: pa.Table) -> pa.Table:
        lt, rt = tables
        return pa.table({"n_in": [len(tables)], "nl": [lt.num_rows],
                         "nr": [rt.num_rows],
                         "lok": [lt.schema == left.schema],
                         "rok": [rt.schema == right.schema],
                         "lkeys": [len(set(lt["k"].to_pylist()))]})

    calls = hash_exchange([(lds, left.schema), (rds, right.schema)], ["k"],
                          seen).take_all()
    assert exchange_partitions(AGG_BLOCKS) == 4
    assert len(calls) > 2
    assert all(c["n_in"] == 2 and c["lok"] and c["rok"] for c in calls)
    assert sum(c["nl"] for c in calls) == left.num_rows
    assert sorted(c["nr"] for c in calls)[-2:] == [0, right.num_rows]
    assert sum(c["lkeys"] for c in calls) == 50


def test_hash_join_outer_over_cogroup_types(ray_session):
    """left / full hash_join over inputs of different columns emit the
    right columns in their own types, null where unmatched, and every
    output block has one schema."""
    import ray

    from unravel_ray.relational import hash_join

    lds, rds, left, right = _cogroup_inputs()
    for how in ("left", "full"):
        for schemas in (None, (left.schema, right.schema)):
            blocks = [b for b in ray.get(hash_join(
                lds, rds, on="k", how=how, schemas=schemas).to_arrow_refs())
                if b.num_rows]
            assert len(blocks) > 1
            assert all(b.schema == blocks[0].schema for b in blocks)
            got = pa.concat_tables(blocks)
            assert got.column_names == ["k", "lv", "lx", "lv_r", "rv", "rd"]
            assert [got.schema.field(c).type for c in ("lv_r", "rv", "rd")] \
                == [pa.int64(), pa.int32(), pa.date32()]
            assert got.num_rows == 196 + 4 * 3  # key 7: 4 left x 3 right
            hit = got.filter(pc.equal(got["k"], 7))
            assert sorted(hit["rv"].to_pylist()) == [1] * 4 + [2] * 4 + [3] * 4
            miss = got.filter(pc.not_equal(got["k"], 7))
            assert all(miss[c].null_count == miss.num_rows
                       for c in ("lv_r", "rv", "rd"))


def test_no_ray_groupby_and_one_exchange_site():
    """Every keyed shuffle goes through relational.hash_exchange: no Ray
    groupby or map_groups call in the engine, and _block_exchange is
    called only by hash_exchange (hash_join and asof_join co-group
    through it)."""
    import ast
    import glob
    import os
    import re

    from unravel_ray import relational

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = sorted(glob.glob(os.path.join(root, "unravel_ray", "*.py")))
    files.append(os.path.join(root, "__ray_entry__.py"))
    for path in files:
        src = open(path).read()
        assert not re.search(r"\.groupby\(|\.map_groups\(", src), path
        if os.path.basename(path) != "relational.py":
            assert "block_exchange(" not in src, path
    tree = ast.parse(open(os.path.join(root, "unravel_ray", "relational.py")).read())
    callers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_block_exchange"}
    assert callers == {"hash_exchange"}
    assert not hasattr(relational, "block_exchange")
