"""Each input of ``stages.joins.hash_join`` runs once: the join takes
its schemas without a partial execution (``joins.with_schema``), and a
join's output carries its schema, so a chained join neither runs nor
materializes it for that schema."""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data as rd

from etl_reconciliate_ray.stages.joins import hash_join, with_schema


def _marked(path):
    """A pass-through UDF that appends one line to ``path`` per call."""

    def udf(t: pa.Table) -> pa.Table:
        with open(path, "a") as fh:
            fh.write("call\n")
        return t

    return udf


def _calls(path) -> int:
    with open(path) as fh:
        return len(fh.readlines())


def test_hash_join_runs_each_input_once(tmp_path):
    left = rd.from_arrow([pa.table({"k": [0, 1], "a": ["x", "y"]}),
                          pa.table({"k": [2, 3], "a": ["z", "w"]})])
    right = rd.from_arrow([pa.table({"k": [1, 2], "b": [10, 20]}),
                           pa.table({"k": [3, 4], "b": [30, 40]})])
    lp, rp = tmp_path / "left", tmp_path / "right"
    out = hash_join(
        left.map_batches(_marked(lp), batch_format="pyarrow", batch_size=None),
        right.map_batches(_marked(rp), batch_format="pyarrow", batch_size=None),
        on="k", num_buckets=4,
    )
    rows = sorted((r["k"], r["a"], r["b"]) for r in out.take_all())
    assert rows == [(1, "y", 10), (2, "z", 20), (3, "w", 30)]
    assert (_calls(lp), _calls(rp)) == (2, 2)


def test_with_schema_keeps_a_plan_that_knows_its_schema():
    ds = rd.from_arrow(pa.table({"k": [1, 2]}))
    same, schema = with_schema(ds)
    assert same is ds and schema.names == ["k"]


def test_a_join_output_carries_its_schema(tmp_path):
    left = rd.from_arrow(pa.table({
        "k": [1, 2], "a": ["x", "y"], "t": pa.array([1, 2], pa.timestamp("us")),
    }))
    right = rd.from_arrow(pa.table({"k": [2, 3], "a": [1.5, 2.5]}))
    out = hash_join(left, right, on="k", how="outer", num_buckets=2)
    same, schema = with_schema(out)
    assert same is out  # known without running: not materialized
    want = pa.schema([("k", pa.int64()), ("a_l", pa.string()),
                      ("t", pa.timestamp("us")), ("a_r", pa.float64())])
    assert schema.base_schema == want
    for block in ray.get(out.to_arrow_refs()):  # null-bearing buckets too
        assert block.schema.remove_metadata() == want

    # chained: the first join's input runs once per block, and the
    # second join takes the first one's output as it is
    mp = tmp_path / "marks"
    first = hash_join(
        rd.from_arrow([pa.table({"k": [0, 1], "x": [5, 6]}),
                       pa.table({"k": [2, 3], "x": [7, 8]})])
        .map_batches(_marked(mp), batch_format="pyarrow", batch_size=None),
        rd.from_arrow(pa.table({"k": [0, 1, 2, 3], "y": [0, 1, 0, 1]})),
        on="k", num_buckets=2,
    )
    second = hash_join(first, rd.from_arrow(pa.table({"y": [1], "z": ["one"]})),
                       on="y", num_buckets=2)
    assert sorted((r["k"], r["z"]) for r in second.take_all()) == [(1, "one"), (3, "one")]
    assert _calls(mp) == 2
