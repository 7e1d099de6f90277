"""The per-part fan-out rule (``replay._per_part``): a fan-out runs
``min(parts, cluster CPUs)`` tasks, each returning one Arrow table (a
block of the Datasets built over them), and parts are dealt to them
round-robin, so a salted repo's consecutive bucket ids land in
different tasks. The test session runs Ray with ``num_cpus=4``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from etl_reconciliate_ray.functions.hashing import buckets_for_key
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    _per_part,
    lake_dataset,
    replay_stream,
)

CPUS = 4


def _blocks(ds) -> list[pa.Table]:
    return [ray.get(ref) for ref in ds.materialize().to_arrow_refs()]


@pytest.mark.parametrize("parts", [1, 3, 4, 10])
def test_per_part_blocks_are_min_of_parts_and_cpus(parts):
    assert int(ray.cluster_resources()["CPU"]) == CPUS
    refs = _per_part(
        [{"part": i} for i in range(parts)],
        lambda item: pa.table({"part": [item["part"]]}),
    )
    n = min(parts, CPUS)
    assert len(refs) == n
    got = {frozenset(t["part"].to_pylist()) for t in ray.get(refs)}
    assert got == {frozenset(range(j, parts, n)) for j in range(n)}


def test_per_part_block_of_empty_parts_keeps_its_schema():
    typed = pa.schema([("part", pa.int64())])

    def part_fn(item):
        # only parts 0 and 4 hold rows: the tasks dealt 1+5, 2+6 and
        # 3+7 see only empty parts
        rows = [item["part"]] if item["part"] % 4 == 0 else []
        return pa.table({"part": pa.array(rows, pa.int64())})

    blocks = ray.get(_per_part([{"part": i} for i in range(8)], part_fn))
    assert len(blocks) == CPUS
    assert sorted(p for t in blocks for p in t["part"].to_pylist()) == [0, 4]
    assert all(t.schema.equals(typed) for t in blocks)


def test_salted_buckets_land_in_different_blocks(tmp_path):
    """A merge-on-read scan of a lake whose hot repo is salted over 4 of
    8 buckets: 4 blocks, and each of them holds exactly one of the hot
    repo's buckets (contiguous ranges would put two in one block)."""
    salt = {"hot": 4}
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    repos = ["hot"] * 64 + [f"r{i}" for i in range(64)]
    paths = [f"p{i}" for i in range(len(repos))]
    pq.write_table(pa.table({
        "seq": pa.array(range(len(repos)), pa.int64()),
        "op": ["I"] * len(repos),
        "repo": repos,
        "path": paths,
        "content": [f"c{i}" for i in range(len(repos))],
    }), str(binlog / "epoch=00000.parquet"))
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=8, salt_for_repo=salt)
    replay_stream(str(binlog), cfg)

    hot = sorted(buckets_for_key("hot", None, 8, salt))
    assert len(hot) == 4
    ds = lake_dataset(cfg.lake_root).materialize()
    assert ds.num_blocks() == CPUS
    blocks = _blocks(ds)
    assert sum(t.num_rows for t in blocks) == len(repos)
    per_block = []
    for t in blocks:
        is_hot = pa.compute.equal(t["repo"], "hot")
        per_block.append(set(t.filter(is_hot)["bucket"].to_pylist()))
    assert sorted(b for s in per_block for b in s) == hot
    assert all(len(s) == 1 for s in per_block)
