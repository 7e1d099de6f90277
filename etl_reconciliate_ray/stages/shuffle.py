"""The catalog's keyed shuffle: one bucket routing, one tag column and
one tag -> ``groupby(tag).map_groups`` -> drop-tag sequence behind every
hash-bucketed operator (window functions, sessions, nest, LWW, joins,
reconcile, graph kernels and the bucket-kernel queries).

Rows are grouped by a hash BUCKET of their key, not by the raw key:
``num_buckets`` dense groups instead of one per key, so the shuffle
moves large blocks and each ``map_groups`` call runs one vectorized
kernel over whole keys. A bucket must fit a worker's heap; raise
``num_buckets`` with the data.

The lake routes by its own ``hashing.bucket_of`` (repo-keyed, salted);
only ``reconcile_datasets`` brings that routing here, as a function
``key``. Ray Data is not imported: the helper only calls methods of the
Datasets it is given, so importing this module costs a lake task
nothing beyond ``functions.hashing``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

from ..functions.hashing import hash64

#: the tag column; ``fn`` never sees it
BUCKET = "__bucket__"


def bucket_ids(col: pa.Array | pa.ChunkedArray, num_buckets: int) -> pa.Array:
    """int32 bucket id per row: ``hash64(col) % num_buckets``. Integer
    keys hash before the mod too (a plain ``key % n`` sends ids strided
    by n to ONE bucket), and ``hash64`` is width-insensitive, so int32
    and int64 sides of a cogroup agree."""
    return pa.array((hash64(col) % np.uint64(num_buckets)).astype(np.int32))


def keyed_shuffle(
    inputs,
    key: str | Callable[[pa.Table], pa.Array],
    num_buckets: int,
    fn: Callable,
    batch_format: str = "pyarrow",
):
    """``fn`` over each bucket of ``inputs`` (one Dataset, or a list
    whose tagged sides are unioned into one shuffle), as a Dataset.

    ``key`` is the routing column, bucketed by ``bucket_ids``, or a
    function of a pyarrow batch returning its rows' bucket ids. ``fn``
    gets one bucket's rows, without the tag, in ``batch_format``."""
    def tag(t: pa.Table) -> pa.Table:
        b = key(t) if callable(key) else bucket_ids(t[key], num_buckets)
        return t.append_column(BUCKET, b)

    sides = inputs if isinstance(inputs, (list, tuple)) else [inputs]
    first, *rest = [d.map_batches(tag, batch_format="pyarrow") for d in sides]
    tagged = first.union(*rest) if rest else first
    if batch_format == "pandas":
        def run(b):
            return fn(b.drop(columns=[BUCKET]))
    else:
        def run(b):
            return fn(b.drop_columns([BUCKET]))
    return tagged.groupby(BUCKET).map_groups(run, batch_format=batch_format)
