"""Table catalog over a parquet directory (the driver's sf dirs or any
lake path) + the pluggable connector registry.

Replaces the reference's named-JDBC-datasource registry (S5,
``config/datasource/*.java`` + prefixed properties; swap a backing
store by providing another DAO impl, ``swift/dao/*.java`` —
SURVEY.md §2.9) with the Ray Data equivalent:

- one path per logical table, read with column pruning and optional
  row filters pushed to the reader;
- a **connector registry**: format name -> reader callable returning a
  Dataset. Built-ins cover parquet (full pushdown), csv and json
  (column pruning post-read — those formats have no row-group stats);
  ``register_connector`` adds a custom backing store without touching
  any pipeline code — the "connector plugin" surface.

The reference's other §2.9 surface (the Tasklet step plugin) needs no
registry here: a pipeline step IS any callable/class passed to
``map_batches`` — composition happens in plain Python.
"""

from __future__ import annotations

import os
from typing import Callable

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _parquet_connector(path: str, columns=None, filter=None):
    import ray.data as rd

    kwargs = {}
    if columns is not None:
        kwargs["columns"] = columns
    if filter is not None:
        kwargs["filter"] = filter
    return rd.read_parquet(path, **kwargs)


def _csv_connector(path: str, columns=None, filter=None):
    import ray.data as rd

    ds = rd.read_csv(path)
    return _post_prune(ds, columns, filter)


def _json_connector(path: str, columns=None, filter=None):
    import ray.data as rd

    ds = rd.read_json(path)
    return _post_prune(ds, columns, filter)


def _post_prune(ds, columns, filter):
    """Row-oriented formats can't prune at the scan; apply the same
    contract (columns + pyarrow-expression filter) right after it."""
    if filter is not None:
        import pyarrow.dataset as pads  # noqa: F401  (expression type)

        ds = ds.map_batches(
            lambda t: t.filter(filter), batch_format="pyarrow"
        )
    if columns is not None:
        ds = ds.select_columns(columns)
    return ds


def _orc_connector(path: str, columns=None, filter=None):
    from .filefmt import ORCDatasource, make_datasource_connector

    return make_datasource_connector(ORCDatasource)(path, columns=columns, filter=filter)


def _feather_connector(path: str, columns=None, filter=None):
    from .filefmt import FeatherDatasource, make_datasource_connector

    return make_datasource_connector(FeatherDatasource)(path, columns=columns, filter=filter)


CONNECTORS: dict[str, Callable] = {
    "parquet": _parquet_connector,
    "csv": _csv_connector,
    "json": _json_connector,
    "orc": _orc_connector,       # stripe-parallel, columns pruned at reader
    "feather": _feather_connector,  # Arrow IPC, zero-copy batch stream
}


def register_connector(fmt: str, reader: Callable) -> None:
    """Plug in a backing store: ``reader(path, columns, filter) ->
    Dataset``. Registered names are usable by ``read_source`` (and by
    any pipeline taking a ``fmt=``) exactly like the built-ins."""
    CONNECTORS[fmt] = reader


def read_source(path: str, fmt: str = "parquet", columns=None, filter=None):
    """Read any registered source format into a Dataset with the
    uniform (columns, filter) pushdown contract."""
    try:
        conn = CONNECTORS[fmt]
    except KeyError:
        raise ValueError(f"no connector registered for format {fmt!r}; "
                         f"known: {sorted(CONNECTORS)}") from None
    return conn(path, columns=columns, filter=filter)


def table_path(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def read_table(sf_dir: str, name: str, columns: list[str] | None = None, filter=None):
    """ray.data Dataset for a catalog table. ``columns`` prunes at the
    read; ``filter`` is a pyarrow dataset expression pushed to row
    groups (prune at the read — never load all columns for a
    2-column transform)."""
    return read_source(table_path(sf_dir, name), "parquet", columns=columns, filter=filter)


def read_table_pandas(sf_dir: str, name: str, columns: list[str] | None = None):
    """Driver-side pyarrow read for provably-small sides (dimension
    tables, query vectors) that get broadcast via ``ray.put``."""
    import pyarrow.parquet as pq

    return pq.read_table(table_path(sf_dir, name), columns=columns).to_pandas()


# ---------------------------------------------------------------- sinks
def _parquet_sink(ds, path: str, **kwargs):
    ds.write_parquet(path, **kwargs)


def _csv_sink(ds, path: str, **kwargs):
    ds.write_csv(path, **kwargs)


def _json_sink(ds, path: str, **kwargs):
    ds.write_json(path, **kwargs)


SINKS: dict[str, Callable] = {
    "parquet": _parquet_sink,  # the default: partitionable, resumable
    "csv": _csv_sink,
    "json": _json_sink,
}


def register_sink(fmt: str, writer: Callable) -> None:
    """Plug in an output store: ``writer(ds, path, **kwargs)``. The
    mirror of ``register_connector`` — the reference swaps its report
    target by providing another writer bean; here a sink is any
    callable that consumes a Dataset (distributed file writes happen
    inside Ray Data's write operators, one task per block)."""
    SINKS[fmt] = writer


def write_sink(ds, path: str, fmt: str = "parquet", **kwargs) -> None:
    """Write a Dataset through any registered sink format. Parquet is
    the engine's contract format; csv/json exist for interchange with
    row-oriented consumers."""
    try:
        sink = SINKS[fmt]
    except KeyError:
        raise ValueError(f"no sink registered for format {fmt!r}; "
                         f"known: {sorted(SINKS)}") from None
    sink(ds, path, **kwargs)
