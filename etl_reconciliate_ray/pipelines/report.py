"""Report sink: the reference's Excel-report + email stage (K1/K2,
``service/ExcelReportService.java:53-163`` two sheets LOTES/DETALLE,
``service/EmailService.java:31-59``) re-expressed as a data engine's
output contract:

- the DETALLE sheet  -> partitioned parquet of the reconcile DETAIL
  rows (one directory per status class, so a re-run can skip classes
  already written and consumers can read just the discrepancies),
- the LOTES sheet    -> parquet of the per-repo ROLLUP table,
- the email          -> a small ``summary.json`` next to the report
  (exact per-status counts + run metadata) — the machine-readable
  equivalent of the human notification.

Writes are resumable and durable: each table is a sealed directory
(``stages.writer.publish_sealed``: its files publish task-side through
``publish_parquet``, then its ``_DONE`` marker), and ``summary.json``
publishes last through ``CommitLog._write_atomic`` — a consumer that
sees ``summary.json`` sees a complete report, also after a host crash
(manifest-gated visibility, as in the lake sink).

Conditional row coloring (green/red on status, ``:122-124,143-145``)
is presentation-only and out of engine scope (SURVEY.md §2.1 K1).
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.writer import publish_file, publish_parquet, publish_sealed
from ..state.commitlog import CommitLog


def write_report(detail_ds, rollup_ds, counts_df, out_dir: str, meta: dict | None = None) -> dict:
    """Write the two report tables + summary. Returns the summary dict.

    ``detail_ds`` / ``rollup_ds``: Ray Datasets (detail has a
    ``status`` column); ``counts_df``: the exact per-status counts
    (pandas). Partitioned by status (``detail/status=<S>/``) so
    discrepancy classes are separately addressable and a completed
    table is skipped on re-run.

    Resume safety: a table directory WITHOUT its ``_DONE`` marker may
    hold a crashed attempt's files (named by content, but blocks follow
    the CPU count, so a rerun may split rows differently) — it is
    cleared before rewriting; only ``_DONE``-marked directories skip.
    """
    t0 = time.monotonic()
    _write_table(detail_ds, os.path.join(out_dir, "detail"), "status")
    _write_table(rollup_ds, os.path.join(out_dir, "rollup"), None)
    summary = {
        "status_counts": {
            str(s): int(n) for s, n in zip(counts_df["status"], counts_df["n"])
        },
        "total_rows": int(counts_df["n"].sum()),
        "sec": round(time.monotonic() - t0, 3),
        **(meta or {}),
    }
    CommitLog._write_atomic(os.path.join(out_dir, "summary.json"), [summary])
    return summary


def _write_table(ds, table_dir: str, split_col: str | None) -> None:
    """Publish ``table_dir`` as a sealed directory
    (``writer.publish_sealed``, marker ``_DONE`` of ``rows`` and
    ``files``): each block of ``ds`` publishes its own files, split by
    ``split_col`` into ``<split_col>=<value>/`` files without that
    column. Both report tables are keyed, so no two blocks share a
    file."""

    def publish(block: pa.Table) -> pa.Table:
        parts = {table_dir: block}
        if split_col is not None and block.num_rows:
            rest = block.drop_columns([split_col])
            parts = {
                os.path.join(table_dir, f"{split_col}={v}"): rest.filter(pc.equal(block[split_col], v))
                for v in pc.unique(block[split_col]).to_pylist()
            }
        parts = {d: t for d, t in parts.items() if t.num_rows}
        return pa.table({
            "file": pa.array([publish_parquet(d, [t]) for d, t in parts.items()], pa.string()),
            "rows": pa.array([t.num_rows for t in parts.values()], pa.int64()),
        })

    publish_sealed(table_dir, lambda: pa.Table.from_pylist(
        ds.map_batches(publish, batch_format="pyarrow", batch_size=None).take_all()), "_DONE")


# Reference sheet layout (ExcelReportService.java:30-38,108-146): the
# LOTES sheet is the per-batch rollup, the DETALLE sheet the per-row
# detail, each with a header row and the status column LAST.
_SHEET_LOTES = "lotes"
_SHEET_DETALLE = "detalle"
_RENDER_MAX_ROWS = 1_000_000


def render_report(out_dir: str, fmt: str = "csv", max_rows: int = _RENDER_MAX_ROWS) -> dict:
    """Human-parity render of a written report (K1 presentation gap):
    the two parquet tables re-emitted as the reference's two sheets
    (``ExcelReportService.java:53-163`` LOTES/DETALLE), status column
    moved last to mirror the sheet layout.

    ``fmt="csv"`` writes ``report_lotes.csv`` / ``report_detalle.csv``
    (always available); ``fmt="xlsx"`` writes one two-sheet workbook if
    ``openpyxl``/``xlsxwriter`` is importable and raises a clear
    ``RuntimeError`` otherwise (neither ships in this container).

    This is a DRIVER-SIDE presentation artifact for a human comparing
    against the reference's Excel output — it refuses beyond
    ``max_rows`` (a 100 TB detail table is not a spreadsheet; read the
    partitioned parquet instead). Cell coloring (:122-124,143-145) is
    presentation-only and intentionally out of scope."""
    import pandas as pd

    def _load(sub: str) -> pd.DataFrame:
        root = os.path.join(out_dir, sub)
        if not os.path.exists(os.path.join(root, "_DONE")):
            raise FileNotFoundError(f"report table {sub!r} not written (no _DONE) in {out_dir}")
        import pyarrow.dataset as pads

        dset = pads.dataset(root, format="parquet", partitioning="hive",
                            ignore_prefixes=["_", "."])
        n = dset.count_rows()
        if n > max_rows:
            raise ValueError(
                f"{sub} has {n} rows > max_rows={max_rows}; the render is a "
                "small-scale presentation artifact — read the parquet report instead"
            )
        df = dset.to_table().to_pandas()
        if "status" in df.columns:  # status last, like the reference sheets
            df = df[[c for c in df.columns if c != "status"] + ["status"]]
        return df

    sheets = {_SHEET_LOTES: _load("rollup"), _SHEET_DETALLE: _load("detail")}
    written: dict[str, str] = {}
    if fmt == "csv":
        for name, df in sheets.items():
            path = os.path.join(out_dir, f"report_{name}.csv")
            df.to_csv(path + ".tmp", index=False)
            publish_file(path + ".tmp", path)
            written[name] = path
    elif fmt == "xlsx":
        try:
            import openpyxl  # noqa: F401  (either engine satisfies pandas)
        except ImportError:
            try:
                import xlsxwriter  # noqa: F401
            except ImportError as exc:
                raise RuntimeError(
                    "fmt='xlsx' needs openpyxl or xlsxwriter (not in this "
                    "container); use fmt='csv'"
                ) from exc
        path = os.path.join(out_dir, "report.xlsx")
        # temp name keeps the .xlsx SUFFIX: pandas infers the Excel
        # engine from the final extension, so "report.xlsx.tmp" raised
        # "No engine for filetype: 'tmp'" on every write, even with
        # openpyxl installed
        tmp = os.path.join(out_dir, "report.tmp.xlsx")
        with pd.ExcelWriter(tmp) as xw:
            for name, df in sheets.items():
                df.to_excel(xw, sheet_name=name, index=False)
        publish_file(tmp, path)
        written = {name: path for name in sheets}
    else:
        raise ValueError(f"unknown fmt {fmt!r} (csv|xlsx)")
    return {
        "files": written,
        "rows": {name: int(len(df)) for name, df in sheets.items()},
        "columns": {name: list(df.columns) for name, df in sheets.items()},
    }
