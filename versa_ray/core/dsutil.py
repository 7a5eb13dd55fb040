"""Small Dataset-consumption and Parquet-sink helpers.

``Dataset.take_all()`` materializes rows through per-row block
indexing, which on pandas-format blocks costs ~0.5 ms/row of driver
time (16k rows ≈ 10 s) — it is only appropriate for tiny results.
``rows_of`` fetches whole blocks and converts once, driver-side cost
~0.1 s per 100k rows regardless of block format.
"""

from __future__ import annotations


def rows_of(ds) -> list[dict]:
    """All rows of a (small-result) Dataset as a list of dicts —
    block-wise fetch + one vectorized conversion, never per-row block
    slicing. Same contract as ``take_all()``."""
    out: list[dict] = []
    for batch in ds.iter_batches(batch_size=None, batch_format="pandas"):
        out.extend(batch.to_dict("records"))
    return out


def _drop_schema_metadata(tbl):
    return tbl.replace_schema_metadata(None)


def write_parquet_plain(ds, path, partition_cols) -> None:
    """``ds.write_parquet(path, partition_cols=...)`` with each block's
    Arrow schema metadata dropped first. Blocks a pandas UDF produced
    carry a ``b'pandas'`` key that Parquet keeps, and every later read
    of such a file makes Ray log that it failed to hash the schemas
    (the key parses to an unhashable dict)."""
    ds.map_batches(
        _drop_schema_metadata, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    ).write_parquet(path, partition_cols=partition_cols)
