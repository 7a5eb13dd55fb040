"""Keyed joins the KG operators need beyond Ray Data's own.

``semi_join_keys``: exact distributed semi / anti join of a Dataset
against a key Dataset, as one two-input keyed exchange
(``core.exchange``). The mini query language and the graph
operators run their negation and membership steps through it.

``salted_join``: a skew-robust inner / left-outer join for a hot-key
left side (``kg_hits`` joins lineitem to orders through it).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["semi_join_keys", "salted_join"]


def semi_join_keys(left, keys, on, keys_on=None, anti=False, left_cols=None):
    """EXACT distributed semi (``anti=False``) / anti (``anti=True``)
    join: keep left rows whose ``on`` value is / is not present in
    ``keys`` (a Dataset holding the key column ``keys_on``). One
    two-input ``exchange`` instead of ``Dataset.join``: Ray 2.49's hash
    join aggregator finalizes an empty partition side as a SCHEMA-LESS
    zero-column table, so pyarrow rejects the key field whenever any
    hash partition receives no rows from one side (guaranteed to
    happen when ``keys`` is small). ``left_cols`` narrows the left rows to
    those columns. The result keeps the left schema."""
    from ..core.exchange import exchange

    keys_on = keys_on or on
    if left_cols:
        left = left.select_columns(list(left_cols))

    def _key_col(tbl):
        # empty shuffle blocks may have dropped their columns
        return tbl.select([keys_on]) if keys_on in tbl.column_names else tbl

    def _filter(l: pd.DataFrame, k: pd.DataFrame) -> pd.DataFrame:
        if not len(l):
            return None
        mask = l[on].isin(set(k[keys_on]) if len(k) else set())
        return l[~mask] if anti else l[mask]

    return exchange(
        [left, keys.map_batches(_key_col, batch_format="pyarrow")],
        [[on], [keys_on]], _filter, lambda ls, ks: ls)


def salted_join(left, right, on, right_on=None, salt=8, num_partitions=None,
                join_type="inner"):
    """Skew-robust inner join for a HOT-KEY left side.

    A plain hash join sends every row of a hot key to one partition —
    at web scale a single head entity (or head domain) can be a
    double-digit percentage of the corpus, and that one partition
    becomes the wall-clock. Standard remedy, implemented here:

    * LEFT rows get a deterministic salt in ``[0, salt)`` derived from
      a row-content hash (hot-key rows spread across ``salt``
      partitions; full-duplicate rows co-locate, which is harmless).
    * RIGHT rows are replicated ``salt`` times, once per salt value —
      the right side of a skewed join is the dimension-sized side, so
      the replication factor is bounded and known.
    * The join keys become ``(key, _salt)``.

    Result equals ``left.join(right)`` row-for-row (equality-tested in
    tests/test_ops.py); only the partition layout changes. For a
    right side small enough to broadcast, prefer a broadcast lookup
    inside map_batches instead of any shuffle join.
    """
    import ray

    if join_type not in ("inner", "left_outer"):
        # right/full outer would emit `salt` null-extended copies of
        # every unmatched right row (one per replica)
        raise ValueError(
            "salted_join supports inner/left_outer only; "
            f"got {join_type!r}")
    if num_partitions is None:
        # Ray's hash join starts one aggregator per partition; more
        # partitions than this stall a small cluster
        try:
            num_partitions = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_partitions = 16
    right_on = right_on or on

    def _salt_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_salt"] = (
            pd.util.hash_pandas_object(df, index=False) % salt
        ).astype("int32")
        return df

    def _replicate_right(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        out = df.iloc[np.tile(np.arange(n), salt)].copy()
        out["_salt"] = np.repeat(
            np.arange(salt, dtype=np.int32), n)
        return out

    joined = left.map_batches(_salt_left, batch_format="pandas").join(
        right.map_batches(_replicate_right, batch_format="pandas"),
        join_type=join_type,
        num_partitions=num_partitions,
        on=(on, "_salt"),
        right_on=(right_on, "_salt"),
    )
    return joined.drop_columns(["_salt"])

