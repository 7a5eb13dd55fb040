"""Keyed and temporal joins Ray Data lacks natively.

``semi_join_keys``: exact distributed semi / anti join of a Dataset
against a key Dataset, as one two-input keyed exchange
(``core.exchange``). The mini query language and the graph
operators run their negation and membership steps through it.

``salted_join``: a skew-robust inner / left-outer join for a hot-key
left side (``kg_hits`` joins lineitem to orders through it).

``asof_join``: for each left row, the single most recent right row
with ``right[on] <= left[on]`` (direction='backward'; 'forward' /
'nearest' per pandas) sharing the same ``by`` key. One two-input
keyed exchange on ``by``; inside the bucket a sorted
``pandas.merge_asof`` does the per-key matching (C-speed).
``range_join`` / ``range_join_overlap`` build interval joins on it
(the ``events_*`` clickstream queries use all three).

PARTITIONING ASSUMPTION (documented): all rows of one ``by`` key
co-locate in one bucket task — the standard as-of requirement; a
pathologically hot key needs salting by time range plus a boundary
pass, which this implementation does not do.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["asof_join", "semi_join_keys", "range_join",
           "range_join_overlap", "salted_join"]


def asof_join(left, right, on="ts", by="user_id", right_cols=(),
              suffix="_r", direction="backward", num_buckets=32,
              inner=True):
    """Returns left columns + ``{on}{suffix}`` (the matched right
    timestamp) + each requested right column renamed with ``suffix``.
    ``inner=True`` drops left rows with no match (DuckDB ASOF JOIN
    semantics — the oracle surface); ``inner=False`` keeps them with
    nulls. Right columns are suffixed BEFORE the tagged union, and
    the union's null-filled right-side columns are dropped from the
    left inside the bucket, so the output schema is exactly
    left + suffixed-right. ``by`` keys are bucketed with a
    dtype-normalized hash (``core.exchange.bucket_of``) so an int32
    right key still co-locates with an int64 left key."""
    from ..core.exchange import exchange

    right_cols = [c for c in right_cols if c not in (on, by)]
    out_right = [on + suffix] + [c + suffix for c in right_cols]

    sch = left.schema(fetch_if_missing=False)
    if sch is not None:
        collide = set(sch.names) & set(out_right)
        if collide:
            raise ValueError(
                f"left columns {sorted(collide)} collide with suffixed "
                f"right output names; pass a different suffix"
            )

    def _right(df: pd.DataFrame) -> pd.DataFrame:
        return df[[by, on] + right_cols].rename(
            columns={c: c + suffix for c in [on] + right_cols}
        )

    def _join(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if not len(l):
            return None
        if not len(r):
            return None if inner else l.assign(**{c: None for c in out_right})
        r = r.astype({by: l[by].dtype})
        l = l.sort_values(on, kind="stable")
        r = r.sort_values(on + suffix, kind="stable")
        m = pd.merge_asof(
            l, r, left_on=on, right_on=on + suffix, by=by,
            direction=direction,
        )
        if inner:
            m = m[m[on + suffix].notna()]
        return m

    return exchange(
        [left, right.map_batches(_right, batch_format="pandas")], by, _join,
        lambda ls, rs: _joined_schema(ls, rs, out_right), num_buckets)


def _joined_schema(ls, rs, right_names):
    """Left schema plus the named right fields (null-typed where the
    bucket drew no right rows)."""
    import pyarrow as pa

    return pa.schema(list(ls) + [
        rs.field(c) if c in rs.names else pa.field(c, pa.null())
        for c in right_names])


def semi_join_keys(left, keys, on, keys_on=None, anti=False,
                   num_buckets=64, left_cols=None):
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
        [[on], [keys_on]], _filter, lambda ls, ks: ls, num_buckets)


def range_join(left, right, on="ts", by="user_id",
               start_col="session_start", end_col="session_end",
               right_cols=(), suffix="_r", num_buckets=32):
    """Interval join for NON-OVERLAPPING per-key intervals (sessions,
    validity windows, SCD-style ranges): each left row matches the
    interval containing ``left[on]``. Because intervals don't overlap
    per key, this reduces to an as-of backward match on the interval
    start followed by an end-bound filter — one shuffle, no per-key
    cartesian product. Overlapping intervals need an interval-tree
    bucket variant (not implemented; documented limit). Inner-join
    semantics: rows outside every interval are dropped.

    Output: left columns + ``{start_col}{suffix}`` /
    ``{end_col}{suffix}`` + requested right columns with ``suffix``."""
    extra = [c for c in right_cols if c not in (start_col, end_col, by)]

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[by, start_col, end_col] + extra].rename(
            columns={start_col: on}
        )
        return out

    prepped = right.map_batches(_prep, batch_format="pandas")
    out = asof_join(
        left, prepped, on=on, by=by, right_cols=[end_col] + extra,
        suffix=suffix, direction="backward", num_buckets=num_buckets,
        inner=True,
    )

    def _bound(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[end_col + suffix] >= df[on]]
        return df.rename(columns={on + suffix: start_col + suffix})

    return out.map_batches(_bound, batch_format="pandas")


def range_join_overlap(left, right, on="ts", by="user_id",
                       start_col="win_start", end_col="win_end",
                       right_cols=(), suffix="_r", grain="1h",
                       num_buckets=64, max_replication=10_000):
    """Interval join for OVERLAPPING per-key intervals — each left row
    pairs with EVERY interval containing ``left[on]`` (the SQL
    ``JOIN ... ON key AND ts BETWEEN start AND end`` shape, inner
    semantics, 1:N output). ``range_join`` above stays the one-pass
    fast path for non-overlapping intervals.

    Mechanics: time-bucket replication. Intervals are replicated into
    every ``grain``-sized time bucket they overlap; left rows land in
    exactly one bucket, so each (row, interval) pair meets exactly
    once — no post-dedup. Both sides co-locate on a coarse hash of
    (key, time bucket), one shuffle total.

    PARTITIONING ASSUMPTION: interval spans are bounded relative to
    ``grain`` (an interval replicates span/grain + 1 times; a batch
    whose widest interval exceeds ``max_replication`` buckets raises —
    raise ``grain`` instead). Pick ``grain`` near the typical interval
    length: too fine multiplies replication, too coarse grows the
    per-bucket candidate sets."""
    from ..core.exchange import exchange

    grain_ns = int(pd.Timedelta(grain).value if isinstance(grain, str)
                   else grain)
    extra = [c for c in right_cols if c not in (start_col, end_col, by)]
    out_right = [start_col + suffix, end_col + suffix] + \
        [c + suffix for c in extra]

    def _tb(series: pd.Series) -> np.ndarray:
        if isinstance(series.dtype, pd.DatetimeTZDtype):
            # pandas 2.x forbids astype() from tz-aware to naive:
            # normalize to UTC, drop the tz, then take epoch ns (keeps
            # tz-aware and naive-UTC inputs in one bucket space)
            iv = (series.dt.tz_convert("UTC").dt.tz_localize(None)
                  .astype("datetime64[ns]").astype("int64"))
        elif str(series.dtype).startswith("datetime64"):
            iv = series.astype("datetime64[ns]").astype("int64")
        else:
            iv = series.astype("int64")
        return iv.to_numpy() // grain_ns

    def _left(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_tb=_tb(df[on]))

    def _right(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[by, start_col, end_col] + extra].rename(
            columns={c: c + suffix for c in [start_col, end_col] + extra}
        )
        sb = _tb(out[start_col + suffix])
        eb = _tb(out[end_col + suffix])
        counts = np.maximum(eb - sb + 1, 0)
        if len(counts) and counts.max() > max_replication:
            raise ValueError(
                "range_join_overlap: an interval spans %d buckets "
                "(max_replication=%d) — raise grain" %
                (int(counts.max()), max_replication)
            )
        idx = np.repeat(np.arange(len(out)), counts)
        rep = out.iloc[idx].copy()
        offs = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        rep["_tb"] = sb[idx] + offs
        return rep

    def _join(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if not len(l) or not len(r):
            return None
        m = pd.merge(l, r[[by, "_tb"] + out_right], on=[by, "_tb"])
        m = m[(m[start_col + suffix] <= m[on])
              & (m[on] <= m[end_col + suffix])]
        return m.drop(columns=["_tb"])

    return exchange(
        [left.map_batches(_left, batch_format="pandas"),
         right.map_batches(_right, batch_format="pandas")],
        [by, "_tb"], _join,
        lambda ls, rs: _joined_schema(
            ls.remove(ls.get_field_index("_tb")), rs, out_right),
        num_buckets)


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

