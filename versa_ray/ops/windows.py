"""Windowed aggregates over event streams.

Ray Data is a batch engine — windows are computed by assigning each
row its window start (vectorized floor on the timestamp) and
pre-aggregating per batch BEFORE the groupby, so the shuffle moves one
row per (key, window) per block instead of one per event. Sliding and
session windows sort within each key group (the keyed exchange),
relying on per-key locality, not global order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import bucketed_group_apply, distinct_rows, exchange


def tumbling_window_agg(ds, ts_col="ts", keys=("event_type",), value_col="value",
                        freq="1h"):
    """count + sum(value) per (key..., window_start). Two-phase: local
    partial aggregate per batch, then a small global groupby-sum."""
    from ray.data.aggregate import Count, Sum

    keys = list(keys)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["window_start"] = df[ts_col].dt.floor(freq)
        g = (
            df.groupby(keys + ["window_start"], as_index=False)
            .agg(n=(value_col, "size"), value_sum=(value_col, "sum"))
        )
        return g

    partials = ds.map_batches(_partial, batch_format="pandas")
    return (
        partials.groupby(keys + ["window_start"])
        .aggregate(Sum("n", alias_name="n"), Sum("value_sum", alias_name="value_sum"))
    )


def sliding_window_agg(ds, ts_col="ts", key="user_id", value_col="value",
                       window="1h", slide="30min", num_buckets=None):
    """Sliding windows per key: each event lands in every window whose
    span covers it (explode factor = window/slide), partials aggregate
    per batch, and the merge shuffles on a COARSE hash bucket of
    (key, window) — (user, window) pairs are near-unique, and Ray's
    groupby pays per-group Python for every distinct key (the
    BASELINE.md per-group-overhead rule), so the final sum runs as one
    vectorized pandas groupby inside each bucket instead."""
    win = pd.Timedelta(window)
    sl = pd.Timedelta(slide)
    n_spans = int(win / sl)

    def _explode(df: pd.DataFrame) -> pd.DataFrame:
        base = df[ts_col].dt.floor(slide)
        parts = []
        for i in range(n_spans):
            p = df.copy()
            p["window_start"] = base - i * sl
            parts.append(p)
        out = pd.concat(parts, ignore_index=True)
        return (
            out.groupby([key, "window_start"], as_index=False)
            .agg(n=(value_col, "size"), value_sum=(value_col, "sum"))
        )

    def _final(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.groupby([key, "window_start"], as_index=False).agg(
            n=("n", "sum"), value_sum=("value_sum", "sum")
        )

    return exchange(ds.map_batches(_explode, batch_format="pandas"),
                    [key, "window_start"], _final, lambda sch: sch,
                    num_buckets)


def incremental_tumbling(state_dir, delta_ds, freq="1h", ts_col="ts",
                         keys=("event_type",), value_col="value",
                         watermark=None, num_buckets=None):
    """Streaming-style tumbling windows over an APPEND-ONLY corpus:
    per-batch partials from the delta merge into a persistent
    (key..., window_start) state store; windows whose end is at or
    before ``watermark`` are FINALIZED — emitted once and dropped from
    state — while open windows keep accumulating (late data within the
    watermark folds in exactly).

    Ray Data is a batch engine; this is the standard emulation: each
    call is one micro-batch, state is partitioned Parquet, the merge
    is one keyed exchange (near-unique (key, window) keys — same
    rule as sliding_window_agg), and ``watermark`` is caller-supplied
    event time (deterministic; no wall-clock). Returns
    (finalized_ds, n_open). Late rows for already-finalized windows
    would re-emit a partial window — callers needing exactly-once on
    top of late data keep a longer watermark lag."""
    import os
    import shutil

    import ray.data as rd

    keys = list(keys)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["window_start"] = df[ts_col].dt.floor(freq)
        return df.groupby(keys + ["window_start"], as_index=False).agg(
            n=(value_col, "size"), value_sum=(value_col, "sum")
        )

    parts = delta_ds.map_batches(_partial, batch_format="pandas")
    state_file = os.path.join(state_dir, "state")
    if os.path.exists(state_file):
        parts = parts.union(rd.read_parquet(state_file))

    def _merge(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.groupby(keys + ["window_start"], as_index=False).agg(
            n=("n", "sum"), value_sum=("value_sum", "sum")
        )

    merged = exchange(parts, keys + ["window_start"], _merge,
                      lambda sch: sch, num_buckets).materialize()

    wm = pd.Timestamp(watermark) if watermark is not None else None
    freq_td = pd.Timedelta(freq)

    def _split(df: pd.DataFrame, want_final: bool) -> pd.DataFrame:
        if wm is None:
            final_mask = pd.Series(False, index=df.index)
        else:
            final_mask = (df["window_start"] + freq_td) <= wm
        return df[final_mask] if want_final else df[~final_mask]

    finalized = merged.map_batches(
        lambda df: _split(df, True), batch_format="pandas"
    )
    open_state = merged.map_batches(
        lambda df: _split(df, False), batch_format="pandas"
    ).materialize()

    os.makedirs(state_dir, exist_ok=True)
    n_open = open_state.count()
    tmp = state_file + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if n_open:
        open_state.write_parquet(tmp)
        shutil.rmtree(state_file, ignore_errors=True)
        os.rename(tmp, state_file)
    else:  # everything finalized: clear the state
        shutil.rmtree(state_file, ignore_errors=True)
    return finalized, n_open


def session_windows(ds, ts_col="ts", key="user_id", gap="30min"):
    """Session windows per key: events of one key sort by time inside
    the bucket task, split where the gap exceeds the threshold. The
    shuffle key is a coarse hash bucket of the user key (keys are
    near-unique at scale — see core.exchange.bucketed_group_apply)."""
    gap_td = pd.Timedelta(gap)

    def _sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(ts_col)
        new_session = (g[ts_col].diff() > gap_td).cumsum()
        out = g.groupby(new_session).agg(
            session_start=(ts_col, "min"),
            session_end=(ts_col, "max"),
            n_events=(ts_col, "size"),
        )
        out[key] = g[key].iloc[0] if len(g) else None
        return out.reset_index(drop=True)

    def _schema(sch):
        ts = sch.field(ts_col).type
        return pa.schema([("session_start", ts), ("session_end", ts),
                          ("n_events", pa.int64()), sch.field(key)])

    return bucketed_group_apply(ds, [key], _sessions, _schema)


def funnel_counts(ds, steps, ts_col="ts", user_col="user_id",
                  type_col="event_type", within=None, num_buckets=64):
    """Ordered funnel analysis: how many users completed step 1, then
    step 2 strictly after it, then step 3 after that, ... Each user's
    progression uses the EARLIEST qualifying event per step (first
    step-1 event, first step-2 event strictly later, ...). With
    ``within`` (a pandas Timedelta / string like ``"2h"``), every
    subsequent step must also land within that window of the STEP-1
    anchor event.

    One coarse-bucket shuffle on the user key; per user the step scan
    is a few ``searchsorted`` probes over that user's sorted per-step
    timestamps — no corpus-wide sort, nothing user-cardinality on the
    driver. Returns one row per step: ``(step_ix, step, n_users)``
    (cumulative-reach counts, so n_users is non-increasing)."""
    steps = list(steps)
    if not steps:
        raise ValueError("funnel needs at least one step")
    win = pd.Timedelta(within) if within is not None else None

    def _slim(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df[type_col].isin(steps)]
        return pd.DataFrame(
            {
                user_col: sub[user_col],
                type_col: sub[type_col],
                ts_col: sub[ts_col],
            }
        )

    def _scan(group: pd.DataFrame) -> pd.DataFrame:
        per_step = {
            s: np.sort(g[ts_col].to_numpy())
            for s, g in group.groupby(type_col, sort=False)
        }
        reached = 0
        t = None
        anchor = None
        for s in steps:
            arr = per_step.get(s)
            if arr is None or not len(arr):
                break
            if t is None:
                t = arr[0]
                anchor = t
            else:
                ix = np.searchsorted(arr, t, side="right")
                if ix >= len(arr):
                    break
                t = arr[ix]
                if win is not None and t - anchor > win:
                    break
            reached += 1
        return pd.DataFrame({"step_ix": np.arange(reached, dtype="int64")})

    slim = ds.map_batches(_slim, batch_format="pandas")
    per_user = bucketed_group_apply(
        slim, [user_col], _scan, pa.schema({"step_ix": pa.int64()}),
        num_buckets)

    def _count(df: pd.DataFrame) -> pd.DataFrame:
        if "step_ix" not in df.columns or not len(df):
            return pd.DataFrame(
                {"step_ix": pd.Series([], dtype="int64"),
                 "n_users": pd.Series([], dtype="int64")}
            )
        g = df.groupby("step_ix", as_index=False).size()
        return g.rename(columns={"size": "n_users"})

    # <= num_buckets x len(steps) partial rows merge on the driver,
    # padding steps nobody reached with explicit zero rows
    parts = per_user.map_batches(_count, batch_format="pandas").to_pandas()
    if len(parts):
        merged = parts.groupby("step_ix", as_index=False)["n_users"].sum()
        counts = dict(zip(merged["step_ix"].astype(int),
                          merged["n_users"].astype(int)))
    else:
        counts = {}
    return pd.DataFrame(
        {
            "step_ix": np.arange(len(steps), dtype="int64"),
            "step": steps,
            "n_users": np.array(
                [counts.get(i, 0) for i in range(len(steps))], dtype="int64"
            ),
        }
    )


def cohort_retention(ds, ts_col="ts", user_col="user_id", freq="D",
                     num_buckets=64):
    """Cohort retention table: users bucketed by their FIRST activity
    period (the cohort), counted in every later period they return.
    Returns ``(cohort, period_offset, n_users)`` — offset 0 is the
    cohort size, offset k the users active k periods after their
    first.

    Scale shape: (user, period) pairs dedup through one coarse-bucket
    shuffle, each user's rows meet once more to pick up the min
    period (second bucket shuffle), and the final count is a
    small-cardinality rollup (periods x periods rows). Nothing
    user-cardinality touches the driver."""
    from .agg import grouped_agg_small

    def _slim(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                user_col: df[user_col],
                "_period": pd.to_datetime(df[ts_col]).dt.floor(freq),
            }
        )

    ud = distinct_rows(
        ds.map_batches(_slim, batch_format="pandas"),
        [user_col, "_period"], lambda sch: sch, num_buckets)

    def _offsets(group: pd.DataFrame) -> pd.DataFrame:
        p = group["_period"]
        cohort = p.min()
        step = pd.Timedelta(pd.tseries.frequencies.to_offset(freq))
        off = ((p - cohort) / step).astype("int64")
        return pd.DataFrame({"cohort": cohort, "period_offset": off})

    per_user = bucketed_group_apply(
        ud, [user_col], _offsets,
        lambda sch: pa.schema([pa.field("cohort", sch.field("_period").type),
                               pa.field("period_offset", pa.int64())]),
        num_buckets)
    return grouped_agg_small(
        per_user, ["cohort", "period_offset"],
        {"n_users": ("period_offset", "size")},
    )


def inter_event_gaps(ds, ts_col="ts", key="user_id", num_buckets=64):
    """Per-key inter-event gap statistics over a timestamp-ordered
    stream: ``(key, n_events, n_gaps, min_gap_us, max_gap_us,
    sum_gap_us)`` where a gap is the exact MICROSECONDS between consecutive
    events of the same key (gap VALUES depend only on sorted
    timestamps, so tie order is irrelevant). The classic
    sessionization-diagnostics rollup. One coarse-bucket shuffle on the key; gaps diff
    vectorized inside each key group; keys with a single event emit
    ``n_gaps = 0`` and NULL-free sentinel stats (0s)."""
    stats = ["n_events", "n_gaps", "min_gap_us", "max_gap_us", "sum_gap_us"]

    def _stats(group: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in group.groupby(key, sort=False):
            ts = np.sort(g[ts_col].to_numpy().astype("datetime64[us]"))
            gaps = np.diff(ts).astype(np.int64)   # exact microseconds
            rows.append({
                key: kv,
                "n_events": len(ts),
                "n_gaps": len(gaps),
                "min_gap_us": int(gaps.min()) if len(gaps) else 0,
                "max_gap_us": int(gaps.max()) if len(gaps) else 0,
                "sum_gap_us": int(gaps.sum()) if len(gaps) else 0,
            })
        return pd.DataFrame(rows)

    return exchange(
        ds.select_columns([key, ts_col]), key, _stats,
        lambda sch: pa.schema([sch.field(key)]
                              + [pa.field(c, pa.int64()) for c in stats]),
        num_buckets)


def transition_counts(ds, key="user_id", order_cols=("ts", "event_id"),
                      type_col="event_type", num_buckets=64):
    """Per-key consecutive-event transition counts — the Markov-chain
    / clickstream primitive: ``(from_type, to_type, n)`` where
    consecutive is under the TOTAL order ``order_cols`` (ts alone has
    ties; adding the unique id makes tie handling deterministic and
    SQL-replayable with ``lag() OVER (ORDER BY ts, event_id)``).

    One key exchange; inside a bucket the pair extraction
    is ONE sort + shift over the whole bucket (a same-key mask drops
    cross-key seams — no per-key Python loop); the final rollup merges
    at most ``num_buckets x |types|^2`` partial rows in a single task
    (the transition matrix is types-squared-sized, not data-sized)."""
    cols = [key, *order_cols, type_col]

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key, *order_cols], kind="mergesort",
                              ignore_index=True)
        same = g[key].to_numpy()[1:] == g[key].to_numpy()[:-1]
        frm = g[type_col].to_numpy()[:-1][same]
        to = g[type_col].to_numpy()[1:][same]
        return (
            pd.DataFrame({"from_type": frm, "to_type": to})
            .groupby(["from_type", "to_type"], as_index=False)
            .size().rename(columns={"size": "n"})
        )

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["from_type", "to_type"], as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    return exchange(
        ds.select_columns(cols), key, _pairs,
        lambda sch: pa.schema([("from_type", sch.field(type_col).type),
                               ("to_type", sch.field(type_col).type),
                               ("n", pa.int64())]),
        num_buckets,
    ).repartition(1).map_batches(_final, batch_format="pandas")


def debounce(ds, gap_us, keys=("user_id",), ts_col="ts",
             id_col="event_id", num_buckets=64):
    """Keep an event iff the time since the PREVIOUS event of the same
    key (ordered by ``(ts, id)``) exceeds ``gap_us`` microseconds, or
    it is the key's first event — duplicate-burst suppression for
    event streams (retry storms, double-clicks, crawler re-fetches).

    This is the LAG-rule debounce: the keep decision compares against
    the previous EVENT, not the previous KEPT event, so the result is
    a pure per-row function of the ordered stream (the kept-anchor
    variant is inherently sequential) and replays exactly in SQL as
    ``lag(ts) OVER (PARTITION BY keys ORDER BY ts, id)``. Ties order
    by ``id_col``, making the output deterministic under equal
    timestamps.

    ONE coarse-bucket shuffle on the key columns; per-key work is a
    vectorized lexsort + diff in exact microseconds. Only the key
    columns, timestamp and id transit the shuffle; rejoin wide
    payloads downstream by id if needed.
    """
    keys = list(keys)
    cols = keys + [ts_col, id_col]

    def _keep(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in group.groupby(keys, sort=False):
            ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
            ids = g[id_col].to_numpy()
            order = np.lexsort((ids, ts))
            ts, ids = ts[order], ids[order]
            keep = np.ones(len(ts), dtype=bool)
            keep[1:] = np.diff(ts) > gap_us
            outs.append(g.iloc[order[keep]])
        return pd.concat(outs, ignore_index=True)

    return exchange(
        ds.select_columns(cols), keys, _keep,
        lambda sch: pa.schema([sch.field(c) for c in [id_col, ts_col] + keys]),
        num_buckets)


def daily_trend(ds, key="event_type", ts_col="ts", num_buckets=64):
    """Per-key linear trend of daily event volume, INTEGER-EXACT: the
    OLS slope over (day index, daily count) emitted as the exact
    integer pair ``slope_num = n*Σxy - Σx*Σy`` and
    ``slope_den = n*Σx² - (Σx)²`` (slope = num/den; den = 0 means a
    single observed day). Day indices are centered on the key's FIRST
    observed day — the slope is shift-invariant, and centering keeps
    the emitted integers small enough for int64 at any corpus span —
    and only days with at least one event participate (both sides of
    the oracle group identically).

    One keyed exchange over pre-aggregated partials: per-batch
    (key, day, partial-count) rows meet in their key's bucket, merge
    into the daily table (keys × days rows, corpus-independent), and
    the five moments are computed vectorized per key.
    Floats never appear, so the result is partition-invariant and
    SQL-replayable bit-exactly.

    Returns (key, n_days, slope_num, slope_den) int64.
    """
    def _moments(group: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in _merge_days(group, key).groupby(key, sort=False):
            x = g["_day"].to_numpy(dtype=np.int64)
            x = x - x.min()
            y = g["_y"].to_numpy(dtype=np.int64)
            n = len(x)
            sx, sy = int(x.sum()), int(y.sum())
            sxy, sxx = int((x * y).sum()), int((x * x).sum())
            rows.append({key: kv, "n_days": n,
                         "slope_num": n * sxy - sx * sy,
                         "slope_den": n * sxx - sx * sx})
        return pd.DataFrame(rows)

    return exchange(
        ds.map_batches(_day_partials(key, ts_col), batch_format="pandas"),
        key, _moments,
        lambda sch: pa.schema([sch.field(key)] + [
            pa.field(c, pa.int64())
            for c in ("n_days", "slope_num", "slope_den")]),
        num_buckets)


def _day_partials(key, ts_col):
    """Per-batch ``(key, _day, _y)`` event counts per (key, UTC day)."""

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if key not in df.columns:  # schema-less empty block
            return pd.DataFrame({key: [], "_day": [], "_y": []})
        days = df[ts_col].to_numpy().astype("datetime64[D]").astype(np.int64)
        return (pd.DataFrame({key: df[key], "_day": days})
                .groupby([key, "_day"], as_index=False, sort=False).size()
                .rename(columns={"size": "_y"}))

    return _partial


def _merge_days(group: pd.DataFrame, key) -> pd.DataFrame:
    """One row per (key, _day) with the summed count ``_y``."""
    return group.groupby([key, "_day"], as_index=False, sort=False)["_y"].sum()


def ngram_transitions(ds, n=3, key="user_id", order_cols=("ts", "event_id"),
                      type_col="event_type", num_buckets=64):
    """Per-key consecutive event-type n-grams, counted corpus-wide —
    the order-n generalization of :func:`transition_counts` (session
    path mining, n-step Markov estimation). Consecutive is under the
    TOTAL order ``order_cols`` (unique id breaks ts ties, so the
    result is deterministic and replays in SQL as ``lead(type, i)
    OVER (PARTITION BY key ORDER BY ts, id)``).

    One key exchange; per bucket the n-gram extraction is
    ONE sort + n-1 shifted views with a same-key run mask (no per-key
    loop); the final rollup merges at most ``buckets x |types|^n``
    partial rows — types^n-sized, not data-sized (callers with large
    type vocabularies and big n should rebucket the rollup instead).

    Returns (t1..tn, n_occurrences).
    """
    if n < 2:
        raise ValueError("ngram_transitions needs n >= 2")
    cols = [key, *order_cols, type_col]
    tcols = [f"t{i + 1}" for i in range(n)]

    def _grams(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < n:
            return None
        g = group.sort_values([key, *order_cols], kind="mergesort",
                              ignore_index=True)
        k = g[key].to_numpy()
        t = g[type_col].to_numpy()
        m = len(g) - n + 1
        same = np.ones(m, dtype=bool)
        for i in range(1, n):                 # whole window in one key run
            same &= k[i:m + i] == k[:m]
        data = {c: t[i:m + i][same] for i, c in enumerate(tcols)}
        return (pd.DataFrame(data).groupby(tcols, as_index=False)
                .size().rename(columns={"size": "n_occurrences"}))

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(tcols, as_index=False)["n_occurrences"].sum()
        out["n_occurrences"] = out["n_occurrences"].astype("int64")
        return out

    return exchange(
        ds.select_columns(cols), key, _grams,
        lambda sch: pa.schema([(c, sch.field(type_col).type) for c in tcols]
                              + [("n_occurrences", pa.int64())]),
        num_buckets,
    ).repartition(1).map_batches(_final, batch_format="pandas")


def cumulative_daily_counts(ds, key="event_type", ts_col="ts",
                            num_buckets=64):
    """Per-key running daily totals — (key, day, y, cum) where y is
    the day's event count and cum the inclusive running sum in day
    order: the cumulative-metric view (signups to date, errors to
    date). Same single pre-aggregated key exchange as
    :func:`daily_trend` (per-batch (key, day, partial) rows merge in
    their key's bucket, which then sorts each key's corpus-independent
    day series and cumsums vectorized). Exact
    integers throughout; replays as SQL ``SUM() OVER``."""
    def _cum(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for kv, g in _merge_days(group, key).groupby(key, sort=False):
            g = g.sort_values("_day", kind="mergesort")
            y = g["_y"].to_numpy(dtype=np.int64)
            outs.append(pd.DataFrame({
                key: kv,
                "day": g["_day"].to_numpy().astype(
                    "datetime64[D]").astype("datetime64[us]"),
                "y": y,
                "cum": np.cumsum(y),
            }))
        return pd.concat(outs, ignore_index=True)

    return exchange(
        ds.map_batches(_day_partials(key, ts_col), batch_format="pandas"),
        key, _cum,
        lambda sch: pa.schema([sch.field(key), ("day", pa.timestamp("us")),
                               ("y", pa.int64()), ("cum", pa.int64())]),
        num_buckets)
