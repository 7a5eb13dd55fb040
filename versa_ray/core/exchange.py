"""The keyed exchange: the engine's one shuffle primitive.

Every wide step (dedup, joins, co-groups, per-key scans, iterative
graph rounds, the store commit) routes rows through ``exchange``: each
Arrow batch of each input is tagged with a small int bucket of its key
columns (``bucket_of``, the one in-flight hash), Ray runs ONE
``groupby("_cbucket").map_groups`` over the tagged union, and the
caller's function sees the whole bucket, one pandas frame per input,
with the tag columns gone. Shuffling on a coarse bucket instead of
the keys themselves keeps Ray's per-group overhead (~ms per group)
paid once per bucket; the per-key work inside a bucket is one
vectorized pandas call, or the local loop of ``bucketed_group_apply``.

One width: the bucket count is ``default_buckets()``, derived from
the cluster's CPUs, for every exchange. Operators take no bucket
count of their own, so the fan-out grows with the cluster and is set
in this module only.

The result of every bucket is cast to the caller's ``out_schema`` with
schema metadata removed: empty buckets stay typed, a null-typed
delta column takes its declared type, and no ``b'pandas'`` metadata
reaches Ray's block schemas (Ray cannot hash a schema whose metadata
is a dict, and warns once per read of a file carrying it).

Co-located keys: the bucket of a row depends only on its key values,
with integer kinds normalized to int64, so an int32 key on one input
and an int64 key on another land in the same bucket.

The persisted layout hashes (``model.store._stable_bucket``,
``ops.retrieval._stable_term_bucket``, ``ops.dedup._stable_int_bucket``)
are NOT this hash: they define on-disk partitions and must stay stable
across engine versions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_BUCKET = "_cbucket"
_SIDE = "_side"
_PAYLOAD = "_payload"


def default_buckets() -> int:
    """The bucket count of every keyed shuffle: twice the cluster's
    CPUs, at least 16. Operators that size ranges or repartitions to
    match the shuffle call this too."""
    import ray

    try:
        return max(16, 2 * int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 16


def bucket_of(tbl, keys, n: int) -> np.ndarray:
    """int32 bucket in ``[0, n)`` of each row's key columns.

    ``tbl`` is an Arrow table or a pandas frame; only the key columns
    are converted to pandas. Integer kinds are normalized to int64
    before hashing (``hash_pandas_object`` is dtype-sensitive)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    key = (tbl.select(keys).to_pandas() if isinstance(tbl, pa.Table)
           else tbl[keys])
    norm = {c: key[c].astype("int64") for c in key.columns
            if key[c].dtype.kind in "iu" and key[c].dtype != np.int64}
    if norm:
        key = key.assign(**norm)
    return (
        pd.util.hash_pandas_object(key, index=False) % n
    ).astype("int32").to_numpy()


def _conform(res, schema: pa.Schema) -> pa.Table:
    """``res`` (pandas frame, Arrow table or None) as an Arrow table
    of exactly ``schema``, without schema metadata."""
    if res is None or not len(res):
        return schema.empty_table()
    if isinstance(res, pa.Table):
        tbl = res.select(schema.names).cast(schema)
    else:
        tbl = pa.Table.from_pandas(res, schema=schema, preserve_index=False)
    return tbl.replace_schema_metadata(None)


def _side_keys(keys, n_inputs: int):
    if isinstance(keys, str):
        return [[keys]] * n_inputs
    keys = list(keys)
    if keys and not isinstance(keys[0], str):
        assert len(keys) == n_inputs, "one key list per input"
        return [[k] if isinstance(k, str) else list(k) for k in keys]
    return [keys] * n_inputs


def _pack(tbl: pa.Table, buckets: np.ndarray, side: int, n: int) -> pa.Table:
    """One row per bucket in ``[0, n)``: that bucket's rows of ``tbl``
    as an Arrow IPC stream (zero rows, but still the batch's schema,
    where none hash there). Every input then ships the same
    three-column schema, so Ray never null-fills one input's columns
    into another's rows (which upcasts int64 to float64 on the way
    through the shuffle), and every bucket sees every input's
    columns."""
    order = np.argsort(buckets, kind="stable")
    rows = tbl.take(order)
    bounds = np.searchsorted(buckets[order], np.arange(n + 1))
    payloads = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, rows.schema) as w:
            w.write_table(rows.slice(lo, hi - lo))
        payloads.append(memoryview(sink.getvalue()))
    return pa.table({
        _BUCKET: pa.array(np.arange(n), type=pa.int32()),
        _SIDE: pa.array(np.full(n, side, dtype=np.int8)),
        _PAYLOAD: pa.array(payloads, type=pa.binary()),
    })


def _unpack(t: pa.Table, n_inputs: int):
    """Per input, the concatenated rows of its payloads in bucket
    table ``t`` (a column-less empty table for an input without
    batches)."""
    side = t[_SIDE].to_numpy()
    payloads = t[_PAYLOAD]
    out = []
    for i in range(n_inputs):
        parts = [pa.ipc.open_stream(payloads[int(j)].as_buffer()).read_all()
                 for j in np.flatnonzero(side == i)]
        out.append(pa.concat_tables(parts, promote_options="permissive")
                   if parts else pa.table({}))
    return out


def exchange(inputs, keys, fn, out_schema):
    """Shuffle ``inputs`` on ``keys`` and apply ``fn`` once per bucket.

    ``inputs``: one Dataset, or a list of Datasets for a co-group or
    join. One input ships its rows tagged with ``_cbucket``; a list
    ships one row per (batch, bucket) holding that slice as an Arrow
    IPC payload, tagged with its input's ``_side``.
    ``keys``: a column name or list of names shared by every input, or
    a list with one key list per input; matching keys of different
    inputs must hash alike (same values, any integer width).
    ``fn``: called as ``fn(frame)`` for one input, or
    ``fn(frame_0, frame_1, ...)`` for a list, each a pandas frame of
    that input's rows in the bucket (possibly zero rows; it has the
    input's columns unless the input has no batches at all).
    Several keys share a bucket; ``fn`` groups within it if it needs
    to. It returns a pandas frame, an Arrow table, or None.
    ``out_schema``: the result's ``pa.Schema``, or a callable mapping
    the inputs' Arrow schemas in the bucket to it (for operators
    whose output carries the input's own columns).
    The bucket count is ``default_buckets()``; callers do not set it.

    With a fixed ``out_schema`` the result also carries one typed
    empty block, so an empty input still yields that schema."""
    import ray.data as rd

    multi = not isinstance(inputs, rd.Dataset)
    dss = list(inputs) if multi else [inputs]
    side_keys = _side_keys(keys, len(dss))
    n = default_buckets()

    def _tagger(side):
        ks = side_keys[side]

        def _tag(tbl: pa.Table) -> pa.Table:
            b = (bucket_of(tbl, ks, n) if tbl.num_rows
                 else np.empty(0, dtype=np.int32))
            if multi:
                return _pack(tbl, b, side, n)
            # Ray's reduce hashes block schemas to dedup them, and a
            # pyarrow schema with metadata (pandas') is unhashable:
            # "Failed to hash the schemas". The rows do not need it.
            return tbl.replace_schema_metadata(None).append_column(
                _BUCKET, pa.array(b, type=pa.int32()))

        return _tag

    tagged = [ds.map_batches(_tagger(i), batch_format="pyarrow")
              for i, ds in enumerate(dss)]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def _apply(t: pa.Table) -> pa.Table:
        frames = (_unpack(t, len(dss)) if multi
                  else [t.drop_columns([_BUCKET])])
        schema = (out_schema(*[f.schema for f in frames])
                  if callable(out_schema) else out_schema)
        return _conform(fn(*[f.to_pandas() for f in frames]), schema)

    out = both.groupby(_BUCKET).map_groups(_apply, batch_format="pyarrow")
    if callable(out_schema):
        return out
    # an empty input reaches no bucket; one typed empty block keeps
    # the result's schema declared (empty blocks write no files)
    return out.union(rd.from_arrow(out_schema.empty_table()))


def bucketed_group_apply(ds, keys, fn, out_schema, min_group_size=1):
    """Per-key form of ``exchange``: ``fn(group)`` once per distinct
    ``keys`` value, run as a local pandas groupby loop inside each
    bucket.

    ``min_group_size``: groups smaller than this are dropped with one
    vectorized size filter before the loop, so pair-generating callers
    (LSH buckets are overwhelmingly singletons) skip the Python loop
    for the long tail."""
    keys = list(keys)

    def _bucket(df: pd.DataFrame):
        if not len(df):
            return None
        if min_group_size > 1:
            sizes = df.groupby(keys, sort=False)[keys[0]].transform("size")
            df = df[sizes >= min_group_size]
        outs = []
        for _, group in df.groupby(keys, sort=False):
            res = fn(group)
            if res is not None and len(res):
                outs.append(res)
        return pd.concat(outs, ignore_index=True) if outs else None

    return exchange(ds, keys, _bucket, out_schema)


def distinct_rows(ds, subset, out_schema):
    """Global ``drop_duplicates(subset)``: each batch drops its local
    duplicates first (combiner), then one exchange on ``subset``."""
    subset = list(subset)

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=subset) if len(df) else df

    return exchange(ds.map_batches(_local, batch_format="pandas"), subset,
                    _local, out_schema)


def spread_key(df: pd.DataFrame, col: str, inert, id_col: str) -> np.ndarray:
    """Exchange key column: ``col``, except that ``inert`` rows (per-doc
    anchors and other rows that never join anything) key by their
    ``id_col`` instead. Keyed by their shared value (say ``''``), one
    such row per document would funnel into a single bucket."""
    key = df[col].astype(object).to_numpy(copy=True)
    key[inert] = "\x00" + df[id_col].astype(str).to_numpy()[inert]
    return key
