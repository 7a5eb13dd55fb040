"""Deterministic sampling for training-data curation.

Sampling at corpus scale must be (a) reproducible across re-runs and
re-executed tasks (no RNG state), and (b) combiner-decomposable so no
stage materializes a group. Both forms rank rows by the md5 of their
id — a stable uniform order any SQL engine can reproduce (DuckDB
``md5(cast(id AS varchar))``), which is what makes these operators
oracle-checkable — and keep the n smallest per stratum via per-batch
partial top-n + one coarse-bucket merge. The per-batch partial bounds
every intermediate at ``groups x n`` rows regardless of corpus size.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

__all__ = [
    "stratified_sample",
    "uniform_sample",
    "split_by_hash",
    "token_budget_sample",
]


def _rank_keys(ids) -> np.ndarray:
    return np.array(
        [hashlib.md5(str(i).encode()).hexdigest() for i in ids], dtype=object
    )


def stratified_sample(ds, group_col: str, n_per_group: int, id_col: str,
                      num_buckets: int = 64):
    """n_per_group rows per stratum, chosen by md5(id) rank (ties by
    id). Per-batch partial top-n, then a per-group merge shuffled on a
    keyed exchange on the stratum key."""
    from ..core.exchange import bucketed_group_apply

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        df = df.assign(_rk=_rank_keys(df[id_col]))
        return (
            df.sort_values(["_rk", id_col])
            .groupby(group_col, sort=False)
            .head(n_per_group)
        )

    def _final(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.sort_values(["_rk", id_col])
            .head(n_per_group)
            .drop(columns=["_rk"])
        )

    partials = ds.map_batches(_partial, batch_format="pandas")
    return bucketed_group_apply(
        partials, [group_col], _final,
        lambda sch: sch.remove(sch.get_field_index("_rk")), num_buckets)


def uniform_sample(ds, n: int, id_col: str):
    """n rows globally, by md5(id) rank. Partials bound the merge input
    at ``blocks x n`` rows; the final merge is one small task."""

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        df = df.assign(_rk=_rank_keys(df[id_col]))
        return df.sort_values(["_rk", id_col]).head(n)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["_rk", id_col]).head(n).drop(columns=["_rk"])

    return (
        ds.map_batches(_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(_final, batch_format="pandas")
    )


def token_budget_sample(ds, budget_tokens: int, source_col: str, id_col: str,
                        text_col: str = "text", num_buckets: int = 64):
    """Per-source selection under a TOKEN budget — the core step of
    training-mixture construction: within each source, documents are
    taken in md5(id) rank order (ties by id) while the running token
    total stays <= ``budget_tokens``; the document that crosses the
    budget and everything ranked after it is dropped.

    Tokens are whitespace words (the same count as ``token_stats``'s
    ``n_tokens``, so a SQL oracle can replay the selection with a
    window cumsum). The shuffle moves only a slim ``(source, rank,
    id, n_tokens)`` table — document text never transits — and each
    source's selection is one vectorized cumsum. Partitioning
    assumption: one source's (slim) rows fit in one task; the rank
    rides as a 32-char md5 hex string (the full digest keeps tie-free
    ordering SQL-replayable), so figure ~100 bytes/row — hundreds of
    millions of docs per source per task. For hotter sources,
    pre-split the source label upstream and divide the budget across
    the salted labels.

    Returns ``(id_col, source_col, n_tokens)`` for the kept docs."""
    from ..core.exchange import bucketed_group_apply

    def _slim(df: pd.DataFrame) -> pd.DataFrame:
        from .textstats import whitespace_token_counts

        n_tok = whitespace_token_counts(df[text_col])
        return pd.DataFrame(
            {
                id_col: df[id_col],
                source_col: df[source_col],
                "n_tokens": n_tok,
                "_rk": _rank_keys(df[id_col]),
            }
        )

    def _take(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["_rk", id_col], ignore_index=True)
        keep = g["n_tokens"].cumsum() <= budget_tokens
        return g.loc[keep, [id_col, source_col, "n_tokens"]]

    slim = ds.map_batches(_slim, batch_format="pandas")
    return bucketed_group_apply(
        slim, [source_col], _take,
        lambda sch: sch.remove(sch.get_field_index("_rk")), num_buckets)


def split_by_hash(ds, weights, id_col: str, salt: str = ""):
    """Deterministic train/val/test assignment: each row's split is a
    pure function of ``md5(salt + id)``, so it is reproducible across
    runs, re-executed tasks, repartitions, and engines. No shuffle at
    all — one streaming map; a row's fate never depends on any other
    row.

    ``weights``: ordered dict/list of (split_name, weight). The first
    16 hex digits of the md5 are compared AS INTEGERS against the
    cumulative-weight boundaries scaled to 16^16 — integer compare on
    both sides, so a SQL oracle reproduces it with a fixed-width
    hex-string comparison (same order as the integers), no float
    edge cases (see ``split_bound_hex``)."""
    items = list(weights.items()) if isinstance(weights, dict) else list(weights)
    names = [n for n, _ in items]
    total = float(sum(w for _, w in items))
    acc = np.cumsum([w / total for _, w in items])
    bound_ints = [min(int(b * 16**16), 16**16) for b in acc]

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(split=pd.Series([], dtype=object))
        u = [
            int(hashlib.md5((salt + str(i)).encode()).hexdigest()[:16], 16)
            for i in df[id_col]
        ]
        ix = np.array(
            [
                next(
                    k for k, b in enumerate(bound_ints)
                    if v < b or k == len(bound_ints) - 1
                )
                for v in u
            ]
        )
        return df.assign(split=np.array(names, dtype=object)[ix])

    return ds.map_batches(_assign, batch_format="pandas")


def split_bound_hex(weights):
    """The 16-hex-digit boundary strings matching ``split_by_hash`` —
    for SQL oracles: split k iff ``left(md5(id), 16) <`` bound k (and
    not below bound k-1)."""
    items = list(weights.items()) if isinstance(weights, dict) else list(weights)
    total = float(sum(w for _, w in items))
    acc = np.cumsum([w / total for _, w in items])
    return [format(min(int(b * 16**16), 16**16), "017x")[-16:]
            if int(b * 16**16) < 16**16 else "g" * 16
            for b in acc]


def mixture_sample(ds, rates, source_col: str, id_col: str, salt: str = "",
                   default_rate: float = 1.0):
    """Weighted dataset-mixture sampling: keep each row with a
    per-source probability (``rates[source]``), decided by the same
    integer-exact ``md5(salt + id)`` comparison as ``split_by_hash``
    — deterministic, shuffle-free, partition/rerun-invariant, and
    reproducible by a SQL oracle via fixed-width hex comparison.
    Sources absent from ``rates`` keep ``default_rate``. This is the
    corpus-mixing primitive (downweight one crawl, upsample a curated
    source) applied as a pure streaming filter."""
    bounds = {
        str(k): min(int(float(v) * 16**16), 16**16)
        for k, v in rates.items()
    }
    dflt = min(int(float(default_rate) * 16**16), 16**16)

    def _filter(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        u = [
            int(hashlib.md5((salt + str(i)).encode()).hexdigest()[:16], 16)
            for i in df[id_col]
        ]
        b = df[source_col].astype(str).map(
            lambda s: bounds.get(s, dflt)).to_numpy()
        keep = np.array(u) < b
        return df[keep]

    return ds.map_batches(_filter, batch_format="pandas")


def mixture_bound_hex(rate: float) -> str:
    """16-hex-digit boundary for ``mixture_sample``'s SQL oracle:
    keep iff ``left(md5(id), 16) <`` this (a rate of 1.0 returns a
    sentinel that compares above every hex digest)."""
    b = min(int(float(rate) * 16**16), 16**16)
    if b >= 16**16:
        return "g" * 16
    return format(b, "017x")[-16:]


def weighted_sample(ds, n, weight_col, id_col, keep_cols=None):
    """Deterministic weighted sampling without replacement via
    PRIORITY SAMPLING (Duffield, Lund & Thorup 2007): each row gets
    priority ``w / u`` where ``u in (0, 1]`` derives from
    ``md5(str(id))`` (the split_by_hash determinism convention), and
    the global top-``n`` priorities are kept — heavier rows
    proportionally likelier, the draw a pure function of (ids,
    weights) so re-runs and re-partitions reproduce it exactly.

    The only float ops are one uint64->double cast and ONE IEEE
    division, both bit-identical in DuckDB (``md5_number_upper`` /
    ``CAST AS DOUBLE``), so a SQL ``QUALIFY row_number() OVER (ORDER
    BY w / u DESC, id)`` oracle replays the selection bit-exactly —
    no transcendental (ln/pow) parity risk. Ties break by id.

    Distributed shape: per-batch LOCAL top-n partials, driver merge of
    ``<= blocks x n`` rows — n is the sample size, never the corpus.
    Returns a pandas DataFrame of the selected rows (id, weight and
    ``keep_cols``), priorities dropped.
    """
    import hashlib

    keep = list(keep_cols or [])
    cols = [id_col, weight_col] + [c for c in keep
                                   if c not in (id_col, weight_col)]

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df[cols].assign(_pri=np.empty(0, dtype=np.float64))
        u64 = np.array(
            [int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "little") for i in df[id_col]],
            dtype=np.uint64)
        u = (u64.astype(np.float64) + 1.0) / 18446744073709551616.0
        w = df[weight_col].to_numpy(dtype=np.float64)
        if len(w) and w.min() <= 0:
            raise ValueError("weighted_sample needs weights > 0")
        out = df[cols].copy()
        out["_pri"] = w / u
        return out.sort_values(["_pri", id_col],
                               ascending=[False, True]).head(n)

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    return (parts.sort_values(["_pri", id_col], ascending=[False, True])
            .head(n).drop(columns=["_pri"]).reset_index(drop=True))
