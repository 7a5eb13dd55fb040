"""Aggregates, quantiles and ranks over document and graph tables.

``grouped_agg_small`` is a grouped aggregation for SMALL group
cardinality. Ray's ``Dataset.groupby().aggregate()`` runs a
sort-based all-to-all shuffle whose fixed cost (~1.5 s at 32 cpus)
dwarfs rollup-style aggregates whose group count is tiny (five
languages in ``doc_lang_counts``). For those, a per-batch pandas
combine followed by ONE single-block repartition and a final combine
is both faster and shuffle-free: the repartitioned intermediate is
``groups x blocks`` rows (bounded — at 10k blocks and 6 groups it is
60k rows), so the single final task is never the bottleneck. NOT for
high-cardinality keys: use ``Dataset.groupby`` or
``bucketed_group_apply`` there.

The rest are exact or mergeable order statistics, each one or a few
keyed exchanges: grouped top-k, approximate and exact quantiles,
grouped discrete quantiles, global row indices, percent ranks,
NTILE, MAD outliers and winsorization.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core import exchange as shuffle
from ..core.exchange import bucketed_group_apply, exchange

__all__ = [
    "grouped_agg_small", "grouped_topk", "approx_quantiles",
    "exact_quantiles", "grouped_quantile_disc",
    "filter_above_group_quantile", "zip_with_index", "percent_rank",
    "mad_outliers", "ntile", "winsorize", "grouped_percent_rank",
]

_FINAL_HOW = {"sum": "sum", "size": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_agg_small(ds, keys, spec):
    """``spec``: {out_col: (src_col, how)} with how in
    sum / size / count / min / max (two-phase decomposable only —
    mean needs its own sum+count)."""
    keys = list(keys)
    for out, (_src, how) in spec.items():
        if how not in _FINAL_HOW:
            raise ValueError(f"{how!r} is not two-phase decomposable")
    partial_spec = {out: (src, how) for out, (src, how) in spec.items()}
    final_spec = {out: (out, _FINAL_HOW[how]) for out, (_src, how) in spec.items()}

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False).agg(**partial_spec)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False).agg(**final_spec)

    return (
        ds.map_batches(_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(_final, batch_format="pandas")
    )


def grouped_topk(ds, keys, order_by, k=1, ascending=False, tie_cols=None):
    """Top-k rows per group — the "best N docs per domain/language"
    primitive. Two-phase: every batch keeps its LOCAL top-k per group
    (combiner — at most ``groups x k`` rows per batch survive), then
    one coarse-bucket shuffle on the group keys finalizes. Adds a
    ``rank`` column (1..k). Ties on ``order_by`` are broken by
    ``tie_cols`` when given; with no tie_cols the order among ties is
    partition-dependent — pass tie_cols for deterministic output.
    """
    keys = list(keys)
    order_cols = [order_by] if isinstance(order_by, str) else list(order_by)
    ties = list(tie_cols or [])
    sort_cols = order_cols + ties
    asc = [ascending] * len(order_cols) + [True] * len(ties)

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(sort_cols, ascending=asc, kind="mergesort")
            .groupby(keys, sort=False)
            .head(k)
        )

    def _final(group: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        g = group.sort_values(sort_cols, ascending=asc,
                              kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return bucketed_group_apply(
        ds.map_batches(_local, batch_format="pandas"), keys, _final,
        lambda sch: sch.append(pa.field("rank", pa.int64())),
    )


def approx_quantiles(ds, col, qs, per_batch_samples=256):
    """Approximate quantiles of a numeric column via a mergeable
    per-batch summary: each batch contributes
    ``per_batch_samples`` stratum-center order statistics weighted by
    ``batch_rows / samples`` (extreme quantiles are therefore
    interpolated within the outer strata, not the exact min/max).
    Driver-side merge cost is ``blocks x samples`` rows — bounded by
    the block count, never the corpus. Monotone in qs; per-batch rank
    error is O(1/samples).

    Returns a list of floats aligned with ``qs``."""
    import numpy as np

    k = int(per_batch_samples)

    def _summary(df: pd.DataFrame) -> pd.DataFrame:
        v = pd.to_numeric(df[col], errors="coerce").dropna().to_numpy(
            dtype=float)
        if not len(v):
            return pd.DataFrame({"value": [], "weight": []})
        v.sort()
        if len(v) <= k:
            return pd.DataFrame(
                {"value": v, "weight": np.ones(len(v))})
        # stratum-CENTER order statistics: each sample represents the
        # stratum around it, so its weight centroid is unbiased —
        # edge sampling (including the batch max) biases tail
        # quantiles high by up to a stratum width
        idx = ((np.arange(k) + 0.5) * len(v) / k).astype(int)
        return pd.DataFrame(
            {"value": v[idx], "weight": np.full(k, len(v) / k)})

    parts = ds.map_batches(_summary, batch_format="pandas").to_pandas()
    if not len(parts):
        return [float("nan")] * len(qs)
    order = np.argsort(parts["value"].to_numpy())
    vals = parts["value"].to_numpy()[order]
    w = parts["weight"].to_numpy()[order]
    cum = np.cumsum(w)
    total = cum[-1]
    # centroid positions (cum - w/2): the standard weighted-percentile
    # convention — picking the first sample with cum >= q*total has a
    # systematic +half-sample-weight bias that shows up in heavy tails
    pos = cum - w / 2.0
    return [
        float(np.interp(q * total, pos, vals)) for q in qs
    ]


def exact_quantiles(ds, col, qs, grid=4096, max_collect=2_000_000,
                    max_rounds=8, combine_threshold_blocks=512,
                    combine_fan_in=64):
    """EXACT discrete quantiles (SQL ``quantile_disc`` semantics: the
    element at 0-indexed rank ``ceil(q*N) - 1``) without a global
    sort and without ever materializing the column driver-side.

    Bounded passes, each a column-pruned ``map_batches``:

    1. per-batch ``(count, min, max)`` -> N and the value range
       (driver merge is ``blocks`` rows);
    2. a SPARSE histogram pass over ``grid`` uniform buckets locates
       the bucket holding each target rank. Past
       ``combine_threshold_blocks`` input blocks the per-block
       histograms are tree-combined distributively (fixed fan-in
       repartition + local groupby-sum) before the driver merge, so
       the driver never sees more than ``fan_in x grid x groups``
       rows no matter the block count. A bucket heavier than
       ``max_collect`` becomes its own
       group and is re-histogrammed in the next round — all groups of
       a round share ONE pass, and each round shrinks a group's
       candidate set ~``grid``-fold, so ``max_rounds`` rounds cover
       the full float64 exponent range;
    3. one final pass collects ONLY the values in the located buckets
       (``<= max_collect`` per bucket, <= ``len(qs)`` buckets) and
       selects the exact order statistics locally.

    Group membership is decided by BUCKET INDEX re-derived with the
    exact same float arithmetic every round (never by value-range
    comparison), so boundary rounding cannot shift a value between
    passes: bucketing is deterministic and monotone in v, which keeps
    the rank bookkeeping exact.

    Returns a list of floats aligned with ``qs`` — each an actual
    element of the column — or NaN per quantile on an empty column.
    """
    import numpy as np

    qs = [float(q) for q in qs]

    def _stats(df: pd.DataFrame) -> pd.DataFrame:
        v = pd.to_numeric(df[col], errors="coerce").dropna().to_numpy(
            dtype=float)
        if not len(v):
            return pd.DataFrame(
                {"n": [], "ninf": [], "pinf": [], "lo": [], "hi": []})
        fin = v[np.isfinite(v)]
        return pd.DataFrame({
            "n": [len(v)],
            "ninf": [int((v == -np.inf).sum())],
            "pinf": [int((v == np.inf).sum())],
            "lo": [fin.min() if len(fin) else np.nan],
            "hi": [fin.max() if len(fin) else np.nan],
        })

    st = ds.map_batches(_stats, batch_format="pandas").to_pandas()
    total = int(st["n"].sum()) if len(st) else 0
    if total == 0:
        return [float("nan")] * len(qs)
    n_ninf = int(st["ninf"].sum())
    n_pinf = int(st["pinf"].sum())
    n_fin = total - n_ninf - n_pinf
    # 0-indexed target ranks under the inverted-CDF convention
    ranks = [min(max(0, int(np.ceil(q * total)) - 1), total - 1)
             for q in qs]

    out = [None] * len(qs)
    pending = {}  # rank -> [result slots]
    for i, r in enumerate(ranks):
        pending.setdefault(r, []).append(i)

    many_blocks = len(st) > combine_threshold_blocks

    def _merge_counts(cnt_ds, keys):
        # driver merge of per-block sparse counts; on wide inputs a
        # fixed-fan-in distributed combine bounds what the driver sees
        if many_blocks:
            cnt_ds = cnt_ds.repartition(combine_fan_in).map_batches(
                lambda df, _k=tuple(keys): df.groupby(
                    list(_k), as_index=False)["cnt"].sum(),
                batch_format="pandas")
        return cnt_ds.to_pandas()

    def _resolve(r, val):
        for i in pending.pop(r, []):
            out[i] = float(val)

    # ±inf sort before/after every finite value; their ranks resolve
    # from the counts alone, and the histogram machinery below only
    # ever sees the finite subset (span arithmetic stays well-defined)
    for r in list(pending):
        if r < n_ninf:
            _resolve(r, -np.inf)
        elif r >= n_ninf + n_fin:
            _resolve(r, np.inf)
    if not pending:
        return out
    lo, hi = float(st["lo"].min()), float(st["hi"].max())

    g = int(grid)

    def _bucket(v, flo, fspan, fg):
        return np.clip(((v - flo) / fspan * fg).astype(np.int64), 0, fg - 1)

    def _survivors(df, flt):
        v = pd.to_numeric(df[col], errors="coerce").dropna().to_numpy(
            dtype=float)
        v = v[np.isfinite(v)]
        for (flo, fspan, fg, fb) in flt:
            if not len(v):
                break
            v = v[_bucket(v, flo, fspan, fg) == fb]
        return v

    # group: (filters tuple, lo, hi, base, ranks) — base = how many
    # values of the whole column sort strictly before this group's set
    groups = [((), lo, hi, n_ninf, sorted(pending))]
    to_collect = []  # (filters, lo, span, bucket, before, ranks)

    # underflow resolution is not a refinement round: a group whose
    # span collapses on the LAST histogram round still gets its one
    # cheap distinct-count pass instead of a spurious convergence error
    hist_rounds = 0
    while groups:
        underflow = [t for t in groups if t[1] == t[2]]
        active = [t for t in groups if t[1] != t[2]]

        if underflow:
            # span underflow: survivors sit within ~an ulp — a handful
            # of distinct doubles. A distinct-value count pass resolves
            # their ranks exactly without shipping raw rows.
            uf_flt = [t[0] for t in underflow]

            def _vc(df: pd.DataFrame, _fls=tuple(uf_flt)) -> pd.DataFrame:
                frames = []
                for gi, flt in enumerate(_fls):
                    v = _survivors(df, flt)
                    if len(v):
                        uv, cnt = np.unique(v, return_counts=True)
                        frames.append(pd.DataFrame(
                            {"gid": gi, "value": uv, "cnt": cnt}))
                if not frames:
                    return pd.DataFrame({"gid": pd.Series([], dtype=int),
                                         "value": [], "cnt": []})
                return pd.concat(frames, ignore_index=True)

            vc = _merge_counts(
                ds.map_batches(_vc, batch_format="pandas"),
                ("gid", "value"))
            for gi, (_flt, _lo, _hi, base, rks) in enumerate(underflow):
                sub = (vc[vc["gid"] == gi].groupby("value")["cnt"]
                       .sum().sort_index())
                vvals = sub.index.to_numpy()
                vcum = np.cumsum(sub.to_numpy())
                for r in rks:
                    j = int(np.searchsorted(vcum, (r - base) + 1))
                    _resolve(r, vvals[j])

        if not active:
            groups = []
            break
        if hist_rounds >= max_rounds:
            raise RuntimeError(
                f"exact_quantiles did not converge in {max_rounds} "
                f"rounds ({len(active)} groups unresolved)")
        hist_rounds += 1

        specs = tuple((t[0], t[1], t[2] - t[1]) for t in active)

        def _hist(df: pd.DataFrame, _specs=specs, _g=g) -> pd.DataFrame:
            frames = []
            for gi, (flt, flo, fspan) in enumerate(_specs):
                v = _survivors(df, flt)
                if len(v):
                    ub, cnt = np.unique(_bucket(v, flo, fspan, _g),
                                        return_counts=True)
                    frames.append(pd.DataFrame(
                        {"gid": gi, "bucket": ub, "cnt": cnt}))
            if not frames:
                return pd.DataFrame({"gid": pd.Series([], dtype=int),
                                     "bucket": pd.Series([], dtype=int),
                                     "cnt": pd.Series([], dtype=int)})
            return pd.concat(frames, ignore_index=True)

        h = _merge_counts(
            ds.map_batches(_hist, batch_format="pandas"),
            ("gid", "bucket"))
        next_groups = []
        for gi, (flt, glo, ghi, base, rks) in enumerate(active):
            span = ghi - glo
            sub = (h[h["gid"] == gi].groupby("bucket")["cnt"]
                   .sum().sort_index())
            buckets = sub.index.to_numpy().astype(np.int64)
            counts = sub.to_numpy()
            cum = np.cumsum(counts)
            need = {}
            for r in rks:
                j = int(np.searchsorted(cum, (r - base) + 1))
                need.setdefault(j, []).append(r)
            for j, rank_list in sorted(need.items()):
                before = base + (int(cum[j - 1]) if j > 0 else 0)
                bj = int(buckets[j])
                if counts[j] <= max_collect:
                    to_collect.append(
                        (flt, glo, span, bj, before, rank_list))
                else:
                    nlo = glo + span * (bj / g)
                    nhi = min(glo + span * ((bj + 1) / g), ghi)
                    next_groups.append(
                        (flt + ((glo, span, g, bj),), nlo, nhi,
                         before, rank_list))
        groups = next_groups

    if to_collect:
        cspecs = tuple((flt, flo, fspan, bj)
                       for (flt, flo, fspan, bj, _b, _r) in to_collect)

        def _coll(df: pd.DataFrame, _specs=cspecs, _g=g) -> pd.DataFrame:
            frames = []
            for ci, (flt, flo, fspan, bj) in enumerate(_specs):
                v = _survivors(df, flt)
                if len(v):
                    vv = v[_bucket(v, flo, fspan, _g) == bj]
                    if len(vv):
                        frames.append(pd.DataFrame({"cid": ci, "value": vv}))
            if not frames:
                return pd.DataFrame({"cid": pd.Series([], dtype=int),
                                     "value": []})
            return pd.concat(frames, ignore_index=True)

        cand = ds.map_batches(_coll, batch_format="pandas").to_pandas()
        for ci, (_flt, _lo, _sp, _bj, before, rank_list) in enumerate(
                to_collect):
            inb = np.sort(cand.loc[cand["cid"] == ci, "value"].to_numpy())
            for r in rank_list:
                _resolve(r, inb[r - before])

    if pending:
        raise RuntimeError(f"unresolved quantile ranks: {sorted(pending)}")
    return out


def grouped_quantile_disc(ds, key, col, q):
    """EXACT per-group discrete quantile (SQL ``quantile_disc``
    semantics: the element at 0-indexed rank ``ceil(q*N) - 1`` within
    each group) — ``(key, col)`` rows, one per group.

    Per-batch partial ``(key, value, m)`` counts (combiner: distinct
    values per batch, not rows), ONE keyed exchange on the
    group key, exact rank selection from the merged counts. Assumes
    per-group DISTINCT-VALUE cardinality fits a task (quality scores,
    token/char lengths, bounded ints) — the multi-round global
    ``exact_quantiles`` covers the unbounded-cardinality case."""
    q = float(q)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if key not in df.columns:  # schema-less empty block
            return pd.DataFrame({key: [], col: [], "m": []})
        g = df.groupby([key, col], as_index=False, sort=False).size()
        return g.rename(columns={"size": "m"})

    def _select(group: pd.DataFrame) -> pd.DataFrame:
        rows = []
        merged = group.groupby([key, col], as_index=False, sort=False)[
            "m"].sum()
        for kv, g in merged.groupby(key, sort=False):
            g = g.sort_values(col, kind="mergesort")
            m = g["m"].to_numpy()
            n = int(m.sum())
            rank = max(int(np.ceil(q * n)) - 1, 0)
            ix = int(np.searchsorted(np.cumsum(m), rank + 1))
            rows.append({key: kv, col: g[col].to_numpy()[ix]})
        return pd.DataFrame(rows, columns=[key, col])

    return exchange(
        ds.map_batches(_partial, batch_format="pandas"),
        key, _select, lambda sch: pa.schema([sch.field(key), sch.field(col)]))


def filter_above_group_quantile(ds, key, col, q):
    """Keep rows whose ``col`` is STRICTLY above their group's exact
    discrete ``q``-quantile — the 'keep the best half per language /
    domain' curation primitive. The per-group thresholds come from
    :func:`grouped_quantile_disc` (group-cardinality rows) and
    broadcast into one streaming filter pass; the corpus itself is
    never shuffled."""
    import ray

    th = grouped_quantile_disc(
        ds, key, col, q).to_pandas()
    ref = ray.put(dict(zip(th[key], th[col])))

    def _filter(df: pd.DataFrame) -> pd.DataFrame:
        cut = df[key].map(ray.get(ref))
        return df[df[col].to_numpy() > cut.to_numpy()]

    return ds.map_batches(_filter, batch_format="pandas")


def zip_with_index(ds, order_by, samples_per_batch=64, out_col="_index"):
    """Assign each row its GLOBAL 0-based rank under ``order_by`` —
    the zip-with-index primitive — without a driver-side sort of the
    data. ``order_by`` must be a UNIQUE key (ranks among duplicates
    would be partition-dependent; callers wanting ties pass a
    tie-breaking composite as a single column).

    Three bounded passes: (1) per-batch boundary samples give
    ``default_buckets() - 1`` split points (driver sees blocks x
    samples KEY VALUES only); (2) per-batch partial counts per range
    bucket -> driver prefix sums (one scalar per range); (3) one
    range-bucket shuffle, local sort inside each bucket, index =
    bucket offset + arange. Sample skew makes buckets UNEVEN, never
    wrong — searchsorted with the same boundaries on both passes is
    deterministic and monotone."""
    import ray

    key = order_by

    def _sample(df: pd.DataFrame) -> pd.DataFrame:
        if key not in df.columns or not len(df):
            return pd.DataFrame({"v": pd.Series([], dtype=object)})
        v = df[key].sort_values().to_numpy()
        idx = np.linspace(0, len(v) - 1, min(samples_per_batch, len(v)))
        return pd.DataFrame({"v": pd.Series(v[idx.astype(int)],
                                            dtype=object)})

    samp = np.sort(
        ds.map_batches(_sample, batch_format="pandas")
        .to_pandas()["v"].to_numpy())
    if not len(samp):
        bounds = np.array([], dtype=object)
    else:
        cut = np.linspace(0, len(samp) - 1,
                          shuffle.default_buckets() + 1)[1:-1]
        bounds = samp[cut.astype(int)]
    b_ref = ray.put(bounds)

    def _bucket_of(vals):
        b = ray.get(b_ref)
        if not len(b):
            return np.zeros(len(vals), dtype=np.int32)
        return np.searchsorted(b, vals, side="right").astype(np.int32)

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        if key not in df.columns or not len(df):
            return pd.DataFrame({"b": pd.Series([], dtype="int32"),
                                 "n": pd.Series([], dtype="int64")})
        bk = _bucket_of(df[key].to_numpy())
        u, c = np.unique(bk, return_counts=True)
        return pd.DataFrame({"b": u.astype("int32"),
                             "n": c.astype("int64")})

    cdf = ds.map_batches(_counts, batch_format="pandas").to_pandas()
    per_bucket = np.zeros(max(int(len(bounds)) + 1, 1), dtype=np.int64)
    if len(cdf):
        for b, n in zip(cdf["b"], cdf["n"]):
            per_bucket[int(b)] += int(n)
    offsets = np.concatenate([[0], np.cumsum(per_bucket)[:-1]])
    o_ref = ray.put(offsets)

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_zb"] = (_bucket_of(df[key].to_numpy())
                     if key in df.columns and len(df)
                     else pd.Series([], dtype="int32"))
        return df

    def _assign(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(key, kind="mergesort")
        off = ray.get(o_ref)[int(g["_zb"].iloc[0])]
        g[out_col] = off + np.arange(len(g), dtype=np.int64)
        return g

    return bucketed_group_apply(
        ds.map_batches(_tag, batch_format="pandas"), ["_zb"], _assign,
        _replace_tag("_zb", out_col, pa.int64()))


def percent_rank(ds, col, out_col="pct_rank", samples_per_batch=64):
    """SQL ``percent_rank() OVER (ORDER BY col)``: for each row,
    (count of strictly smaller values) / (N - 1), ties sharing a
    rank — computed exactly and distributed.

    Same three bounded passes as ``zip_with_index`` (boundary sample
    -> split points; per-range counts -> driver prefix sums of one
    scalar per range; one range shuffle) but TIE-AWARE where
    zip_with_index requires unique keys: ranges split by VALUE with
    ``searchsorted(side='right')`` on both passes, so EQUAL values
    always co-locate in one range and their shared strictly-smaller
    count is the range offset plus a local ``searchsorted(side=
    'left')``. The only float op is the final single IEEE division of
    two exact integers, so a SQL replay agrees bit-for-bit."""
    import ray

    def _sample(df: pd.DataFrame) -> pd.DataFrame:
        if col not in df.columns or not len(df):
            return pd.DataFrame({"v": pd.Series([], dtype=object)})
        v = df[col].sort_values().to_numpy()
        idx = np.linspace(0, len(v) - 1, min(samples_per_batch, len(v)))
        return pd.DataFrame({"v": pd.Series(v[idx.astype(int)],
                                            dtype=object)})

    samp = np.sort(
        ds.map_batches(_sample, batch_format="pandas")
        .to_pandas()["v"].to_numpy())
    if not len(samp):
        bounds = np.array([], dtype=object)
    else:
        cut = np.linspace(0, len(samp) - 1,
                          shuffle.default_buckets() + 1)[1:-1]
        bounds = np.unique(samp[cut.astype(int)])
    b_ref = ray.put(bounds)

    def _bucket_of(vals):
        b = ray.get(b_ref)
        if not len(b):
            return np.zeros(len(vals), dtype=np.int32)
        return np.searchsorted(b, vals, side="right").astype(np.int32)

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        if col not in df.columns or not len(df):
            return pd.DataFrame({"b": pd.Series([], dtype="int32"),
                                 "n": pd.Series([], dtype="int64")})
        bk = _bucket_of(df[col].to_numpy())
        u, c = np.unique(bk, return_counts=True)
        return pd.DataFrame({"b": u.astype("int32"),
                             "n": c.astype("int64")})

    cdf = ds.map_batches(_counts, batch_format="pandas").to_pandas()
    per_bucket = np.zeros(max(int(len(bounds)) + 1, 1), dtype=np.int64)
    if len(cdf):
        for b, n in zip(cdf["b"], cdf["n"]):
            per_bucket[int(b)] += int(n)
    n_total = int(per_bucket.sum())
    denom = float(max(n_total - 1, 1))
    offsets = np.concatenate([[0], np.cumsum(per_bucket)[:-1]])
    o_ref = ray.put(offsets)

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_prb"] = (_bucket_of(df[col].to_numpy())
                      if col in df.columns and len(df)
                      else pd.Series([], dtype="int32"))
        return df

    def _assign(group: pd.DataFrame) -> pd.DataFrame:
        vals = group[col].to_numpy()
        sv = np.sort(vals)
        smaller = np.searchsorted(sv, vals, side="left").astype(np.int64)
        off = int(ray.get(o_ref)[int(group["_prb"].iloc[0])])
        return group.assign(**{out_col: (off + smaller) / denom})

    return bucketed_group_apply(
        ds.map_batches(_tag, batch_format="pandas"), ["_prb"], _assign,
        _replace_tag("_prb", out_col, pa.float64()))


def _replace_tag(tag, out_col, out_type):
    """Output schema: the input's columns without ``tag``, then
    ``out_col``."""
    return lambda sch: sch.remove(sch.get_field_index(tag)).append(
        pa.field(out_col, out_type))


def mad_outliers(ds, key, col, k=3):
    """Robust per-group outlier flags via median absolute deviation:
    a row is an outlier when ``|x - median(group)| > k * MAD(group)``
    with MAD = median of ``|x - median|`` — the classic heavy-tail-safe
    length/quality anomaly filter for crawl curation (mean/std break
    on the exact skew this is meant to catch).

    EXACT and integer-safe: both medians come from
    :func:`grouped_quantile_disc` (SQL ``quantile_disc`` semantics —
    element at rank ``ceil(N/2) - 1``), so for integer ``col`` every
    intermediate is an integer and the flag replays bit-exactly in a
    DuckDB oracle. Two quantile shuffles of per-batch distinct-value
    PARTIALS (never the corpus), then the group-cardinality
    ``(median, MAD)`` table broadcasts via ``ray.put`` into one
    streaming flag pass — the corpus itself is never shuffled. Assumes
    group cardinality ≪ corpus (sources, languages, hosts); a
    corpus-proportional key needs the bucket-join form instead.

    Returns the input columns plus ``med``, ``mad`` (int64) and
    ``is_outlier`` (bool).
    """
    import ray

    med = grouped_quantile_disc(ds, key, col, 0.5)
    med_pd = med.to_pandas()
    med_map = dict(zip(med_pd[key], med_pd[col]))
    med_ref = ray.put(med_map)

    def _dev(df: pd.DataFrame) -> pd.DataFrame:
        m = df[key].map(ray.get(med_ref))
        return pd.DataFrame({
            key: df[key],
            "_dev": np.abs(
                df[col].to_numpy(dtype=np.int64)
                - m.to_numpy(dtype=np.int64)
            ),
        })

    mad = grouped_quantile_disc(
        ds.map_batches(_dev, batch_format="pandas"),
        key, "_dev", 0.5).to_pandas()
    mad_map = dict(zip(mad[key], mad["_dev"]))
    stats_ref = ray.put((med_map, mad_map))

    def _flag(df: pd.DataFrame) -> pd.DataFrame:
        med_m, mad_m = ray.get(stats_ref)
        out = df.copy()
        m = df[key].map(med_m).to_numpy(dtype=np.int64)
        a = df[key].map(mad_m).to_numpy(dtype=np.int64)
        x = df[col].to_numpy(dtype=np.int64)
        out["med"] = m
        out["mad"] = a
        out["is_outlier"] = np.abs(x - m) > k * a
        return out

    return ds.map_batches(_flag, batch_format="pandas")


def ntile(ds, col, tie_col, n_tiles, out_col="tile"):
    """Global equal-frequency binning with SQL ``NTILE`` semantics:
    rows ordered by ``(col, tie_col)`` split into ``n_tiles`` buckets
    where the first ``N % n_tiles`` buckets take ``ceil(N/n_tiles)``
    rows — the quantile-bucket feature for curriculum buckets, length
    tiers, score deciles.

    Rank comes from :func:`zip_with_index` over the composite key
    ``(col << 31) | tie_col`` (both must be non-negative int64 below
    2^31 — validated per batch; ``tie_col`` must be unique, e.g. a row
    id), then the tile is a PURE FORMULA of (rank, N, n_tiles) applied
    in the same pass — no shuffle beyond zip_with_index's single
    range-bucket exchange. Exact and partition-invariant; replays
    bit-exactly against SQL ``NTILE``.
    """
    n_rows = ds.count()

    lim = np.int64(1) << 31

    def _key(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(dtype=np.int64)
        t = df[tie_col].to_numpy(dtype=np.int64)
        if len(v) and (v.min() < 0 or t.min() < 0
                       or v.max() >= lim or t.max() >= lim):
            raise ValueError(
                f"ntile composite key needs 0 <= {col},{tie_col} < 2^31")
        out = df.copy()
        out["_ntkey"] = (v << np.int64(31)) | t
        return out

    ranked = zip_with_index(
        ds.map_batches(_key, batch_format="pandas"), "_ntkey",
        out_col="_ntrank")

    size, rem = divmod(int(n_rows), int(n_tiles))
    cut = rem * (size + 1)

    def _tile(df: pd.DataFrame) -> pd.DataFrame:
        r = df["_ntrank"].to_numpy(dtype=np.int64)
        lo = r // (size + 1) + 1
        hi = (rem + (r - cut) // size + 1) if size else lo
        out = df.drop(columns=["_ntkey", "_ntrank"])
        out[out_col] = np.where(r < cut, lo, hi).astype(np.int64)
        return out

    return ranked.map_batches(_tile, batch_format="pandas")


def winsorize(ds, col, q_lo=0.05, q_hi=0.95, out_col=None, **quantile_kw):
    """Clip ``col`` to its exact discrete [q_lo, q_hi] quantiles — the
    outlier-tail clamp before mean-based statistics or score
    normalization. Thresholds come from :func:`exact_quantiles`
    (bounded sparse-histogram refinement, nothing corpus-sized
    driver-side; quantile_disc semantics so integer columns stay
    integers and the clip replays bit-exactly in SQL); the clip itself
    is one streaming map pass. Adds ``out_col`` (default
    ``{col}_wins``) plus ``clipped`` (bool)."""
    lo, hi = exact_quantiles(ds, col, [q_lo, q_hi], **quantile_kw)
    name = out_col or f"{col}_wins"

    def _clip(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy()
        w = np.clip(v, lo, hi)
        out = df.copy()
        out[name] = w.astype(v.dtype, copy=False)
        out["clipped"] = w != v
        return out

    return ds.map_batches(_clip, batch_format="pandas")


def grouped_percent_rank(ds, key, col, out_col="pct_rank"):
    """Per-group ``percent_rank() OVER (PARTITION BY key ORDER BY
    col)``: (strictly smaller in group) / (group size - 1), ties
    sharing a rank, single-row groups at 0.0 (SQL semantics) — the
    within-stratum score normalizer (per-language quality ranks,
    per-host length ranks).

    One coarse-bucket shuffle on the GROUP key; inside a bucket each
    group ranks with one sort + ``searchsorted`` (no per-row loop) and
    the only float op is one IEEE division of two exact integers, so a
    SQL oracle agrees bit-for-bit. PARTITIONING ASSUMPTION
    (documented): one group fits one task — the standard per-key
    window requirement; an unbounded single group needs the global
    :func:`percent_rank`'s range machinery instead.
    """
    def _rank(g: pd.DataFrame) -> pd.DataFrame:
        v = g[col].to_numpy()
        smaller = np.searchsorted(np.sort(v), v, side="left")
        den = len(v) - 1
        return g.assign(**{out_col: smaller / den if den
                           else np.zeros(len(v), dtype=np.float64)})

    return bucketed_group_apply(
        ds, [key], _rank,
        lambda sch: sch.append(pa.field(out_col, pa.float64())))

