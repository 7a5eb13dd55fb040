"""Grouped aggregation for SMALL group cardinality.

Ray's ``Dataset.groupby().aggregate()`` runs a sort-based all-to-all
shuffle whose fixed cost (~1.5 s at 32 cpus) dwarfs rollup-style
aggregates whose group count is tiny (TPC-H Q1 has 6 groups). For
those, a per-batch pandas combine followed by ONE single-block
repartition and a final combine is both faster and shuffle-free: the
repartitioned intermediate is ``groups x blocks`` rows (bounded —
at 10k blocks and 6 groups it is 60k rows), so the single final task
is never the bottleneck. NOT for high-cardinality keys: use
``Dataset.groupby`` or ``bucketed_group_apply`` there.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import bucketed_group_apply, exchange

__all__ = [
    "grouped_agg_small", "grouped_topk", "approx_quantiles",
    "exact_quantiles", "approx_distinct", "heavy_hitters",
    "grouped_quantile_disc", "filter_above_group_quantile",
    "zip_with_index",
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


def grouped_topk(ds, keys, order_by, k=1, ascending=False, tie_cols=None,
                 num_buckets=64):
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
        lambda sch: sch.append(pa.field("rank", pa.int64())), num_buckets,
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


# ---------------------------------------------------------------------------
# HyperLogLog approximate distinct count


def _hll_registers(values: "pd.Series", precision: int) -> np.ndarray:
    """Vectorized HLL register array (length 2^precision) for one
    batch of values: deterministic 64-bit hashes (the fixed-key
    pandas siphash — identical across processes/workers), bucket =
    top ``precision`` bits, register value = leading-zero count of
    the remaining bits + 1."""
    m = 1 << precision
    regs = np.zeros(m, dtype=np.uint8)
    if not len(values):
        return regs
    h = pd.util.hash_pandas_object(values, index=False).to_numpy()
    bucket = (h >> np.uint64(64 - precision)).astype(np.int64)
    rest = (h << np.uint64(precision)) | np.uint64((1 << precision) - 1)
    # leading zeros of the top (64 - precision) bits, +1; the OR above
    # seeds the low bits so lzcount never exceeds 64 - precision
    width = np.uint64(64)
    lz = np.zeros(len(h), dtype=np.uint8)
    cur = rest.copy()
    # branch-free binary leading-zero count
    for shift in (32, 16, 8, 4, 2, 1):
        mask_hi = cur < (np.uint64(1) << (width - np.uint64(shift)))
        lz[mask_hi] += np.uint8(shift)
        cur[mask_hi] = cur[mask_hi] << np.uint64(shift)
    np.maximum.at(regs, bucket, lz + 1)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction; 64-bit hashes make the large-range correction moot."""
    m = len(regs)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m)
    )
    est = alpha * m * m / np.sum(np.float64(2.0) ** -regs.astype(np.float64))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(est)


def approx_distinct(ds, col, key=None, precision=12):
    """HyperLogLog distinct count of ``col`` — global (``key=None``,
    returns a float) or per ``key`` group (returns a Dataset of
    ``(key, approx_distinct)``). Relative error ~1.04/sqrt(2^p)
    (~1.6% at the default p=12).

    Decomposable at any scale: each batch reduces to a 2^p-byte
    register array (per key), merged by elementwise MAX — the global
    merge ships ``blocks x 2^p`` bytes to the driver, never value
    cardinality; the per-key merge is one coarse-bucket shuffle of
    ``groups x 2^p``-byte rows. Per-key mode sizes for MODERATE key
    cardinality (each key carries a 4 KiB register payload at p=12;
    drop ``precision`` for very wide key spaces)."""
    if key is None:
        def _partial(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"regs": [_hll_registers(df[col], precision).tobytes()]}
            )

        merged = np.zeros(1 << precision, dtype=np.uint8)
        for row in ds.map_batches(
                _partial, batch_format="pandas").to_pandas()["regs"]:
            merged = np.maximum(merged, np.frombuffer(row, dtype=np.uint8))
        return _hll_estimate(merged)

    def _partial_k(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, grp in df.groupby(key, sort=False):
            rows.append(
                {key: kv,
                 "regs": _hll_registers(grp[col], precision).tobytes()}
            )
        return pd.DataFrame(rows, columns=[key, "regs"])

    def _final_k(group: pd.DataFrame) -> pd.DataFrame:
        merged = np.zeros(1 << precision, dtype=np.uint8)
        for row in group["regs"]:
            merged = np.maximum(merged, np.frombuffer(row, dtype=np.uint8))
        return pd.DataFrame(
            {key: group[key].iloc[:1],
             "approx_distinct": [_hll_estimate(merged)]}
        )

    partials = ds.map_batches(_partial_k, batch_format="pandas")
    return bucketed_group_apply(
        partials, [key], _final_k,
        lambda sch: pa.schema([sch.field(key),
                               pa.field("approx_distinct", pa.float64())]))


def _cms_rows(vals: "pd.Series", depth: int, width: int) -> np.ndarray:
    """(depth, len) column indices for a count-min sketch: row k uses
    pandas' siphash with a distinct 16-byte key — deterministic and
    replayable at probe time."""
    out = np.empty((depth, len(vals)), dtype=np.int64)
    for k in range(depth):
        h = pd.util.hash_pandas_object(
            vals, index=False, hash_key=f"{k:016d}")
        out[k] = (h % np.uint64(width)).to_numpy().astype(np.int64)
    return out


def heavy_hitters(ds, col, threshold_frac=0.01, width=2048, depth=4):
    """Values of ``col`` occurring in at least ``threshold_frac`` of
    all rows, with EXACT counts — ``(col, n)`` rows.

    Count-min sketch as a PRUNER, exactness from a verify pass (the
    same discipline as ``bloom_semi_filter``: the sketch changes
    cost, never the answer):

    1. per-batch CMS partials (depth x width int64 + a row-count
       scalar) merged by elementwise SUM driver-side — blocks x
       ``depth*width*8`` bytes, never value cardinality;
    2. candidate harvest: each batch probes its DISTINCT values
       against the broadcast sketch; CMS only over-estimates, so
       every true heavy hitter survives and the candidate set stays
       near ``1/threshold_frac`` values (plus bounded collision
       noise) — small enough to broadcast;
    3. exact verify: rows are semi-filtered by the broadcast
       candidate set and counted on one keyed exchange; the
       threshold cut uses the EXACT counts.
    """
    import ray

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        sketch = np.zeros((depth, width), dtype=np.int64)
        if len(df):
            vals = df[col]
            idx = _cms_rows(vals, depth, width)
            for k in range(depth):
                np.add.at(sketch[k], idx[k], 1)
        return pd.DataFrame({"sketch": [sketch.tobytes()],
                             "n": [len(df)]})

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    sketch = np.zeros((depth, width), dtype=np.int64)
    for blob in parts["sketch"]:
        sketch += np.frombuffer(blob, dtype=np.int64).reshape(depth, width)
    total = int(parts["n"].sum())
    threshold = int(np.ceil(threshold_frac * total))
    sk_ref = ray.put(sketch)

    def _candidates(df: pd.DataFrame) -> pd.DataFrame:
        vals = df[col].drop_duplicates()
        if not len(vals):
            return pd.DataFrame({col: vals})
        sk = ray.get(sk_ref)
        idx = _cms_rows(vals, depth, width)
        est = sk[np.arange(depth)[:, None], idx].min(axis=0)
        return pd.DataFrame({col: vals[est >= threshold]})

    cdf = ds.map_batches(_candidates, batch_format="pandas").to_pandas()
    # all-empty candidate batches concatenate to a 0-column frame
    cand = set(cdf[col].drop_duplicates()) if col in cdf.columns else set()
    if not cand:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {col: pd.Series([], dtype=object),
             "n": pd.Series([], dtype="int64")}))
    cand_ref = ray.put(cand)

    def _count_partial(df: pd.DataFrame) -> pd.DataFrame:
        if col not in df.columns:  # schema-less empty block
            return pd.DataFrame({col: [], "n": []})
        vc = df[col][df[col].isin(ray.get(cand_ref))].value_counts()
        return pd.DataFrame({col: vc.index.to_numpy(),
                             "n": vc.to_numpy().astype("int64")})

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(col, as_index=False, sort=False)["n"].sum()
        return g[g["n"] >= threshold]

    return exchange(
        ds.map_batches(_count_partial, batch_format="pandas"),
        col, _merge,
        lambda sch: pa.schema([sch.field(col), pa.field("n", pa.int64())]))


def grouped_quantile_disc(ds, key, col, q, num_buckets=64):
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
        key, _select, lambda sch: pa.schema([sch.field(key), sch.field(col)]),
        num_buckets)


def filter_above_group_quantile(ds, key, col, q, num_buckets=64):
    """Keep rows whose ``col`` is STRICTLY above their group's exact
    discrete ``q``-quantile — the 'keep the best half per language /
    domain' curation primitive. The per-group thresholds come from
    :func:`grouped_quantile_disc` (group-cardinality rows) and
    broadcast into one streaming filter pass; the corpus itself is
    never shuffled."""
    import ray

    th = grouped_quantile_disc(
        ds, key, col, q, num_buckets=num_buckets).to_pandas()
    ref = ray.put(dict(zip(th[key], th[col])))

    def _filter(df: pd.DataFrame) -> pd.DataFrame:
        cut = df[key].map(ray.get(ref))
        return df[df[col].to_numpy() > cut.to_numpy()]

    return ds.map_batches(_filter, batch_format="pandas")


def zip_with_index(ds, order_by, num_buckets=64, samples_per_batch=64,
                   out_col="_index"):
    """Assign each row its GLOBAL 0-based rank under ``order_by`` —
    the zip-with-index primitive — without a driver-side sort of the
    data. ``order_by`` must be a UNIQUE key (ranks among duplicates
    would be partition-dependent; callers wanting ties pass a
    tie-breaking composite as a single column).

    Three bounded passes: (1) per-batch boundary samples give
    ``num_buckets - 1`` split points (driver sees blocks x samples
    KEY VALUES only); (2) per-batch partial counts per range bucket
    -> driver prefix sums (``num_buckets`` scalars); (3) one
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
        cut = np.linspace(0, len(samp) - 1, num_buckets + 1)[1:-1]
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
        _replace_tag("_zb", out_col, pa.int64()), num_buckets)


def percent_rank(ds, col, out_col="pct_rank", num_buckets=64,
                 samples_per_batch=64):
    """SQL ``percent_rank() OVER (ORDER BY col)``: for each row,
    (count of strictly smaller values) / (N - 1), ties sharing a
    rank — computed exactly and distributed.

    Same three bounded passes as ``zip_with_index`` (boundary sample
    -> split points; per-range counts -> driver prefix sums of
    ``num_buckets`` scalars; one range shuffle) but TIE-AWARE where
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
        cut = np.linspace(0, len(samp) - 1, num_buckets + 1)[1:-1]
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
        _replace_tag("_prb", out_col, pa.float64()), num_buckets)


def _replace_tag(tag, out_col, out_type):
    """Output schema: the input's columns without ``tag``, then
    ``out_col``."""
    return lambda sch: sch.remove(sch.get_field_index(tag)).append(
        pa.field(out_col, out_type))


def histogram(ds, col, bins, lo=None, hi=None):
    """Exact equi-width histogram ``(bin, n)`` over a numeric column:
    per-batch ``np.bincount`` partials (one shuffle-free pass), merged
    in a single bounded task (``bins`` rows per batch partial). Bin
    rule, shared verbatim with the SQL replay: ``min(bins - 1,
    floor((v - lo) * bins / (hi - lo)))`` as one double expression —
    the right edge closes into the last bin. ``lo``/``hi`` default to
    the exact distributed min/max (a degenerate span puts everything
    in bin 0 — engine-side contract only; the SQL form divides by
    zero there). Empty bins are emitted with n = 0."""
    if lo is None:
        lo = ds.min(col)
    if hi is None:
        hi = ds.max(col)
    lo_f, hi_f = float(lo), float(hi)
    span = hi_f - lo_f

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if col not in df.columns or not len(df):
            return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        v = df[col].to_numpy().astype("float64")
        if span == 0:
            ix = np.zeros(len(v), dtype=np.int64)
        else:
            ix = np.floor((v - lo_f) * float(bins) / span).astype(np.int64)
            ix = np.minimum(ix, bins - 1)
        counts = np.bincount(ix, minlength=bins)
        return pd.DataFrame({"bin": np.arange(bins, dtype=np.int64),
                             "n": counts.astype("int64")})

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame({"bin": np.arange(bins, dtype=np.int64)})
        out = df.groupby("bin", as_index=False)["n"].sum()
        out = base.merge(out, on="bin", how="left").fillna({"n": 0})
        out["n"] = out["n"].astype("int64")
        return out

    return (
        ds.map_batches(_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(_final, batch_format="pandas")
    )


def mad_outliers(ds, key, col, k=3, num_buckets=64):
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

    med = grouped_quantile_disc(ds, key, col, 0.5, num_buckets=num_buckets)
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
        key, "_dev", 0.5, num_buckets=num_buckets).to_pandas()
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


def ntile(ds, col, tie_col, n_tiles, out_col="tile", num_buckets=64):
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
        num_buckets=num_buckets, out_col="_ntrank")

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


def grouped_percent_rank(ds, key, col, out_col="pct_rank",
                         num_buckets=64):
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
        lambda sch: sch.append(pa.field(out_col, pa.float64())), num_buckets)


def skyline2d(ds, x, y, num_final_blocks=1):
    """2-D Pareto skyline, both dimensions MAXIMIZED (negate a column
    upstream to minimize): the distinct (x, y) pairs no other pair
    dominates (>= in both, > in at least one) — the
    best-tradeoff-frontier operator (quality vs length, price vs
    quantity).

    Classic two-level shape: the global skyline is a subset of the
    union of per-block skylines, so each batch reduces to its LOCAL
    skyline first (distinct pairs + one descending sort + a running
    strictly-preceding max scan — O(n log n), no pairwise loop), and
    only those candidates reach the final single-task merge, which
    runs the identical scan. Candidate volume is the sum of local
    skyline sizes — for correlated data a handful of rows; the
    anti-correlated worst case (skyline ~ distinct values) is the
    documented limit, as with any skyline algorithm.

    The scan rule (on distinct pairs sorted by (x DESC, y DESC): keep
    iff y exceeds the running max of all strictly-preceding rows)
    replays exactly in SQL as a window MAX, so oracles need no
    quadratic NOT EXISTS.
    """

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({x: pd.Series([], dtype="float64"),
                              y: pd.Series([], dtype="float64")})
        if x not in df.columns or not len(df):
            return empty
        d = df[[x, y]].drop_duplicates()
        d = d.sort_values([x, y], ascending=False, kind="mergesort",
                          ignore_index=True)
        yv = d[y].to_numpy()
        run = np.maximum.accumulate(yv)
        keep = np.empty(len(yv), dtype=bool)
        keep[0] = True
        keep[1:] = yv[1:] > run[:-1]
        return d[keep]

    return (
        ds.map_batches(_local, batch_format="pandas")
        .repartition(num_final_blocks)
        .map_batches(_local, batch_format="pandas")
    )
