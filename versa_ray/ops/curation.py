"""End-to-end training-corpus curation: the composition a pipeline
user actually runs (language allow-list -> quality gates ->
normalization -> exact dedup -> optional near-dedup -> partitioned
parquet), built from the repo's vectorized kernels so the whole flow
is ONE filter/normalize map stage plus one dedup shuffle.

Every deterministic stage is SQL-oracle-checked end to end
(doc_curation); the optional minhash stage reuses the oracle-proven
cluster machinery (ops/dedup.minhash_dedup).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..core.exchange import exchange, spread_key
from .textstats import normalize_text, token_stats

__all__ = ["curate_documents"]


def curate_documents(ds, *, text_col="text", id_col="doc_id", lang_col="lang",
                     lang_allow=None, min_tokens=0, max_digit_ratio=1.0,
                     normalize=True, near_dedup=False, near_threshold=0.5,
                     line_dedup_words=None, num_buckets=64, out_path=None,
                     **near_kw):
    """Curated rows ``(id, lang, norm_text|text)``: language
    allow-list, token-count floor, digit-ratio ceiling (expressed as
    ``n_digits <= ratio * n_chars`` — division-free, empty-doc safe),
    optional normalization, optional CCNet-style line-level dedup
    (``line_dedup_words`` token windows; docs whose SURVIVING text is
    empty — every line duplicated, or nothing but whitespace to begin
    with — drop out), exact dedup keyed on the (normalized)
    content keeping the minimum id, optional minhash near-dedup
    keeping only cluster representatives. ``out_path`` additionally
    writes the result as lang-partitioned parquet (resumable layout).
    """
    allow = sorted(lang_allow) if lang_allow else None
    out_text = "norm_text" if normalize else text_col
    cols = [id_col, lang_col, out_text]

    def _filter_normalize(df: pd.DataFrame) -> pd.DataFrame:
        df = df[[id_col, lang_col, text_col]].copy()
        if allow:
            df = df[df[lang_col].isin(allow)]
        if not len(df):
            return pd.DataFrame({c: [] for c in cols})
        df = token_stats(df, text_col)
        keep = (df["n_tokens"] >= min_tokens) & (
            df["n_digits"] <= max_digit_ratio * df["n_chars"]
        )
        df = df[keep]
        if normalize:
            df = normalize_text(df, text_col)
        return df[cols]

    filtered = ds.map_batches(_filter_normalize, batch_format="pandas")

    if line_dedup_words:
        from .dedup import line_dedup

        filtered = line_dedup(
            filtered, text_col=out_text, id_col=id_col,
            line_words=line_dedup_words, num_buckets=num_buckets,
            keep_cols=(lang_col,),
        ).map_batches(
            # docs whose every line was a duplicate drop out
            lambda df: df.loc[df[out_text] != "", cols],
            batch_format="pandas",
        )

    # exact dedup on content, keeping full survivor rows (min id per
    # distinct content; fingerprint-bucketed shuffle, never the text)
    def _local(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(_fp=pd.Series([], dtype="int64"))
        out = df.loc[df.groupby(out_text)[id_col].idxmin()]
        return out.assign(_fp=pd.util.hash_pandas_object(
            out[out_text], index=False).to_numpy().astype("int64"))

    def _bucket_dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group.loc[
            group.groupby(["_fp", out_text], sort=False)[id_col].idxmin(), cols
        ]

    def _cols_of(sch, *_):
        return pa.schema([sch.field(c) for c in cols])

    deduped = exchange(filtered.map_batches(_local, batch_format="pandas"),
                       "_fp", _bucket_dedup, _cols_of, num_buckets)

    if near_dedup:
        from .dedup import minhash_dedup

        # the lazy deduped dataset is consumed three times below
        # (candidate pairs, cluster assignment, keep_rows) — pin it
        # once so the filter + dedup shuffle don't re-execute per
        # consumer (blocks spill to the object store as needed)
        deduped = deduped.materialize()

        clusters = minhash_dedup(
            deduped, text_col=out_text, id_col=id_col,
            threshold=near_threshold, **near_kw
        )
        # non-representatives (cluster label = min member id) form the
        # DROP set; anti-join it onto the full rows by one id-keyed
        # exchange, so neither side is ever broadcast
        drops = clusters.map_batches(
            lambda df: df.loc[df[id_col] != df["cluster"], [id_col]],
            batch_format="pandas",
        )

        def _anti(keep: pd.DataFrame, drop: pd.DataFrame) -> pd.DataFrame:
            if len(keep) and len(drop):
                return keep[~keep[id_col].isin(set(drop[id_col]))]
            return keep

        deduped = exchange([deduped, drops], id_col, _anti,
                           deduped.schema().base_schema, num_buckets)

    if out_path:
        deduped.write_parquet(out_path, partition_cols=[lang_col])
    return deduped


def dsir_weights(ds, *, is_target, text_col="text", id_col="doc_id",
                 num_buckets=64):
    """DSIR-style importance weights for training-data selection
    (Data Selection via Importance Resampling, Xie et al. 2023,
    arXiv:2302.03169): score every document by how much more likely
    its tokens are under a TARGET unigram distribution (the curated
    seed corpus) than under the SOURCE distribution (the rest of the
    raw corpus). Documents with high weights read like the target;
    resampling by weight (compose with ops.sample's md5-rank /
    token-budget selection) tilts the training mixture toward it.

    ``is_target``: vectorized ``DataFrame -> bool ndarray`` marking
    the target rows (e.g. ``lambda df: df["lang"].to_numpy() == "en"``).
    Both LMs are add-one smoothed over the SHARED corpus vocabulary V:
    ``p_t(g) = (c_t(g)+1)/(T_t+V)``, same for source, and the weight is
    the length-normalized log ratio
    ``log_ratio = round6( sum_g m_g * (ln p_t(g) - ln p_s(g)) / n )``.
    Every corpus token is in-vocabulary by construction (the LMs are
    fit on the same corpus being scored), so there is no OOV branch.

    Distributed shape (nothing corpus-sized driver-side, no broadcast):

    1. per-batch (token, ct, cs) count partials merge on ONE
       token-keyed exchange -> the vocab table;
       T_t / T_s / V reduce to THREE driver scalars;
    2. doc-token rows and vocab rows meet on a second token-keyed
       two-input exchange where each doc-token row picks up its
       ``m * (ln p_t - ln p_s)`` term;
    3. a doc-keyed exchange sum (with per-doc anchors, so token-less
       documents still emit a row) finalizes
       ``(id_col, n_tokens, log_ratio)``.

    Returns a Dataset ``(id_col, n_tokens, log_ratio)`` with one row
    per input document. Assumes INTEGER document ids (the documents
    table convention); a document never spans input rows.
    """
    import numpy as np

    from .lm import _doc_token_counts, _round6

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "token": pd.Series([], dtype=object),
            "ct": pd.Series([], dtype="int64"),
            "cs": pd.Series([], dtype="int64")})
        if not len(df):
            return empty
        tgt = np.asarray(is_target(df), dtype=bool)
        dtc = _doc_token_counts(df, id_col, text_col)
        if not len(dtc):
            return empty
        flag = pd.Series(tgt, index=df[id_col].to_numpy())
        t = flag.reindex(dtc[id_col]).to_numpy(dtype=bool)
        m = dtc["m"].to_numpy()
        g = pd.DataFrame({
            "token": dtc["token"],
            "ct": np.where(t, m, 0).astype("int64"),
            "cs": np.where(t, 0, m).astype("int64"),
        }).groupby("token", as_index=False, sort=False).sum()
        return g

    def _merge(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.groupby("token", as_index=False, sort=False)[
            ["ct", "cs"]].sum()

    cnt = exchange(
        ds.map_batches(_partials, batch_format="pandas"), "token", _merge,
        pa.schema({"token": pa.string(), "ct": pa.int64(), "cs": pa.int64()}),
        num_buckets,
    ).materialize()
    scal = cnt.map_batches(
        lambda df: pd.DataFrame({
            "tt": [int(df["ct"].sum())], "ts": [int(df["cs"].sum())],
            "v": [int(len(df))]}),
        batch_format="pandas",
    ).sum(["tt", "ts", "v"])
    Tt, Ts, V = (int(scal["sum(tt)"]), int(scal["sum(ts)"]),
                 int(scal["sum(v)"]))

    # pass 2: token-keyed exchange of per-doc token counts against the
    # vocab rows (ct, cs); per-doc anchors (m=0) key by doc id so
    # token-less docs surface in pass 3
    def _doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        dtc = _doc_token_counts(df, id_col, text_col)
        anchors = pd.DataFrame({
            id_col: df[id_col].to_numpy(), "token": "", "m": np.int64(0)})
        out = pd.concat([dtc, anchors], ignore_index=True)
        return out.assign(
            _k=spread_key(out, "token", out["m"].to_numpy() == 0, id_col))

    def _attach(docs: pd.DataFrame, vocab: pd.DataFrame) -> pd.DataFrame:
        if not len(docs):
            return None
        if len(vocab):
            ct = (pd.Series(vocab["ct"].to_numpy(), index=vocab["token"])
                  .reindex(docs["token"]).fillna(0).to_numpy(dtype="float64"))
            cs = (pd.Series(vocab["cs"].to_numpy(), index=vocab["token"])
                  .reindex(docs["token"]).fillna(0).to_numpy(dtype="float64"))
        else:
            ct = cs = np.zeros(len(docs))
        lr = (np.log((ct + 1.0) / float(Tt + V))
              - np.log((cs + 1.0) / float(Ts + V)))
        return docs.assign(_lr=docs["m"].to_numpy() * lr)

    def _finalize(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(id_col, as_index=False, sort=False).agg(
            n_tokens=("m", "sum"), slr=("_lr", "sum"))
        n = g["n_tokens"].to_numpy(dtype="float64")
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_tokens": g["n_tokens"].to_numpy().astype("int64"),
            "log_ratio": _round6(np.where(
                n > 0, g["slr"].to_numpy() / np.maximum(n, 1.0), 0.0)),
        })

    attached = exchange(
        [ds.map_batches(_doc_rows, batch_format="pandas"), cnt],
        [["_k"], ["token"]], _attach,
        pa.schema({id_col: pa.int64(), "m": pa.int64(), "_lr": pa.float64()}),
        num_buckets)
    return exchange(
        attached, id_col, _finalize,
        pa.schema({id_col: pa.int64(), "n_tokens": pa.int64(),
                   "log_ratio": pa.float64()}), num_buckets)
