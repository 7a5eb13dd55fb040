"""Corpus-trained unigram language-model perplexity scoring.

CCNet-style quality signal (Wenzek et al. 2020 use a KenLM 5-gram;
the env has no KenLM, so the model here is an add-one-smoothed
unigram LM estimated FROM the corpus itself — fully deterministic and
SQL-replayable, which is the point of the oracle discipline):

- vocabulary = whitespace tokens with global count >= ``min_count``;
  ``T`` = total token occurrences in the corpus, ``V`` = vocabulary
  size;
- in-vocab probability ``p(w) = (c_w + 1) / (T + V + 1)``, one shared
  out-of-vocabulary mass ``p_oov = 1 / (T + V + 1)``;
- per-document score ``log_ppl = -(1/n_d) * sum_i ln p(w_i)`` (0.0
  for empty documents) — LOWER is more "natural" relative to the
  corpus; rounded half-away-from-zero to 6 dp for SQL round() parity.

Scale design:

- global token counts reuse the ``top_tokens`` shape: per-batch
  vectorized partial counts, ONE token-cardinality coarse-bucket
  shuffle to merge totals (raw token text is never a shuffle key).
- ``T`` and ``V`` are the only things that touch the driver (two
  scalars).
- scoring attaches log-probs to per-doc token counts ``(doc_id,
  token, m)`` by a two-input exchange on the SAME token key (second
  token-cardinality shuffle), then documents re-aggregate on a
  doc-bucketed groupby (doc-cardinality). When the vocabulary is
  small (``V <= BROADCAST_THRESHOLD``) the count table is instead
  broadcast once via ``ray.put`` and scoring is a single
  ``map_batches`` pass — the auto-switch mirrors
  ``assign_clusters`` / ``verify_pairs_jaccard``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import exchange, spread_key
from .textstats import _WS_CLASS

_ATTACHED = {"m": pa.int64(), "_logp": pa.float64()}
# ``doc_perplexity`` broadcasts a count table of at most this many
# vocabulary types and shuffles on the token key above it.
BROADCAST_THRESHOLD = 1_000_000


def _partial_counts(df: pd.DataFrame, text_col: str) -> pd.DataFrame:
    if not len(df):
        return pd.DataFrame({"token": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype="int64")})
    toks = df[text_col].fillna("").str.split(_WS_CLASS, regex=True).explode()
    toks = toks[toks.astype(bool)]
    vc = toks.value_counts()
    return pd.DataFrame({"token": vc.index.to_numpy(dtype=object),
                         "n": vc.to_numpy().astype("int64")})


def token_counts(ds, text_col: str = "text"):
    """Global whitespace-token counts as a ``(token, n)`` Dataset —
    per-batch partials merged on one keyed exchange."""

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("token", as_index=False, sort=False)["n"].sum()

    return exchange(
        ds.map_batches(lambda df: _partial_counts(df, text_col),
                       batch_format="pandas"),
        "token", _merge, pa.schema({"token": pa.string(), "n": pa.int64()}))


def _doc_token_counts(df: pd.DataFrame, id_col: str,
                      text_col: str) -> pd.DataFrame:
    """Explode to per-document token counts ``(id, token, m)`` — the
    in-batch groupby keeps explode cardinality at distinct-(doc,
    token) rather than every occurrence."""
    if not len(df):
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "token": pd.Series([], dtype=object),
                             "m": pd.Series([], dtype="int64")})
    toks = (df.set_index(df[id_col].to_numpy())[text_col].fillna("")
            .str.split(_WS_CLASS, regex=True).explode())
    toks = toks[toks.astype(bool)]
    g = (toks.groupby([toks.index, toks.to_numpy()]).size()
         .rename("m").reset_index())
    g.columns = [id_col, "token", "m"]
    g["m"] = g["m"].astype("int64")
    return g


def _logp_terms(m: np.ndarray, c: np.ndarray, T: int, V: int,
                min_count: int) -> np.ndarray:
    """``m * ln p`` per (doc, token) row: add-one in-vocab prob for
    tokens with global count >= min_count, shared OOV mass below."""
    denom = float(T + V + 1)
    in_vocab = c >= min_count
    p = np.where(in_vocab, (c.astype("float64") + 1.0) / denom, 1.0 / denom)
    return m.astype("float64") * np.log(p)


def _round6(x):
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def doc_perplexity(ds, text_col: str = "text", id_col: str = "doc_id",
                   min_count: int = 2):
    """Per-document unigram log-perplexity ``(id_col, n_tokens,
    log_ppl)`` against the corpus-estimated LM (see module doc)."""
    import ray

    counts = token_counts(ds, text_col=text_col)
    # the only driver-side values: two scalars (and the path switch).
    # T counts EVERY token occurrence; V counts only vocabulary types
    # (global count >= min_count) — sub-threshold types share the one
    # OOV mass and do not widen the smoothing denominator.
    stats = counts.map_batches(
        lambda df: pd.DataFrame({
            "T": [int(df["n"].sum())],
            "V": [int((df["n"] >= min_count).sum())]}),
        batch_format="pandas",
    ).sum(["T", "V"])
    T, V = int(stats["sum(T)"]), int(stats["sum(V)"])

    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False, sort=False).agg(
            sum_logp=("_logp", "sum"), n_tokens=("m", "sum"))
        out = pd.DataFrame({id_col: g[id_col].to_numpy()})
        out["n_tokens"] = g["n_tokens"].astype("int64")
        n = g["n_tokens"].to_numpy().astype("float64")
        out["log_ppl"] = _round6(
            np.where(n > 0, -g["sum_logp"].to_numpy() / np.maximum(n, 1), 0.0)
        )
        return out

    if V <= BROADCAST_THRESHOLD:
        table = counts.to_pandas()
        ref = ray.put({
            "tok": table["token"].to_numpy(dtype=object),
            "n": table["n"].to_numpy().astype("int64"),
        })

        def _score(df: pd.DataFrame) -> pd.DataFrame:
            vocab = ray.get(ref)
            lut = pd.Series(vocab["n"], index=vocab["tok"])
            dtc = _doc_token_counts(df, id_col, text_col)
            c = lut.reindex(dtc["token"]).fillna(0).to_numpy().astype("int64")
            dtc["_logp"] = _logp_terms(dtc["m"].to_numpy(), c, T, V, min_count)
            res = _finalize(dtc).set_index(id_col)
            # token-less documents still get a row (n_tokens=0, 0.0)
            res = res.reindex(df[id_col].to_numpy())
            res["n_tokens"] = res["n_tokens"].fillna(0).astype("int64")
            res["log_ppl"] = res["log_ppl"].fillna(0.0)
            return res.reset_index(names=id_col)

        return ds.map_batches(_score, batch_format="pandas")

    # distributed path: token-keyed exchange, then doc-keyed
    def _doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = _doc_token_counts(df, id_col, text_col)
        # per-doc anchor (m=0, token='') so token-less documents still
        # reach _finalize
        anchor = pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "token": np.full(len(df), "", dtype=object),
            "m": np.zeros(len(df), dtype="int64"),
        })
        out = pd.concat([out, anchor], ignore_index=True)
        return out.assign(
            _k=spread_key(out, "token", out["m"].to_numpy() == 0, id_col))

    def _attach(docs: pd.DataFrame, vocab: pd.DataFrame) -> pd.DataFrame:
        if not len(docs):
            return None
        c = (pd.Series(vocab["n"].to_numpy(), index=vocab["token"])
             .reindex(docs["token"]).fillna(0).to_numpy().astype("int64")
             if len(vocab) else np.zeros(len(docs), dtype="int64"))
        return docs.assign(
            _logp=_logp_terms(docs["m"].to_numpy(), c, T, V, min_count))

    attached = exchange(
        [ds.map_batches(_doc_rows, batch_format="pandas"), counts],
        [["_k"], ["token"]], _attach,
        pa.schema({id_col: pa.int64(), **_ATTACHED}))
    return exchange(
        attached, id_col, _finalize,
        pa.schema({id_col: pa.int64(), "n_tokens": pa.int64(),
                   "log_ppl": pa.float64()}))


# ---------------------------------------------------------------------------
# Bigram LM — the distributed-by-construction sibling of doc_perplexity


def _doc_bigram_counts(df: pd.DataFrame, id_col: str,
                       text_col: str) -> pd.DataFrame:
    """Per-document bigram counts ``(id, w1, w2, m)`` — in-batch
    groupby keeps cardinality at distinct-(doc, bigram)."""
    empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                          "w1": pd.Series([], dtype=object),
                          "w2": pd.Series([], dtype=object),
                          "m": pd.Series([], dtype="int64")})
    if not len(df):
        return empty
    ids_out, w1_out, w2_out = [], [], []
    for did, txt in zip(df[id_col].to_numpy(),
                        df[text_col].fillna("").to_numpy()):
        toks = txt.split()
        if len(toks) < 2:
            continue
        ids_out.extend([did] * (len(toks) - 1))
        w1_out.extend(toks[:-1])
        w2_out.extend(toks[1:])
    if not ids_out:
        return empty
    raw = pd.DataFrame({id_col: np.asarray(ids_out, dtype=np.int64),
                        "w1": pd.Series(w1_out, dtype=object),
                        "w2": pd.Series(w2_out, dtype=object)})
    g = raw.groupby([id_col, "w1", "w2"], as_index=False, sort=False).size()
    g = g.rename(columns={"size": "m"})
    g["m"] = g["m"].astype("int64")
    return g


def doc_bigram_perplexity(ds, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Per-document add-one-smoothed BIGRAM log-perplexity
    ``(id_col, n_bigrams, log_ppl2)`` against the corpus-estimated
    bigram LM: ``p(w2 | w1) = (C(w1 w2) + 1) / (C1(w1) + V)`` where
    ``C1(w1)`` counts w1 as a bigram left context and ``V`` is the
    corpus distinct-token count; ``log_ppl2 = -(1/n) * sum ln p``
    (0.0 when a document has fewer than two tokens). Rounded
    half-away-from-zero to 6 dp for SQL ``round()`` parity.

    Scale shape: unlike the unigram LM there is no broadcast fallback
    — the bigram table is corpus-proportional BY CONSTRUCTION, so
    everything is keyed shuffles: one w1-keyed coarse-bucket pass
    merges partial bigram counts AND derives the context totals
    ``C1`` inside the same bucket (every (w1, *) row co-locates), a
    two-input exchange attaches log-probs to per-doc bigram counts in that
    same pass, and a doc-keyed pass re-aggregates documents. The only
    driver-side value is the scalar ``V`` (from ``token_counts``).
    Hot contexts skew buckets; the in-bucket merge is vectorized and
    coarse buckets hold many contexts each, which bounds the skew a
    hot single KEY would otherwise cause.
    """
    V = int(token_counts(ds, text_col=text_col).count())

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        bc = _doc_bigram_counts(df, id_col, text_col)
        out = bc.groupby(["w1", "w2"], as_index=False, sort=False)["m"].sum()
        return out.rename(columns={"m": "n"})

    def _doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = _doc_bigram_counts(df, id_col, text_col)
        # per-doc anchor so token-poor documents still reach finalize
        anchor = pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "w1": np.full(len(df), "", dtype=object),
            "w2": np.full(len(df), "", dtype=object),
            "m": np.zeros(len(df), dtype="int64"),
        })
        out = pd.concat([out, anchor], ignore_index=True)
        return out.assign(
            _k=spread_key(out, "w1", out["m"].to_numpy() == 0, id_col))

    def _attach(docs: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        if not len(docs):
            return None
        m = docs["m"].to_numpy()
        if len(part):
            c2 = part.groupby(["w1", "w2"], sort=False)["n"].sum()
            c1 = part.groupby("w1", sort=False)["n"].sum()
            key = pd.MultiIndex.from_arrays([docs["w1"], docs["w2"]])
            n2 = c2.reindex(key).fillna(0).to_numpy().astype("float64")
            n1 = c1.reindex(docs["w1"]).fillna(0).to_numpy().astype("float64")
        else:
            n2 = n1 = np.zeros(len(docs))
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = m.astype("float64") * np.log((n2 + 1.0) / (n1 + float(V)))
        return docs.assign(_logp=np.where(m > 0, lp, 0.0))

    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False, sort=False).agg(
            sum_logp=("_logp", "sum"), n_bigrams=("m", "sum"))
        out = pd.DataFrame({id_col: g[id_col].to_numpy()})
        out["n_bigrams"] = g["n_bigrams"].astype("int64")
        n = g["n_bigrams"].to_numpy().astype("float64")
        out["log_ppl2"] = _round6(
            np.where(n > 0, -g["sum_logp"].to_numpy() / np.maximum(n, 1),
                     0.0))
        return out

    attached = exchange(
        [ds.map_batches(_doc_rows, batch_format="pandas"),
         ds.map_batches(_partials, batch_format="pandas")],
        [["_k"], ["w1"]], _attach,
        pa.schema({id_col: pa.int64(), **_ATTACHED}))
    return exchange(
        attached, id_col, _finalize,
        pa.schema({id_col: pa.int64(), "n_bigrams": pa.int64(),
                   "log_ppl2": pa.float64()}))
