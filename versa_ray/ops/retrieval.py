"""Sparse (lexical) retrieval over a text corpus: BM25 top-k search.

A training-data pipeline needs it for keyword retrieval and
benchmark-query mining.

Design (Ray-Data-first, no inverted index materialized):

* The query set is tiny and the term vocabulary it touches is
  bounded, so everything corpus-sized stays inside ``map_batches``:

  - **stats pass** — one streaming pass emits per-batch partial
    rows (per-term document frequency + corpus doc count / token
    count); a two-phase ``grouped_agg_small`` reduce (the term set
    is bounded by the queries, never corpus vocabulary) yields
    ``N``, ``avgdl`` and ``df`` per query term.
  - **score pass** — ``(idf, avgdl, query term lists)`` broadcast
    once via ``ray.put``; each batch computes per-term tf with
    vectorized pandas ``str.count`` kernels (loop over the bounded
    term set, never over rows), BM25-scores all queries with numpy,
    and emits its LOCAL top-k per query. A final tiny per-query
    merge ranks ``queries x k x blocks`` rows — the only data that
    ever leaves the corpus stream.

Tokenizer contract (shared with the DuckDB oracle): tokens are
maximal runs of ``[a-z0-9]`` on the lowercased text; everything else
is a separator. BM25 uses the Lucene idf variant
``ln((N - df + 0.5)/(df + 0.5) + 1)`` (always positive) with
``k1=1.2, b=0.75``; duplicate terms within one query count once.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.dsutil import write_parquet_plain
from ..core.exchange import bucketed_group_apply

_TOKEN_RUN = r"[a-z0-9]+"


def tokenize(text: str) -> list[str]:
    """Driver-side tokenizer (query strings, tests)."""
    return re.findall(_TOKEN_RUN, (text or "").lower())


def _term_pattern(term: str) -> str:
    # whole-token match on the raw lowercased text: the token must not
    # be flanked by other token characters
    return r"(?<![a-z0-9])" + re.escape(term) + r"(?![a-z0-9])"


def corpus_term_stats(ds, terms, text_col="text"):
    """One streaming pass: per-term document frequency over ``terms``
    plus corpus doc count and total token count. Returns
    ``(n_docs, avgdl, {term: df})`` — driver-side result is bounded
    by ``len(terms)``, never corpus vocabulary."""
    from .agg import grouped_agg_small

    terms = sorted(set(terms))
    pats = {t: _term_pattern(t) for t in terms}

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        low = df[text_col].fillna("").str.lower()
        dl = low.str.count(_TOKEN_RUN)
        rows = {"term": [""], "df": [0],
                "docs": [len(df)], "toklen": [int(dl.sum())]}
        for t in terms:
            rows["term"].append(t)
            rows["df"].append(int((low.str.count(pats[t]) > 0).sum()))
            rows["docs"].append(0)
            rows["toklen"].append(0)
        return pd.DataFrame(rows)

    agg = grouped_agg_small(
        ds.map_batches(_partial, batch_format="pandas"),
        ["term"],
        {"df": ("df", "sum"), "docs": ("docs", "sum"),
         "toklen": ("toklen", "sum")},
    ).to_pandas()
    corpus = agg[agg["term"] == ""]
    n_docs = int(corpus["docs"].sum())
    total_len = int(corpus["toklen"].sum())
    avgdl = (total_len / n_docs) if n_docs else 0.0
    df_map = {
        r.term: int(r.df) for r in agg[agg["term"] != ""].itertuples()
    }
    return n_docs, avgdl, df_map


def bm25_search(ds, queries, k=10, k1=1.2, b=0.75, text_col="text",
                id_col="doc_id", round_to=9):
    """Top-k BM25 retrieval for each query string in ``queries``.

    Returns a Dataset of ``(qid, doc_id, rank)`` — qid is the query's
    index in ``queries``, rank 1..k by score desc (scores rounded to
    ``round_to`` decimals before ranking, ties broken by doc_id asc).
    Only docs matching at least one query term are ranked."""
    import ray

    qterms = [sorted(set(tokenize(q))) for q in queries]
    vocab = sorted({t for ts in qterms for t in ts})
    if not vocab:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {"qid": pd.Series([], dtype="int64"),
             "doc_id": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64")}))

    n_docs, avgdl, df_map = corpus_term_stats(ds, vocab, text_col)
    idf = {
        t: float(np.log((n_docs - df_map.get(t, 0) + 0.5)
                        / (df_map.get(t, 0) + 0.5) + 1.0))
        for t in vocab
    }
    bref = ray.put({"idf": idf, "qterms": qterms, "avgdl": float(avgdl)})
    pats = {t: _term_pattern(t) for t in vocab}

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        bc = ray.get(bref)
        low = df[text_col].fillna("").str.lower()
        ids = df[id_col].to_numpy()
        dl = low.str.count(_TOKEN_RUN).to_numpy(dtype=np.float64)
        ad = bc["avgdl"] or 1.0
        denom_base = k1 * (1.0 - b + b * dl / ad)
        tf = {t: low.str.count(p).to_numpy(dtype=np.float64)
              for t, p in pats.items()}
        out = {"qid": [], "doc_id": [], "score": []}
        for qid, ts in enumerate(bc["qterms"]):
            score = np.zeros(len(df))
            for t in ts:
                tft = tf[t]
                score += bc["idf"][t] * tft * (k1 + 1.0) / (tft + denom_base)
            hit = np.flatnonzero(score > 0)
            if not len(hit):
                continue
            # truncate with the SAME comparator as the final merge
            # (rounded score desc, doc_id asc) — an argpartition on
            # raw scores could drop the tie-breaking lowest doc_id at
            # the block boundary, which the merge can never recover
            part = hit[np.lexsort((ids[hit], -score[hit].round(round_to)))]
            part = part[:k]
            out["qid"].extend([qid] * len(part))
            out["doc_id"].extend(ids[part].tolist())
            out["score"].extend(score[part].tolist())
        if not out["qid"]:
            return pd.DataFrame(
                {"qid": pd.Series([], dtype="int64"),
                 "doc_id": pd.Series([], dtype="int64"),
                 "score": pd.Series([], dtype="float64")})
        o = pd.DataFrame(out)
        o["qid"] = o["qid"].astype("int64")
        o["doc_id"] = o["doc_id"].astype("int64")
        return o

    partials = ds.map_batches(_local_topk, batch_format="pandas")

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.copy()
        g["score"] = g["score"].round(round_to)
        g = g.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(k)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return bucketed_group_apply(
        partials, ["qid"], _merge,
        pa.schema({"qid": pa.int64(), "doc_id": pa.int64(),
                   "rank": pa.int64()}))


def tfidf_keywords(ds, top_m=3, text_col="text", id_col="doc_id", round_to=9):
    """Top-m TF-IDF keywords per document: ``(doc_id, term, rank)``.

    Unlike BM25 the vocabulary here is CORPUS-cardinality, so df
    cannot be broadcast — the design is two keyed exchanges:

    1. Per-doc term frequencies are exact within the batch (a doc is
       one row), so the first shuffle keys on **term**: every
       (doc, term, tf) row for a term lands in one bucket, giving the
       global df(term) as an in-bucket group size AND attaching it to
       the doc rows in the same pass — no separate df aggregation or
       join stage.
    2. The second shuffle keys on **doc_id** for the per-doc top-m.

    Score = (tf / doc_len) * ln(N / df); rounded to ``round_to``
    decimals before ranking, ties by term asc. N (corpus row count)
    comes from dataset metadata, not a data pass."""
    n_docs = float(ds.count())

    def _doc_terms(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        low = df[text_col].fillna("").str.lower()
        toks = low.str.findall(_TOKEN_RUN)
        dl = toks.str.len().to_numpy(dtype=np.int64)
        e = toks.explode().dropna()
        if not len(e):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "term": pd.Series([], dtype=object),
                 "tf": pd.Series([], dtype="int64"),
                 "dl": pd.Series([], dtype="int64")})
        tf = (
            pd.DataFrame({"pos": e.index.to_numpy(), "term": e.to_numpy()})
            .groupby(["pos", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        ids = df[id_col].to_numpy()
        pos = tf["pos"].to_numpy()
        return pd.DataFrame(
            {"doc_id": ids[pos], "term": tf["term"].to_numpy(),
             "tf": tf["tf"].to_numpy(dtype=np.int64), "dl": dl[pos]})

    doc_terms = ds.map_batches(_doc_terms, batch_format="pandas")

    def _score_term_group(group: pd.DataFrame) -> pd.DataFrame:
        # all rows for this term are here: group size IS the global df
        df_t = float(len(group))
        g = group.copy()
        g["score"] = (
            g["tf"].to_numpy(dtype=np.float64)
            / g["dl"].to_numpy(dtype=np.float64)
            * np.log(n_docs / df_t)
        )
        return g

    scored = bucketed_group_apply(
        doc_terms, ["term"], _score_term_group,
        lambda sch: pa.schema([sch.field("doc_id"), sch.field("term"),
                               ("score", pa.float64())]))

    def _topm(group: pd.DataFrame) -> pd.DataFrame:
        g = group.copy()
        g["score"] = g["score"].round(round_to)
        g = g.sort_values(["score", "term"], ascending=[False, True]).head(
            top_m)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return bucketed_group_apply(
        scored, ["doc_id"], _topm,
        lambda sch: pa.schema([sch.field("doc_id"), sch.field("term"),
                               ("rank", pa.int64())]))


def _stable_term_bucket(values: "pd.Series", num_buckets: int) -> np.ndarray:
    """Process-stable hash bucket of a term series — same convention
    as the link store's partition hash (``model/store.py``): pandas'
    fixed-key 64-bit string hash, vectorized, no randomization."""
    h = pd.util.hash_pandas_object(
        values.astype(str).reset_index(drop=True), index=False
    )
    return (h % num_buckets).astype("int32").to_numpy()


def build_inverted_index(ds, index_dir, num_term_buckets=64,
                         text_col="text", id_col="doc_id"):
    """Materialize an inverted index (term -> postings with term
    frequency) as term-bucket Hive-partitioned Parquet.

    ``bm25_search``/``tfidf_keywords`` deliberately avoid an index
    (one-shot scans); this is the REPEATED-lookup sibling: pay one
    pass now, answer term probes later by opening only the probed
    buckets.

    Shuffle-free by construction: each document lives wholly inside
    one input row, so a per-batch ``groupby([doc, term])`` is already
    the globally exact term frequency — no cross-batch combine ever
    runs. The single streaming pass tokenizes (vectorized
    ``str.findall`` on the lowercased text — the shared
    ``[a-z0-9]+`` tokenizer contract), explodes via ``repeat`` (no
    Python row loop), reduces to ``(doc, term, tf)`` and writes one
    directory per ``term_bucket=N`` — a failed build resumes per
    partition, and 100-TB scale changes bucket COUNT, not the plan.

    Lookup cost: ``len(probe_bucket_set) / num_term_buckets`` of the
    index's bytes, independent of corpus size per bucket count.
    """
    import json
    import os

    def _postings(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RUN)
        n = toks.str.len().to_numpy()
        flat = pd.DataFrame({
            id_col: df[id_col].to_numpy().repeat(n),
            "term": np.concatenate(
                [np.asarray(t, dtype=object) for t in toks]
                + [np.array([], dtype=object)]
            ),
        })
        out = (
            flat.groupby([id_col, "term"], sort=False)
            .size()
            .rename("tf")
            .reset_index()
        )
        out["tf"] = out["tf"].astype("int64")
        out["term_bucket"] = _stable_term_bucket(
            out["term"], num_term_buckets)
        return out

    write_parquet_plain(ds.map_batches(_postings, batch_format="pandas"),
                        index_dir, ["term_bucket"])
    with open(os.path.join(index_dir, "_invidx_meta.json"), "w") as f:
        json.dump({"num_term_buckets": int(num_term_buckets),
                   "id_col": id_col}, f)
    return index_dir


def lookup_postings(index_dir, terms, id_col=None):
    """Pruned postings probe: read ONLY the Hive partitions whose
    bucket some probe term hashes to, then the exact term mask inside
    ``map_batches``. Returns a Dataset of ``(id, term, tf)``."""
    import json
    import os

    import ray.data as rd

    with open(os.path.join(index_dir, "_invidx_meta.json")) as f:
        meta = json.load(f)
    if id_col is None:
        id_col = meta["id_col"]
    probe = sorted({t for t in terms})
    buckets = sorted(set(
        _stable_term_bucket(
            pd.Series(probe, dtype=object), meta["num_term_buckets"]
        ).tolist()
    ))
    dirs = [os.path.join(index_dir, f"term_bucket={b}") for b in buckets]
    # explicit file list (read_parquet takes dirs singly, not in a
    # list) — same driver-side path pruning the link store uses
    files = [
        os.path.join(d, f)
        for d in dirs if os.path.isdir(d)
        for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]
    cols = [id_col, "term", "tf"]
    if not files:
        return rd.from_pandas(pd.DataFrame(
            {id_col: pd.Series([], dtype="int64"),
             "term": pd.Series([], dtype=object),
             "tf": pd.Series([], dtype="int64")}))
    import pyarrow as pa
    import pyarrow.compute as pc

    probe_arr = pa.array(probe, type=pa.string())

    def _mask(tbl: "pa.Table") -> "pa.Table":
        # Arrow-native mask: zero-copy batches, and the schema
        # survives all-empty blocks (a pandas block would come back
        # column-less)
        keep = pc.is_in(tbl.column("term"), value_set=probe_arr)
        return tbl.select(cols).filter(keep)

    return rd.read_parquet(files, columns=cols).map_batches(
        _mask, batch_format="pyarrow")
