"""Training-window text chunking.

Splits each document into fixed-size token windows with overlap — the
standard pretraining-data shaping step between curation and
tokenization. Chunk boundaries are whitespace-token indices (same
tokenization as ``textstats``/``lm``), so the op is fully
deterministic and SQL-replayable (the ``doc_chunks`` oracle slices
the same token arrays in DuckDB).

One ``map_batches`` pass, rows out = chunks: per-batch the token
lists explode through numpy repeat/slice arithmetic — no per-document
Python loop. Chunking is embarrassingly parallel (no shuffle), so it
streams at any corpus scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .textstats import _WS_CLASS


def chunk_text(batch: pd.DataFrame, chunk_tokens: int = 256,
               overlap: int = 32, text_col: str = "text",
               id_col: str = "doc_id", drop_empty: bool = True,
               ) -> pd.DataFrame:
    """``(id_col, chunk_id, chunk_text, n_tokens)`` rows; chunk i
    covers tokens ``[i*stride, i*stride + chunk_tokens)`` with
    ``stride = chunk_tokens - overlap``. The final window is emitted
    only if it starts before the end of the document (no empty tail
    windows); documents shorter than one window yield one chunk.
    ``drop_empty=False`` keeps token-less documents as one empty
    chunk."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("need 0 <= overlap < chunk_tokens")
    stride = chunk_tokens - overlap

    s = batch[text_col].fillna("").reset_index(drop=True)
    ids = batch[id_col].reset_index(drop=True)
    # single-space-normalized text per doc + vectorized token char
    # offsets, so each chunk below is one O(len) char slice — no
    # per-chunk join, no per-token Python
    norm = (s.str.strip().str.replace(_WS_CLASS, " ", regex=True))
    ex = norm.str.split(" ").explode()
    ex = ex[ex != ""]
    tok_len = ex.str.len().to_numpy().astype("int64")
    tok_doc = ex.index.to_numpy().astype("int64")
    n_tok = np.zeros(len(s), dtype="int64")
    if len(tok_doc):
        np.add.at(n_tok, tok_doc, 1)
    doc_base = np.cumsum(n_tok) - n_tok  # flat index of doc's token 0
    # char start of each token within its doc's normalized text
    csum = np.cumsum(tok_len + 1)
    tok_start = np.concatenate(([0], csum[:-1]))
    if len(tok_doc):
        tok_start = tok_start - tok_start[doc_base[tok_doc]]
    norm_arr = norm.str.strip(" ").to_numpy()

    # number of windows whose start < n (>=1 so empty docs survive
    # when drop_empty=False)
    n_chunks = np.maximum((n_tok + stride - 1) // stride, 1)
    starts_of = np.cumsum(n_chunks) - n_chunks
    total = int(n_chunks.sum())

    rep = np.repeat(np.arange(len(s)), n_chunks)
    chunk_id = (np.arange(total) - starts_of[rep]).astype("int64")
    lo = np.minimum(chunk_id * stride, n_tok[rep])
    hi = np.minimum(lo + chunk_tokens, n_tok[rep])
    lens = (hi - lo).astype("int64")

    flat_lo = doc_base[rep] + lo
    flat_last = doc_base[rep] + np.maximum(hi - 1, lo)
    char_lo = np.where(lens > 0, tok_start[np.minimum(
        flat_lo, len(tok_start) - 1 if len(tok_start) else 0)], 0)
    char_hi = np.where(
        lens > 0,
        tok_start[np.minimum(flat_last,
                             len(tok_start) - 1 if len(tok_start) else 0)]
        + (tok_len[np.minimum(flat_last, len(tok_len) - 1)]
           if len(tok_len) else 0),
        0,
    )
    texts = np.empty(total, dtype=object)
    for j in range(total):  # one C-level char slice per chunk
        texts[j] = norm_arr[rep[j]][char_lo[j]:char_hi[j]]

    out = pd.DataFrame({
        id_col: ids.to_numpy()[rep],
        "chunk_id": chunk_id,
        "chunk_text": texts,
        "n_tokens": lens,
    })
    if drop_empty:
        out = out[out["n_tokens"] > 0].reset_index(drop=True)
    return out


def chunk_documents(ds, chunk_tokens: int = 256, overlap: int = 32,
                    text_col: str = "text", id_col: str = "doc_id",
                    drop_empty: bool = True):
    """Dataset form of :func:`chunk_text` — one stateless
    ``map_batches`` pass, no shuffle."""
    return ds.map_batches(
        lambda df: chunk_text(df, chunk_tokens=chunk_tokens,
                              overlap=overlap, text_col=text_col,
                              id_col=id_col, drop_empty=drop_empty),
        batch_format="pandas",
    )


def pack_sequences(ds, seq_len: int, id_col: str = "doc_id",
                   text_col: str = "text", num_ranges: int = 64):
    """GPT-style concat-and-split sequence packing: the corpus'
    whitespace tokens, concatenated in ``id_col`` order, are split
    into fixed ``seq_len`` windows; documents straddle window
    boundaries (no padding waste). Emits one row per (document,
    sequence) overlap: ``(id_col, seq_id, n_tokens)`` — the layout a
    trainer needs to slice each doc's tokens into its sequences.

    The global token prefix sum is computed distributively:

    1. a slim ``(id, n_tokens)`` pass (text never leaves it);
    2. ids are range-partitioned on sampled quantile bounds (bounds
       only affect load balance — correctness comes from the totals);
    3. per-range token totals reduce to the driver (``num_ranges``
       ints) and become running range offsets;
    4. each range task sorts its slim rows by id, adds its offset to
       a local cumsum, and emits the straddle spans vectorized.

    Nothing corpus-sized ever lands on the driver; the only wide op
    is the coarse range shuffle of the slim table. Partitioning
    assumption: one range's slim rows fit in one task — raise
    ``num_ranges`` for bigger corpora (driver cost stays
    ``num_ranges`` ints). ``id_col`` must be numeric (the range
    partition compares ids as float64; the order-defining sort is
    exact — float rounding near a bound only shifts which range a
    doc lands in, monotonically, never the global order)."""
    import pyarrow as pa

    from ..core.exchange import bucketed_group_apply
    from .agg import approx_quantiles, grouped_agg_small

    def _slim(df: pd.DataFrame) -> pd.DataFrame:
        from .textstats import whitespace_token_counts

        return pd.DataFrame(
            {
                id_col: df[id_col],
                "n_tokens": whitespace_token_counts(df[text_col]),
            }
        )

    # materialized so tokenization runs once for the totals pass and
    # once-shuffled spans pass share it (2 ints/doc; spills if huge)
    slim = ds.map_batches(_slim, batch_format="pandas").materialize()

    qs = [i / num_ranges for i in range(1, num_ranges)]
    bounds = np.array(
        [b for b in approx_quantiles(slim, id_col, qs) if not np.isnan(b)],
        dtype=float,
    )
    bounds = np.unique(bounds)

    def _rng(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_range"] = np.searchsorted(
            bounds, df[id_col].to_numpy().astype(float), side="right"
        ).astype(np.int64)
        return df

    ranged = slim.map_batches(_rng, batch_format="pandas")
    totals = grouped_agg_small(
        ranged, ["_range"], {"tok": ("n_tokens", "sum")}
    ).to_pandas().sort_values("_range", ignore_index=True)
    run = totals["tok"].cumsum() - totals["tok"]
    offsets = dict(zip(totals["_range"].astype(int), run.astype(int)))

    def _spans(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col, ignore_index=True)
        n = g["n_tokens"].to_numpy()
        start = offsets[int(g["_range"].iloc[0])] + np.concatenate(
            ([0], np.cumsum(n)[:-1])
        )
        nz = n > 0
        n, start, ids = n[nz], start[nz], g[id_col].to_numpy()[nz]
        s0 = start // seq_len
        s1 = (start + n - 1) // seq_len
        reps = (s1 - s0 + 1).astype(np.int64)
        total = int(reps.sum())
        k = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
        seq = np.repeat(s0, reps) + k
        st = np.repeat(start, reps)
        en = np.repeat(start + n, reps)
        lo = np.maximum(seq * seq_len, st)
        hi = np.minimum((seq + 1) * seq_len, en)
        return pd.DataFrame(
            {
                id_col: np.repeat(ids, reps),
                "seq_id": seq.astype("int64"),
                "n_tokens": (hi - lo).astype("int64"),
            }
        )

    return bucketed_group_apply(
        ranged, ["_range"], _spans,
        lambda sch: pa.schema([sch.field(id_col),
                               pa.field("seq_id", pa.int64()),
                               pa.field("n_tokens", pa.int64())]),
        min(num_ranges, 64))
