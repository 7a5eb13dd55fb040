"""Corpus-wide boilerplate line removal.

A line (exact text, non-blank) that occurs in at least ``min_docs``
DISTINCT documents is boilerplate — navigation chrome, cookie
banners, footers — and is removed from every document, which is then
reassembled with its remaining lines in original order.

Scale design (the 100-TB shape):

- Documents are exploded to ``(doc_id, pos, line)`` rows inside
  ``map_batches`` (numpy repeat/arange — no per-row Python loop).
- The boilerplate set is found with ONE line-cardinality shuffle:
  per-doc-distinct lines bucket on an int32 hash of the line (the
  shuffle KEY is never raw text) and each bucket counts distinct
  doc_ids per exact line text (collision-safe: the in-bucket group
  key is the line itself).
- Flagged lines join back to the exploded corpus by a two-input
  exchange on the line (second line-cardinality shuffle), then docs
  reassemble on a doc_id exchange (third, doc-cardinality).
- The corpus is scanned twice (once per branch of the flag join) —
  the standard two-pass trade; nothing corpus-cardinality ever
  reaches the driver, and the flag set itself stays distributed.
- Per-doc anchor rows guarantee every input document appears in the
  output even when all of its lines were boilerplate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import exchange, spread_key


def explode_lines(ds, id_col: str = "doc_id", text_col: str = "text",
                  with_anchor: bool = False):
    """``(id, pos, line)`` rows, one per '\\n'-separated line.

    ``with_anchor`` adds a ``pos=-1, line=''`` row per document so
    downstream reassembly can emit empty docs."""

    def _ex(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].fillna("")
        ids = df[id_col].to_numpy()
        lines = s.str.split("\n")
        counts = lines.str.len().to_numpy()
        total = int(counts.sum())
        flat = lines.explode().to_numpy() if total else np.empty(0, object)
        rep_ids = np.repeat(ids, counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        pos = (np.arange(total) - starts).astype("int64")
        out = pd.DataFrame({id_col: rep_ids, "pos": pos, "line": flat})
        if with_anchor:
            anchor = pd.DataFrame({
                id_col: ids,
                "pos": np.full(len(ids), -1, dtype="int64"),
                "line": np.full(len(ids), "", dtype=object),
            })
            out = pd.concat([anchor, out], ignore_index=True)
        return out

    return ds.map_batches(_ex, batch_format="pandas")


def boilerplate_lines(ds, min_docs: int = 10, id_col: str = "doc_id",
                      text_col: str = "text", num_buckets: int = 64):
    """Distinct non-blank lines occurring in >= ``min_docs`` distinct
    documents, as a (small) Dataset of ``line`` rows."""

    def _distinct(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["line"].str.strip() != ""]
        return df.drop_duplicates(subset=[id_col, "line"])[[id_col, "line"]]

    def _count(bucket: pd.DataFrame) -> pd.DataFrame:
        # rows are already per-(doc, line) distinct within a batch;
        # cross-batch repeats of the same doc's line can't occur
        # (a doc's text sits in one input row), so size() == distinct
        # doc count per exact line text
        c = bucket.groupby("line", sort=False).size()
        return pd.DataFrame({"line": c[c >= min_docs].index})

    lines = explode_lines(ds, id_col=id_col, text_col=text_col)
    return exchange(lines.map_batches(_distinct, batch_format="pandas"),
                    "line", _count, pa.schema({"line": pa.string()}),
                    num_buckets)


def remove_boilerplate(ds, min_docs: int = 10, id_col: str = "doc_id",
                       text_col: str = "text", out_col: str = "clean_text",
                       num_buckets: int = 64):
    """Remove corpus-wide boilerplate lines from every document.

    Returns ``(id_col, out_col)`` with each document's surviving lines
    re-joined by '\\n' in original order ('' when nothing survives).
    Blank lines are never boilerplate and always survive.
    ``id_col`` must be integer-typed."""

    flags = boilerplate_lines(ds, min_docs=min_docs, id_col=id_col,
                              text_col=text_col, num_buckets=num_buckets)

    def _keyed(df: pd.DataFrame) -> pd.DataFrame:
        # blank lines and anchors can never be flagged, so they don't
        # need to co-locate with any flag row — key them by doc id.
        # Keying them by line text would funnel every blank line in
        # the corpus (and one anchor per doc) into ONE group: a
        # doc-cardinality skew hotspot at scale.
        inert = (df["pos"].to_numpy() < 0) | \
            (df["line"].str.strip() == "").to_numpy()
        return df.assign(_k=spread_key(df, "line", inert, id_col))

    def _filter(lines: pd.DataFrame, flags: pd.DataFrame) -> pd.DataFrame:
        if not len(lines) or not len(flags):
            return lines
        return lines[~lines["line"].isin(set(flags["line"]))]

    def _reassemble(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values([id_col, "pos"], kind="stable")
        ids = bucket[id_col].unique()
        real = bucket[bucket["pos"] >= 0]
        joined = real.groupby(id_col, sort=False)["line"].agg("\n".join)
        out = pd.DataFrame({id_col: ids})
        out[out_col] = out[id_col].map(joined).fillna("")
        return out

    lines = explode_lines(ds, id_col=id_col, text_col=text_col,
                          with_anchor=True)
    kept = exchange(
        [lines.map_batches(_keyed, batch_format="pandas"), flags],
        [["_k"], ["line"]], _filter,
        pa.schema({id_col: pa.int64(), "pos": pa.int64(),
                   "line": pa.string()}), num_buckets)
    return exchange(kept, id_col, _reassemble,
                    pa.schema({id_col: pa.int64(), out_col: pa.string()}),
                    num_buckets)
