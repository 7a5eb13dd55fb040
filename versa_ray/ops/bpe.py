"""Distributed BPE tokenizer training + encoding on Ray Data.

Classic byte-pair-encoding merge learning (Sennrich, Haddow & Birch
2016, "Neural Machine Translation of Rare Words with Subword Units" —
public algorithm) re-expressed Ray-Data-first:

- ``word_freqs``: one corpus pass (vectorized ``str.findall`` with the
  repo's shared ``[a-z0-9]+`` lowercase tokenizer contract) reduces to
  the DISTINCT-WORD frequency table on a coarse word-hash bucket
  shuffle.  By Heap's law that table is vocabulary-sized, not
  corpus-sized, so it is the only thing the merge loop ever touches —
  at 10^12 documents the corpus is read exactly once.
- ``train_bpe``: each merge round is one ``map_batches`` pass over the
  (distributed, materialized-in-object-store) word table emitting
  partial pair counts, one coarse PAIR-hash bucket shuffle summing
  them, a per-bucket top-1, and a driver argmax over <= num_buckets
  candidate rows.  Nothing vocabulary- or corpus-sized ever lands on
  the driver; per-round driver traffic is ``num_buckets`` rows.
- ``encode_bpe``: one corpus pass on an actor pool; each actor applies
  the (broadcast, tiny) merge list to the batch's DISTINCT words with
  a cross-batch memo, then maps counts back through the word
  multiplicities.

Replayable contract (the DuckDB oracles rely on these exact choices —
see ``queries.py`` ``doc_bpe_merges`` / ``doc_bpe_tokens``):

- pre-tokenizer: ``[a-z0-9]+`` on the lowercased text (the shared
  tokenizer contract used by BM25/TF-IDF/postings);
- a word's initial symbol string is its characters joined by a single
  space plus a trailing ``</w>`` end-of-word marker, padded with one
  leading and one trailing space (``"abc"`` -> ``" a b c </w> "``);
- applying merge ``(lhs, rhs)`` rewrites ``" lhs rhs "`` ->
  ``" lhs||rhs "`` LEFTMOST-NON-OVERLAPPING on that padded string —
  exactly ``str.replace`` semantics, which SQL ``replace()`` shares,
  and exactly the reference greedy BPE behavior on runs like
  ``a a a`` -> ``aa a``;
- the round winner is the pair with the highest corpus frequency,
  ties broken by lexicographically smallest ``(lhs, rhs)`` (ASCII
  binary collation — symbols are drawn from ``[a-z0-9]`` and the
  marker, where Python and DuckDB default collation agree).

No reference counterpart: Versa has no tokenizer machinery; this is
part of the training-data-pipeline surface the engine adds.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

_TOKEN_RUN = re.compile(r"[a-z0-9]+")
_EOW = "</w>"


def spaced(word: str) -> str:
    """A word's initial padded symbol string: ``"ab"`` -> ``" a b </w> "``."""
    return " " + " ".join(word) + " " + _EOW + " "


def word_freqs(ds, text_col: str = "text", num_buckets: int = 32):
    """Distinct-word frequency Dataset ``(word, freq)`` over the shared
    ``[a-z0-9]+`` lowercase tokenizer contract.  Per-batch vectorized
    partial counts; each word's total is summed inside its coarse hash
    bucket so a word never spans reducers."""
    from ..core.exchange import exchange

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "freq": pd.Series([], dtype="int64")})
        toks = df[text_col].fillna("").str.lower().str.findall(
            _TOKEN_RUN).explode().dropna()
        vc = toks.value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object),
                             "freq": vc.to_numpy().astype("int64")})

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("word", as_index=False)["freq"].sum()

    return exchange(
        ds.map_batches(_partial, batch_format="pandas"), "word", _sum,
        pa.schema({"word": pa.string(), "freq": pa.int64()}), num_buckets)


def _pair_partials(df: pd.DataFrame) -> pd.DataFrame:
    """Adjacent-symbol pair counts (weighted by word freq) for one
    batch of the word table.  The loop is over DISTINCT words (the
    vocabulary table), never corpus rows; each word is a handful of
    symbols."""
    empty = pd.DataFrame({"lhs": pd.Series([], dtype=object),
                          "rhs": pd.Series([], dtype=object),
                          "n": pd.Series([], dtype="int64")})
    if not len(df):
        return empty
    counts: dict[tuple[str, str], int] = {}
    for sym, freq in zip(df["sym"].to_numpy(), df["freq"].to_numpy()):
        parts = sym.split()
        for i in range(len(parts) - 1):
            key = (parts[i], parts[i + 1])
            counts[key] = counts.get(key, 0) + int(freq)
    if not counts:
        return empty
    items = list(counts.items())
    return pd.DataFrame({
        "lhs": np.array([k[0] for k, _ in items], dtype=object),
        "rhs": np.array([k[1] for k, _ in items], dtype=object),
        "n": np.array([v for _, v in items], dtype="int64"),
    })


def _merges_df(merges: list[tuple[int, str, str, int]]) -> pd.DataFrame:
    return pd.DataFrame(merges, columns=["rank", "lhs", "rhs", "n"]).astype(
        {"rank": "int64", "n": "int64"})


def _train_driver(wdf: pd.DataFrame, num_merges: int) -> pd.DataFrame:
    """Driver-side merge loop over a vocabulary table that fits in the
    driver (the classic in-memory algorithm — zero Ray jobs per round;
    same contract as the distributed path, equality-tested)."""
    syms = wdf["sym"].to_numpy(dtype=object)
    freqs = wdf["freq"].to_numpy()
    merges: list[tuple[int, str, str, int]] = []
    for rank in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for sym, freq in zip(syms, freqs):
            parts = sym.split()
            for i in range(len(parts) - 1):
                key = (parts[i], parts[i + 1])
                counts[key] = counts.get(key, 0) + int(freq)
        if not counts:
            break
        (lhs, rhs), n = min(
            counts.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((rank, lhs, rhs, n))
        pat, rep = f" {lhs} {rhs} ", f" {lhs}{rhs} "
        syms = np.array([s.replace(pat, rep) for s in syms], dtype=object)
    return _merges_df(merges)


def train_bpe(ds, num_merges: int, text_col: str = "text",
              num_buckets: int = 32,
              driver_vocab_threshold: int = 200_000,
              flush_every: int = 4) -> pd.DataFrame:
    """Learn ``num_merges`` BPE merges from a document corpus.

    Returns a small driver-side DataFrame ``(rank, lhs, rhs, n)`` in
    merge order — the tokenizer model (merge lists are a few KB even
    for 50k-merge production vocabularies, so driver residence is the
    right home for the MODEL).  Stops early (fewer rows) if the
    corpus runs out of adjacent pairs.

    Path switch (the ops/lm.py broadcast-threshold idiom): the corpus
    is always reduced distributed to the vocabulary-sized word table
    first; if that table has <= ``driver_vocab_threshold`` rows the
    merge loop runs DRIVER-SIDE on it (the classic in-memory
    algorithm — zero per-round Ray jobs), otherwise every round stays
    distributed: one pass over the word table emitting pair partials
    (with up to ``flush_every`` pending merges applied on the fly,
    so the table is re-materialized only every few rounds), one
    pair-bucket shuffle, <= num_buckets candidate rows to the driver.
    Both paths share the contract bit-exactly (equality pytest)."""
    from ..core.exchange import exchange

    wf = word_freqs(ds, text_col=text_col, num_buckets=num_buckets)

    def _to_sym(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["sym"] = df["word"].map(spaced)
        return df[["word", "sym", "freq"]]

    # The word table is vocabulary-sized: materializing it in the
    # object store is what makes each round ONE pass instead of
    # re-executing the whole corpus scan num_merges times.
    words = wf.map_batches(_to_sym, batch_format="pandas").materialize()

    n_vocab = words.count()
    if n_vocab == 0:
        return _merges_df([])
    if n_vocab <= driver_vocab_threshold:
        return _train_driver(words.to_pandas(), num_merges)

    def _bucket_top1(df: pd.DataFrame) -> pd.DataFrame:
        totals = df.groupby(["lhs", "rhs"], as_index=False)["n"].sum()
        return totals.sort_values(
            ["n", "lhs", "rhs"], ascending=[False, True, True]).head(1)

    def _apply_many(reps):
        def _apply(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            s = df["sym"]
            for pat, rep in reps:
                s = s.str.replace(pat, rep, regex=False)
            df["sym"] = s
            return df
        return _apply

    merges: list[tuple[int, str, str, int]] = []
    pending: list[tuple[str, str]] = []  # merges not yet materialized
    for rank in range(num_merges):
        stage = words
        if pending:
            stage = stage.map_batches(
                _apply_many(list(pending)), batch_format="pandas")
        cands = exchange(
            stage.map_batches(_pair_partials, batch_format="pandas"),
            ["lhs", "rhs"], _bucket_top1,
            pa.schema({"lhs": pa.string(), "rhs": pa.string(),
                       "n": pa.int64()}), num_buckets,
        ).to_pandas()  # <= num_buckets rows by construction
        if not len(cands):
            break
        cands = cands.sort_values(
            ["n", "lhs", "rhs"], ascending=[False, True, True])
        lhs = str(cands["lhs"].iloc[0])
        rhs = str(cands["rhs"].iloc[0])
        n = int(cands["n"].iloc[0])
        merges.append((rank, lhs, rhs, n))
        pending.append((f" {lhs} {rhs} ", f" {lhs}{rhs} "))
        if len(pending) >= flush_every:
            words = words.map_batches(
                _apply_many(list(pending)),
                batch_format="pandas").materialize()
            pending = []

    return _merges_df(merges)


def apply_merges(word: str, merge_pairs: list[tuple[str, str]]) -> list[str]:
    """Driver-side / per-actor reference: BPE-encode one word by
    replaying the merge list in rank order (identical leftmost
    ``str.replace`` semantics as training)."""
    sym = spaced(word)
    for lhs, rhs in merge_pairs:
        sym = sym.replace(f" {lhs} {rhs} ", f" {lhs}{rhs} ")
    return sym.split()


class _BpeEncoder:
    """Actor-pool stage: per-doc BPE token counts under a trained
    merge list.  The merge list arrives via ``ray.put`` broadcast
    (read once per actor in ``__init__``, zero-copy); the word ->
    token-count memo is cross-batch per actor, so a hot vocabulary is
    encoded once per actor, not once per occurrence."""

    def __init__(self, merges_ref, text_col: str, id_col: str):
        import ray

        pairs = ray.get(merges_ref)
        self.pairs = [(str(l), str(r)) for l, r in pairs]
        self.text_col = text_col
        self.id_col = id_col
        self.memo: dict[str, int] = {}

    def _ntok(self, word: str) -> int:
        n = self.memo.get(word)
        if n is None:
            n = len(apply_merges(word, self.pairs))
            self.memo[word] = n
        return n

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = df[self.text_col].fillna("").str.lower().str.findall(
            _TOKEN_RUN)
        n_words = toks.str.len().astype("int64")
        for w in pd.unique(toks.explode().dropna()):
            self._ntok(w)
        memo = self.memo
        n_bpe = toks.map(
            lambda ws: sum(memo[w] for w in ws)).astype("int64")
        return pd.DataFrame({
            self.id_col: df[self.id_col].to_numpy(),
            "n_words": n_words.to_numpy(),
            "n_bpe_tokens": n_bpe.to_numpy(),
        })


def encode_bpe(ds, merges: pd.DataFrame, text_col: str = "text",
               id_col: str = "doc_id", concurrency: int | None = None):
    """Per-doc ``(id, n_words, n_bpe_tokens)`` under a trained merge
    table — one streaming corpus pass, merge model broadcast once.

    Default ``concurrency`` leaves two CPUs of headroom: a fixed
    actor pool that pins EVERY cluster CPU starves the upstream read
    tasks and deadlocks the streaming executor (observed at
    num_cpus=4 with concurrency=4)."""
    import ray

    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
        concurrency = max(1, min(8, ncpu - 2))
    pairs = list(zip(merges["lhs"].tolist(), merges["rhs"].tolist()))
    ref = ray.put(pairs)
    return ds.map_batches(
        _BpeEncoder, batch_format="pandas", concurrency=concurrency,
        fn_constructor_args=(ref, text_col, id_col))
