"""Text analysis operators for large-scale corpus pipelines.

All stages are vectorized ``map_batches`` transforms (pandas string
kernels / numpy); language ID holds its n-gram profiles in an
actor-pool class so profile setup happens once per actor.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

_WORD_RE = re.compile(r"\S+")
_ALPHA_RE = re.compile(r"[A-Za-z]")
_DIGIT_RE = re.compile(r"[0-9]")
# A BPE-ish token split: word pieces, numbers, punctuation runs
_BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")

STOPWORDS = frozenset(
    "the a an and or of to in on for with at by from is are was were be been "
    "it this that as not no but if then else".split()
)


def whitespace_token_counts(s: pd.Series) -> pd.Series:
    """Whitespace token count per value — THE engine-wide ``n_tokens``
    definition (token_stats, token_budget_sample, pack_sequences all
    share it, and every SQL oracle replays it as
    ``len(regexp_split_to_array(trim(text), '\\s+'))``)."""
    return s.fillna("").str.count(_WORD_RE).astype("int64")


def token_stats(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """doc stats: whitespace tokens, BPE-ish tokens, chars, digits."""
    s = batch[text_col].fillna("")
    batch["n_chars"] = s.str.len().astype("int64")
    batch["n_tokens"] = whitespace_token_counts(s)
    batch["n_bpe_tokens"] = s.str.count(_BPE_RE).astype("int64")
    batch["n_digits"] = s.str.count(_DIGIT_RE).astype("int64")
    return batch


def quality_scores(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Heuristic quality features: stopword ratio, mean token length,
    uppercase ratio, punctuation ratio."""
    s = batch[text_col].fillna("")
    toks = s.str.findall(_WORD_RE)
    ntok = toks.str.len().clip(lower=1)
    batch["stopword_ratio"] = toks.map(
        lambda ws: sum(1 for w in ws if w.lower() in STOPWORDS)
    ) / ntok
    batch["mean_token_len"] = toks.map(lambda ws: float(np.mean([len(w) for w in ws])) if ws else 0.0)
    n = s.str.len().clip(lower=1)
    batch["upper_ratio"] = s.str.count(r"[A-Z]") / n
    batch["punct_ratio"] = s.str.count(r"[^\w\s]") / n
    return batch


def md5_fingerprint(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Exact-content fingerprint, identical to SQL md5()."""
    batch["fp_md5"] = [
        hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch[text_col].fillna("")
    ]
    return batch


def rolling_fingerprint(text: str, window: int = 8, keep_mod: int = 16) -> list[int]:
    """Winnowing-style document fingerprint: Rabin-Karp rolling hash of
    byte windows, keeping hashes ≡ 0 (mod keep_mod). Content-local, so
    shared passages produce shared fingerprints (doc sketching)."""
    data = text.encode("utf-8")
    if len(data) < window:
        return []
    B, M = 257, (1 << 61) - 1
    h = 0
    pw = pow(B, window - 1, M)
    out = []
    for i, b in enumerate(data):
        if i >= window:
            h = (h - data[i - window] * pw) % M
        h = (h * B + b) % M
        if i >= window - 1 and h % keep_mod == 0:
            out.append(h)
    return out


class LangID:
    """Character-n-gram language identifier (actor-pool stage).

    Tiny built-in trigram profiles (deterministic, no model files);
    profiles are compiled once per actor in __init__.
    """

    PROFILES = {
        "en": "the and ing ion to of in is it as at on he re er an nd ed",
        "fr": "le la les de des et est une un que qui dans pour sur ois",
        "de": "der die das und ist ein ich nicht sch den von mit ung che",
        "es": "el la los de que y en un una es por con para cion ado",
        "ig": "nke na ya ndi chi nwa oma obi anyi unu gi di ka ihe nna",
    }

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.profiles = {}
        for lang, words in self.PROFILES.items():
            grams = set()
            for w in words.split():
                padded = " %s " % w
                grams.update(padded[i : i + 3] for i in range(len(padded) - 2))
            self.profiles[lang] = grams

    def classify(self, text: str) -> str:
        t = " %s " % text.lower()
        grams = {t[i : i + 3] for i in range(len(t) - 2)}
        best_lang, best = "und", -1.0
        for lang, prof in sorted(self.profiles.items()):
            score = len(grams & prof) / len(prof)
            if score > best:
                best, best_lang = score, lang
        return best_lang

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["lang_pred"] = [self.classify(t) for t in batch[self.text_col].fillna("")]
        return batch


def doc_stats_ds(ds, text_col: str = "text"):
    """Dataset-level: token/char stats appended."""
    return ds.map_batches(
        lambda df: token_stats(df, text_col), batch_format="pandas"
    )


def quality_ds(ds, text_col: str = "text"):
    return ds.map_batches(
        lambda df: quality_scores(df, text_col), batch_format="pandas"
    )


def langid_ds(ds, text_col: str = "text", concurrency=4):
    return ds.map_batches(
        LangID,
        fn_constructor_kwargs={"text_col": text_col},
        batch_format="pandas",
        concurrency=concurrency,
    )


_WS_CLASS = "[ \\t\\r\\n\\f\\v]+"


def normalize_text(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Canonical text normalization for training corpora: unicode NFC,
    lowercase, ASCII-whitespace runs collapsed to one space, trimmed.
    The whitespace class is explicit (not ``\\s``) so the SQL oracle
    (DuckDB nfc_normalize/lower/regexp_replace) matches exactly."""
    import unicodedata

    out = batch.copy()
    s = out[text_col].fillna("").map(lambda t: unicodedata.normalize("NFC", t))
    s = s.str.lower()
    s = s.str.replace(_WS_CLASS, " ", regex=True).str.strip(" ")
    out["norm_text"] = s
    return out


def top_tokens(ds, k: int = 50, text_col: str = "text"):
    """Global top-k whitespace tokens by count (ties broken by token
    asc). Per-batch vectorized counts (explode + value_counts), token
    totals merged on one keyed exchange, per-bucket top-k (each
    token's full total lives in one bucket), single final top-k merge
    over the bounded ``buckets x k`` candidates."""

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"token": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        toks = (
            df[text_col].fillna("").str.split(_WS_CLASS, regex=True).explode()
        )
        toks = toks[toks.astype(bool)]
        vc = toks.value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(dtype=object),
                             "n": vc.to_numpy()})

    def _bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        totals = df.groupby("token", as_index=False)["n"].sum()
        return totals.sort_values(
            ["n", "token"], ascending=[False, True]
        ).head(k)

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["n", "token"], ascending=[False, True]).head(k)

    import pyarrow as pa

    from ..core.exchange import exchange

    return exchange(
        ds.map_batches(_partial, batch_format="pandas"), "token",
        _bucket_topk, pa.schema({"token": pa.string(), "n": pa.int64()}),
    ).repartition(1).map_batches(_final, batch_format="pandas")


def gopher_quality(batch: pd.DataFrame, text_col: str = "text",
                   min_words: int = 50, max_words: int = 100_000,
                   min_mean_len: float = 3.0, max_mean_len: float = 10.0,
                   max_symbol_ratio: float = 0.1,
                   min_alpha_frac: float = 0.8) -> pd.DataFrame:
    """Gopher-style document quality gates (Rae et al. 2021, public
    heuristics): word-count window, mean word length window,
    symbol-to-word ratio ('#' and '...'), fraction of words containing
    a letter. Every feature is reproducible in SQL (the doc_gopher
    oracle), so the whole filter is hash-checked end to end."""
    s = batch[text_col].fillna("")
    tok_lists = s.str.split(_WS_CLASS, regex=True).map(
        lambda ws: [w for w in ws if w]
    )
    n_words = tok_lists.str.len().astype("int64")
    denom = n_words.clip(lower=1)
    word_chars = s.str.replace(_WS_CLASS, "", regex=True).str.len()
    mean_word_len = (word_chars / denom).round(6)
    n_hash = s.str.count("#")
    n_ell = (s.str.len() - s.str.replace("...", "", regex=False).str.len()) / 3
    symbol_ratio = ((n_hash + n_ell) / denom).round(6)
    alpha_frac = (
        tok_lists.map(lambda ws: sum(1 for w in ws if _ALPHA_RE.search(w)))
        / denom
    ).round(6)
    out = batch.copy()
    out["n_words"] = n_words
    out["mean_word_len"] = mean_word_len
    out["symbol_ratio"] = symbol_ratio
    out["alpha_frac"] = alpha_frac
    out["gopher_pass"] = (
        n_words.between(min_words, max_words)
        & mean_word_len.between(min_mean_len, max_mean_len)
        & (symbol_ratio <= max_symbol_ratio)
        & (alpha_frac >= min_alpha_frac)
    )
    return out


# -- PII detection / scrubbing ---------------------------------------------

# Patterns kept in the RE2-compatible subset (no lookaround, no
# backreferences, explicit [0-9] instead of \d so Python's
# unicode-aware classes can't diverge from DuckDB's ASCII RE2) —
# the doc_pii_scrub oracle runs the SAME pattern strings through
# DuckDB regexp_extract_all / regexp_replace.
PII_EMAIL_PAT = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IP_PAT = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
PII_PHONE_PAT = r"\b[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}\b"
_EMAIL_RE = re.compile(PII_EMAIL_PAT)
_IP_RE = re.compile(PII_IP_PAT)
_PHONE_RE = re.compile(PII_PHONE_PAT)


def pii_scrub(batch: pd.DataFrame, text_col: str = "text",
              out_col: str = "scrubbed_text") -> pd.DataFrame:
    """Detect and mask PII spans (emails, IPv4 addresses, NANP-style
    phone numbers) with typed placeholder tokens, vectorized pandas
    regex kernels throughout.

    Scrub ORDER is part of the contract (email -> ip -> phone, each
    count taken on the text as already scrubbed by the previous
    stages) so counts never double-report a span and the SQL oracle
    can replay the exact sequence."""
    s = batch[text_col].fillna("")
    out = batch.copy()
    out["n_emails"] = s.str.count(_EMAIL_RE).astype("int64")
    s = s.str.replace(_EMAIL_RE, "<EMAIL>", regex=True)
    out["n_ips"] = s.str.count(_IP_RE).astype("int64")
    s = s.str.replace(_IP_RE, "<IP>", regex=True)
    out["n_phones"] = s.str.count(_PHONE_RE).astype("int64")
    s = s.str.replace(_PHONE_RE, "<PHONE>", regex=True)
    out[out_col] = s
    return out


# -- repetition signals (Gopher-style) -------------------------------------


def _round6(x):
    """Round to 6 dp half-AWAY-from-zero (nonnegative input) — the SQL
    round() convention. numpy's .round is half-even and diverges on
    exact .5 ties (e.g. 9/128 -> 0.070312 vs DuckDB's 0.070313),
    which breaks value-hash parity."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def repetition_stats(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Per-document repetition signals (Rae et al. 2021 public
    heuristics): fraction of non-blank lines that are duplicates of
    another line in the same document, fraction of line characters in
    such duplicate lines, and the character coverage of the densest
    word 2-gram (max over bigrams of count x bigram length, over total
    chars — reporting the max VALUE sidesteps tie-breaking on which
    bigram "wins").

    Entirely explode/groupby pandas kernels — no per-document Python
    loop — so a batch of thousands of docs is a handful of C passes."""
    s = batch[text_col].fillna("").reset_index(drop=True)
    n = len(batch)
    out = batch.copy()
    zeros = np.zeros(n)
    if not n:
        out["dup_line_frac"] = zeros
        out["dup_line_char_frac"] = zeros
        out["top_2gram_char_frac"] = zeros
        return out

    # duplicate-line fractions: explode lines, count per (doc, line)
    lf = s.str.split("\n").explode().rename("line").reset_index()
    lf = lf[lf["line"].str.strip() != ""]
    if len(lf):
        g = (lf.groupby(["index", "line"], sort=False).size()
             .rename("c").reset_index())
        chars = g["line"].str.len().to_numpy() * g["c"].to_numpy()
        dup = g["c"].to_numpy() > 1
        agg = pd.DataFrame({
            "_i": g["index"].to_numpy(),
            "n_lines": g["c"].to_numpy(),
            "dupl": np.where(dup, g["c"].to_numpy(), 0),
            "chars": chars,
            "dupch": np.where(dup, chars, 0),
        }).groupby("_i").sum()
        agg = agg.reindex(range(n), fill_value=0)
        out["dup_line_frac"] = _round6(
            agg["dupl"] / agg["n_lines"].clip(lower=1)
        )
        out["dup_line_char_frac"] = _round6(
            agg["dupch"] / agg["chars"].clip(lower=1)
        )
    else:
        out["dup_line_frac"] = zeros
        out["dup_line_char_frac"] = zeros

    # top word-2-gram char coverage: explode tokens, bigram = tok +
    # within-doc shift, max(count * len) per doc
    tf = (s.str.strip().str.split(_WS_CLASS, regex=True)
          .explode().rename("tok").reset_index())
    tf = tf[tf["tok"] != ""]
    same_doc = tf["index"].to_numpy()[:-1] == tf["index"].to_numpy()[1:] \
        if len(tf) > 1 else np.empty(0, dtype=bool)
    if same_doc.any():
        bigram = (tf["tok"].to_numpy()[:-1][same_doc].astype(object)
                  + " " + tf["tok"].to_numpy()[1:][same_doc].astype(object))
        bg = pd.DataFrame({"_i": tf["index"].to_numpy()[:-1][same_doc],
                           "bigram": bigram})
        bgc = bg.groupby(["_i", "bigram"], sort=False).size().rename("c").reset_index()
        cov = bgc["c"].to_numpy() * bgc["bigram"].str.len().to_numpy()
        top = (pd.Series(cov).groupby(bgc["_i"].to_numpy()).max()
               .reindex(range(n), fill_value=0))
        out["top_2gram_char_frac"] = _round6(
            top.to_numpy() / s.str.len().clip(lower=1).to_numpy()
        )
    else:
        out["top_2gram_char_frac"] = zeros
    return out


def compression_ratio(batch: pd.DataFrame, text_col: str = "text",
                      id_col: str = "doc_id") -> pd.DataFrame:
    """Deflate compression ratio per document — the classic cheap
    repetitiveness signal in web-corpus curation (highly repetitive
    or templated text compresses far below prose). Ratio =
    compressed bytes / utf-8 bytes at zlib level 6; empty docs get
    ratio 1.0. Per-doc deflate is an inherently per-row codec (like
    langid) — stdlib zlib in a streaming map, no shuffle."""
    import zlib

    ratios = []
    for t in batch[text_col].fillna(""):
        raw = t.encode("utf-8")
        if not raw:
            ratios.append(1.0)
            continue
        ratios.append(len(zlib.compress(raw, 6)) / len(raw))
    return pd.DataFrame(
        {id_col: batch[id_col].to_numpy(),
         "compression_ratio": np.array(ratios, dtype=np.float64)})
