"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard, sparse term-frequency cosine pairs.

Shuffle discipline (the part that matters at 100 TB): every wide
step is one ``core.exchange`` — rows hash to a small int bucket of
their key, one groupby on the bucket, and the per-key work runs as a
vectorized pandas pass (or a local groupby loop) inside the bucket.

* exact        — per-batch pre-dedup (combiner), then ONE exchange on
                 the 64-bit content fingerprint; the bucket re-checks
                 (fingerprint, content) so collisions never merge.
* minhash-LSH  — signatures are computed vectorized per batch (numpy,
                 one pass over hashed shingles), exploded to
                 (band, band_hash) rows, and candidates emerge from a
                 per-key exchange on the band key — signatures travel
                 WITH the rows so verification happens inside the
                 bucket, no second join.
* simhash      — 64-bit signature, banded into 4×16-bit chunks for
                 bucketing (Hamming ≤3 guaranteed to collide in ≥1
                 chunk by pigeonhole).
* tf-cosine    — term-at-a-time candidate pairs from a term-keyed
                 exchange, integer dot products summed in a pair-keyed
                 exchange (``sparse_tf_cosine_pairs``).

The incremental dedup state is Hive-partitioned on disk by
``_stable_int_bucket`` (and the exact path by fingerprint mod N);
those partition hashes define persisted layout and are not the
in-flight exchange hash.

Cluster assembly uses union-find on the verified pair list — pairs
are the small output of verification, not the corpus; for corpora
where pairs themselves are huge, run `cluster_pairs` iteratively
per-partition (min-label propagation), which the function supports by
being a pure pairs->labels step.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.dsutil import write_parquet_plain
from ..core.exchange import bucketed_group_apply, distinct_rows, exchange

_MERSENNE = (1 << 61) - 1
# ``assign_clusters`` solves components driver-side up to this many
# verified pairs, and ``verify_pairs_jaccard`` broadcasts candidate
# texts up to this many pairs; above each, the distributed path runs.
CLUSTER_BROADCAST_THRESHOLD = 100_000
VERIFY_BROADCAST_THRESHOLD = 10_000
# Partition count of the incremental dedup state on disk (``bucket=N``
# under the exact state dir, ``bands/`` and ``sigs/`` for MinHash). It
# is layout, fixed for every call on a state dir: a call probing a
# different count would miss the partitions that hold earlier hashes.
_STATE_BUCKETS = 16
_MINHASHER_CACHE: dict = {}
# per-byte popcount lookup table (Hamming distance on packed uint64)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _empty_pairs(extra_col=None, extra_dtype="float64"):
    """Typed empty pair frame — an untyped pd.DataFrame({"id_a": []})
    defaults to float64 and would poison downstream join-key schemas."""
    cols = {
        "id_a": np.empty(0, dtype=np.int64),
        "id_b": np.empty(0, dtype=np.int64),
    }
    if extra_col:
        cols[extra_col] = np.empty(0, dtype=extra_dtype)
    return pd.DataFrame(cols)


_PAIRS = pa.schema({"id_a": pa.int64(), "id_b": pa.int64()})


def _pair_schema(extra_col=None, extra_type=pa.float64()):
    """Schema of a pair Dataset: (id_a, id_b[, extra_col])."""
    return _PAIRS.append(pa.field(extra_col, extra_type)) if extra_col else _PAIRS


def _distinct_pairs(pairs, extra_col=None):
    return distinct_rows(pairs, ["id_a", "id_b"], _pair_schema(extra_col))


def _hash_words(words):
    """Vector of stable 64-bit hashes for a list of strings
    (vectorized C hashing; process-stable default hash key)."""
    if not len(words):
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_pandas_object(
        pd.Series(words, dtype="object"), index=False
    ).to_numpy()


def _hash_words_md5(words):
    """md5-based 64-bit word hashes (little-endian first 8 digest
    bytes == DuckDB's md5_number_upper), so a SQL oracle can replay
    signatures bit-exactly. Slower than the pandas C hash — hashing
    runs once per UNIQUE word per batch; use for oracle-checked
    surfaces, keep the default hash for production throughput."""
    import hashlib

    if not len(words):
        return np.empty(0, dtype=np.uint64)
    uniq, inv = np.unique(np.asarray(words, dtype=object), return_inverse=True)
    hu = np.fromiter(
        (
            int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[:8], "little")
            for w in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return hu[inv]


_WORD_HASHERS = {"pandas": _hash_words, "md5": _hash_words_md5}


_P1 = np.uint64(0x9E3779B97F4A7C15)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """64-bit hashes of word k-shingles: vectorized word hashing plus a
    rolling polynomial combination (no per-shingle string building)."""
    words = text.split()
    if not words:
        return np.empty(0, dtype=np.uint64)
    wh = _hash_words(words)
    if len(wh) < k:
        out = wh[0:1].copy()
        for x in wh[1:]:
            out = out * _P1 + x
        return out
    acc = wh[: len(wh) - k + 1].copy()
    for j in range(1, k):
        acc = acc * _P1 + wh[j : len(wh) - k + 1 + j] * _P2
    return acc


def word_shingles(text: str, k: int = 3) -> list[str]:
    words = text.split()
    if len(words) < k:
        return [" ".join(words)] if words else []
    return [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]


# ---------------------------------------------------------------------------
# Exact dedup


def exact_dedup(ds, key: str = "text", id_col: str = "doc_id"):
    """Keep the minimum id per distinct key value.

    The shuffle key is a 64-bit FINGERPRINT of the content (hashed into
    a small int bucket), never the content itself: shipping and sorting
    megabyte text columns as groupby keys is the classic dedup
    scale-killer. Local pre-dedup (combiner) -> bucket shuffle ->
    per-bucket groupby on (fingerprint, key) so hash collisions can
    never merge distinct contents."""

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        out = df.loc[df.groupby(key)[id_col].idxmin(), [id_col, key]]
        return out.assign(_fp=pd.util.hash_pandas_object(
            out[key], index=False).to_numpy().astype("int64"))

    def _bucket_dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group.loc[
            group.groupby(["_fp", key], sort=False)[id_col].idxmin(),
            [id_col, key],
        ]

    return exchange(
        ds.map_batches(_local, batch_format="pandas"), "_fp", _bucket_dedup,
        lambda sch: pa.schema([sch.field(id_col), sch.field(key)]))


# ---------------------------------------------------------------------------
# MinHash + LSH


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _batch_shingle_hashes(texts, k):
    """Shingle hashes for a WHOLE batch in one vectorized pass: all
    words of all docs hashed together, k-gram rolling combine done
    with global index arithmetic, per-doc boundaries returned as
    (hashes, counts). Short docs (<k words) collapse to one rolling
    hash; empty docs contribute zero shingles."""
    word_lists = [t.split() for t in texts]
    lens = np.fromiter((len(w) for w in word_lists), dtype=np.int64,
                       count=len(word_lists))
    flat = [w for ws in word_lists for w in ws]
    wh = _hash_words(flat)
    doc_start = np.cumsum(lens) - lens

    # full-length shingles for docs with >= k words
    ns = np.where(lens >= k, lens - k + 1, 0)
    total = int(ns.sum())
    counts = ns.copy()
    if total:
        seg_start = np.cumsum(ns) - ns
        pos = np.arange(total) - np.repeat(seg_start, ns)
        starts = np.repeat(doc_start, ns) + pos
        acc = wh[starts].copy()
        for j in range(1, k):
            acc = acc * _P1 + wh[starts + j] * _P2
    else:
        acc = np.empty(0, dtype=np.uint64)

    # short docs (0 < len < k): one whole-text rolling hash each
    short_ix = np.flatnonzero((lens > 0) & (lens < k))
    if len(short_ix):
        order = np.argsort(np.concatenate([
            np.repeat(np.arange(len(lens)), ns), short_ix
        ]), kind="stable")
        shorts = np.empty(len(short_ix), dtype=np.uint64)
        with np.errstate(over="ignore"):  # uint64 wraparound is intended
            for ix, d in enumerate(short_ix):
                h = wh[doc_start[d]]
                for x in wh[doc_start[d] + 1: doc_start[d] + lens[d]]:
                    h = h * _P1 + x
                shorts[ix] = h
        counts[short_ix] = 1
        acc = np.concatenate([acc, shorts])[order]
    return acc, counts


class MinHasher:
    """Batch stage: MinHash signatures + banded bucket rows, fully
    vectorized across the batch (one permutation matmul over all
    shingles, per-doc mins via minimum.reduceat, multiplicative band
    hashing — no per-doc Python in the signature path). Emits one row
    per band: (band, band_hash, id, sig)."""

    def __init__(self, num_perm=64, bands=16, k=3, text_col="text", id_col="doc_id"):
        assert num_perm % bands == 0
        self.a, self.b = _minhash_params(num_perm)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = k
        self.text_col = text_col
        self.id_col = id_col

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, num_perm) uint64 signature matrix."""
        n = len(texts)
        sigs = np.full((n, self.num_perm), _MERSENNE, dtype=np.uint64)
        if not n:
            return sigs
        hv, counts = _batch_shingle_hashes(texts, self.k)
        if not len(hv):
            return sigs
        hv = hv % _MERSENNE
        vals = (
            np.multiply.outer(self.a, hv, dtype=np.uint64) + self.b[:, None]
        ) % _MERSENNE  # (num_perm, total_shingles)
        nonempty = np.flatnonzero(counts > 0)
        offsets = (np.cumsum(counts) - counts)[nonempty].astype(np.intp)
        mins = np.minimum.reduceat(vals, offsets, axis=1)  # (perm, n_nonempty)
        sigs[nonempty] = mins.T
        return sigs

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.text_col].fillna("").tolist()
        ids = batch[self.id_col].to_numpy()
        n = len(texts)
        sigs = self.signatures(texts)
        # multiplicative band hash (process-stable; Python hash() is salted)
        chunks = sigs.reshape(n, self.bands, self.rows_per_band)
        bh = chunks[:, :, 0].copy()
        for j in range(1, self.rows_per_band):
            bh = bh * _P1 + chunks[:, :, j] * _P2
        bh = (bh & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        # signatures travel as BYTES: an object column of ndarrays
        # converts per-element through every Arrow boundary; a binary
        # column is zero-copy
        sig_bytes = [sigs[i].tobytes() for i in range(n)]
        return pd.DataFrame(
            {
                "band": np.tile(np.arange(self.bands, dtype=np.int64), n),
                "band_hash": bh.reshape(-1),
                self.id_col: np.repeat(ids, self.bands),
                "sig": [sig_bytes[i] for i in np.repeat(np.arange(n), self.bands)],
            }
        )


def minhash_candidate_pairs(ds, num_perm=64, bands=16, k=3, threshold=0.5,
                            text_col="text", id_col="doc_id", concurrency=4,
                            max_bucket=2048, dedup=True, sigs=None):
    """Dataset of (id_a, id_b, est_jaccard) near-dup candidate pairs,
    verified by signature agreement inside each LSH bucket.

    Skew guard: a pathological hot bucket (e.g. boilerplate shared by
    millions of docs) would produce O(n²) pairs; buckets larger than
    ``max_bucket`` are deterministically down-sampled (sorted-id
    prefix) — standard LSH practice; such docs collide in many other
    bands, so recall loss is marginal while the worst-case cost is
    bounded at max_bucket².

    ``sigs``: precomputed MinHasher band rows (band, band_hash, id,
    sig) for the SAME (num_perm, bands, k) — skips re-shingling and
    re-hashing the corpus when the caller already holds them (the
    incremental path computes them once per delta)."""

    # tasks + per-worker cache: MinHasher init is trivial, and a
    # dedicated actor pool would pay startup per execution
    params = (num_perm, bands, k, text_col, id_col)

    def _sig(batch: pd.DataFrame) -> pd.DataFrame:
        mh = _MINHASHER_CACHE.get(params)
        if mh is None:
            mh = MinHasher(num_perm=num_perm, bands=bands, k=k,
                           text_col=text_col, id_col=id_col)
            _MINHASHER_CACHE[params] = mh
        return mh(batch)

    if sigs is None:
        sigs = ds.map_batches(_sig, batch_format="pandas")

    def _bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids = group[id_col].to_numpy()
        if len(ids) < 2:
            return _empty_pairs("est_jaccard")
        # de-dup docs that landed in the bucket multiple times
        _, uniq_ix = np.unique(ids, return_index=True)
        ids = ids[uniq_ix]
        sig_raw = group["sig"].to_numpy()[uniq_ix]
        sig_mat = np.frombuffer(b"".join(sig_raw), dtype=np.uint64).reshape(
            len(sig_raw), -1
        )
        if len(ids) > max_bucket:  # hot-bucket cap (see docstring)
            order = np.argsort(ids)[:max_bucket]
            ids, sig_mat = ids[order], sig_mat[order]
        a_ix, b_ix = np.triu_indices(len(ids), k=1)
        est = (sig_mat[a_ix] == sig_mat[b_ix]).mean(axis=1)
        keep = est >= threshold
        lo = np.minimum(ids[a_ix[keep]], ids[b_ix[keep]]).astype(np.int64)
        hi = np.maximum(ids[a_ix[keep]], ids[b_ix[keep]]).astype(np.int64)
        return pd.DataFrame({"id_a": lo, "id_b": hi, "est_jaccard": est[keep]})

    # LSH bucket keys are near-unique -> coarse-bucket shuffle, and the
    # surviving pairs are deduped the same way. Consumers that tolerate
    # duplicate edges (cluster assembly: min-label propagation is
    # idempotent) pass dedup=False and save a shuffle.
    pairs = bucketed_group_apply(
        sigs, ["band", "band_hash"], _bucket_pairs,
        _pair_schema("est_jaccard"), min_group_size=2
    )
    return _distinct_pairs(pairs, "est_jaccard") if dedup else pairs


def cluster_pairs(pair_rows, ids=None) -> dict:
    """Union-find over verified pairs -> id -> cluster-representative
    (minimum member id). Pure driver-side step over the (small)
    verified pair list."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx

    for row in pair_rows:
        union(row["id_a"], row["id_b"])
    out = {}
    keys = set(parent) | set(ids or ())
    for x in keys:
        out[x] = find(x)
    return out


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _stable_int_bucket(key_np: np.ndarray, num_buckets: int) -> np.ndarray:
    """PERSISTED partition of int64 keys in the incremental dedup state
    (``bands/bucket=N``, ``sigs/bucket=N``): a multiplicative hash that
    stays balanced on sequential ids. It defines on-disk layout and so
    must not change; in-flight shuffles use ``core.exchange``."""
    h = key_np.astype(np.uint64) * _GOLDEN
    return ((h >> np.uint64(33)) % np.uint64(num_buckets)).astype(np.int32)


_WORK = pa.schema({"key": pa.int64(), "kind": pa.int8(), "a": pa.int64(),
                   "c": pa.int8()})


def _work_frame(key, kind, a, c=None) -> pd.DataFrame:
    n = len(key)
    return pd.DataFrame(
        {
            "key": np.asarray(key, dtype=np.int64),
            "kind": np.full(n, kind, dtype=np.int8),
            "a": np.asarray(a, dtype=np.int64),
            "c": np.zeros(n, dtype=np.int8) if c is None
            else np.asarray(c, dtype=np.int8),
        }
    )


def cluster_pairs_ds(pairs, max_iters=50):
    """Distributed connected components over a pair list: iterative
    min-label propagation to fixpoint, expressed as coarse-bucket
    shuffles over a tagged working set (kind 0 = label row keyed by
    node, kind 1 = directed edge keyed by src, kind 2 = in-flight
    message keyed by dst). Two shuffles per iteration:

      step 1 (group by src): collapse label rows, emit each node's
             label along every outgoing edge as a message to dst;
      step 2 (group by dst): new label = min(label, incoming msgs),
             with a per-row changed flag.

    Duplicate edges are tolerated (min-propagation is idempotent), so
    upstream producers can skip their pair-dedup shuffle. Returns a
    Dataset (node, label) covering every node that appears in a pair;
    label is the component minimum. Nothing corpus-cardinality touches
    the driver — per iteration only a scalar changed-count is
    collected. (Deliberately NOT Dataset.join: Ray 2.49's hash-join
    finalize builds schema-less empty partitions and raises
    ArrowInvalid when one side of a partition is empty.)

    The distributed form of the reference's dedup semantics
    (/root/reference/tools/py/util.py:209-223) extended to near-dup
    clusters."""
    import ray.data as rd

    def _init(df: pd.DataFrame) -> pd.DataFrame:
        if "id_a" not in df.columns or not len(df):
            return _work_frame([], 0, [])
        a = df["id_a"].to_numpy().astype(np.int64)
        b = df["id_b"].to_numpy().astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        nodes = np.unique(src)
        # label seeds start at self; cross-batch duplicate seeds
        # collapse at the first bucket shuffle
        return pd.concat(
            [_work_frame(src, 1, dst), _work_frame(nodes, 0, nodes)],
            ignore_index=True,
        )

    def _step(bucket: pd.DataFrame) -> pd.DataFrame:
        # FUSED iteration: apply incoming messages to this node's
        # label AND emit outgoing messages with the new label — the
        # apply-group (by dst) and the emit-group (by src) are the same
        # node keyspace, so one shuffle per iteration suffices.
        lab = bucket[bucket["kind"] == 0].groupby("key", as_index=False)["a"].min()
        edg = bucket[bucket["kind"] == 1]
        msgs = bucket[bucket["kind"] == 2]
        old = lab["a"].to_numpy()
        if len(msgs) and len(lab):
            nbr = msgs.groupby("key", as_index=False)["a"].min().rename(
                columns={"a": "_nbr"}
            )
            lab = lab.merge(nbr, on="key", how="left")
            nbr_vals = lab["_nbr"].fillna(lab["a"]).to_numpy()
            new = np.minimum(old, nbr_vals).astype(np.int64)
            changed = (new < old).astype(np.int8)
        else:
            new = old
            changed = np.zeros(len(lab), dtype=np.int8)
        newlab = pd.DataFrame({"key": lab["key"].to_numpy(), "_label": new})
        out_msgs = edg.merge(newlab, on="key", how="inner")
        return pd.concat(
            [
                _work_frame(lab["key"], 0, new, changed),
                _work_frame(edg["key"], 1, edg["a"]),
                _work_frame(out_msgs["a"], 2, out_msgs["_label"]),
            ],
            ignore_index=True,
        )

    work = pairs.map_batches(_init, batch_format="pandas")
    for it in range(max_iters):
        work = exchange(work, "key", _step, _WORK).materialize()
        if it == 0:
            if work.count() == 0:
                return rd.from_arrow(pa.table(
                    {"node": pa.array([], type=pa.int64()),
                     "label": pa.array([], type=pa.int64())}))
            continue  # round 0 only seeds messages; no change signal yet
        if not work.sum("c"):  # c nonzero only on changed label rows
            break

    def _labels_only(df: pd.DataFrame) -> pd.DataFrame:
        lab = df[df["kind"] == 0]
        return pd.DataFrame(
            {"node": lab["key"].to_numpy(), "label": lab["a"].to_numpy()}
        )

    return work.map_batches(_labels_only, batch_format="pandas")


def assign_clusters(ds, pairs, id_col="doc_id"):
    """id -> cluster-representative Dataset for the WHOLE corpus.

    Pairs are the small output of verification — while they fit under
    ``CLUSTER_BROADCAST_THRESHOLD`` the components are solved driver-side over
    the PAIR LIST ONLY (bounded state, never corpus ids) and the label
    map is broadcast once (ray.put) into a distributed corpus map.
    Above the threshold, distributed min-label propagation
    (cluster_pairs_ds) runs and labels merge onto the corpus by one
    bucket shuffle; docs without pairs default to self-cluster either
    way. Nothing corpus-cardinality ever touches the driver."""
    import ray

    pairs = pairs.materialize()
    if pairs.count() <= CLUSTER_BROADCAST_THRESHOLD:
        from ..core.dsutil import rows_of

        label_map = cluster_pairs(
            rows_of(pairs.select_columns(["id_a", "id_b"]))
        )
        ref = ray.put(label_map)

        def _map(df: pd.DataFrame) -> pd.DataFrame:
            mp = ray.get(ref)
            ids = df[id_col].to_numpy().astype(np.int64)
            cl = np.fromiter(
                (mp.get(int(i), int(i)) for i in ids),
                dtype=np.int64, count=len(ids),
            )
            return pd.DataFrame({id_col: ids, "cluster": cl})

        return ds.select_columns([id_col]).map_batches(
            _map, batch_format="pandas"
        )

    labels = cluster_pairs_ds(pairs)

    def _merge(corpus: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        if not len(corpus):
            return None
        ids = corpus[[id_col]].astype(np.int64)
        if not len(lab):
            return ids.assign(cluster=ids[id_col])
        lab = lab.drop_duplicates("node").rename(
            columns={"node": id_col, "label": "cluster"})
        out = ids.merge(lab, on=id_col, how="left")
        return out.assign(
            cluster=out["cluster"].fillna(out[id_col]).astype(np.int64))

    return exchange(
        [ds.select_columns([id_col]), labels], [[id_col], ["node"]], _merge,
        pa.schema({id_col: pa.int64(), "cluster": pa.int64()}))


def verified_near_dup_pairs(ds, threshold=0.5, est_threshold=0.35, k=3,
                            text_col="text", id_col="doc_id", **kw):
    """Near-duplicate pairs with EXACT n-gram-Jaccard verification,
    fully distributed: LSH candidate pairs (generous estimate
    threshold for recall) verified by verify_pairs_jaccard_ds.

    Texts travel as payload, never as join/shuffle keys, and the
    corpus is scanned (not broadcast): this replaces the driver-side
    broadcast of candidate texts for large pair sets
    (verify_pairs_jaccard stays as the small-pair-set fast path)."""

    pairs = minhash_candidate_pairs(
        ds, threshold=est_threshold, text_col=text_col, id_col=id_col,
        # duplicate candidate edges are collapsed inside the verify
        # shuffle itself (_attach drop_duplicates) — no dedup shuffle
        dedup=False, **kw
    )
    return verify_pairs_jaccard_ds(
        ds, pairs, threshold=threshold, k=k, text_col=text_col,
        id_col=id_col,
    )


def verify_pairs_jaccard_ds(ds, pairs, threshold=0.5, k=3, text_col="text",
                            id_col="doc_id"):
    """Distributed exact-Jaccard verification of a candidate-pair
    Dataset (integer ids): texts attach to pair endpoints in ONE
    corpus bucket-merge pass (each pair emits two endpoint-keyed
    rows), then a pair-sized shuffle joins both texts and computes the
    exact word-k-shingle Jaccard."""

    def _texts(corpus: pd.DataFrame):
        return corpus[text_col].fillna("").astype(str).to_numpy()

    def _jaccard(ta, tb):
        return np.fromiter((ngram_jaccard(x, y, k) for x, y in zip(ta, tb)),
                           dtype=np.float64, count=len(ta))

    attached = _attach_endpoints(ds.select_columns([id_col, text_col]), pairs,
                                 id_col, _texts, pa.string())
    return _verify_pairs(attached, _jaccard, "jaccard", threshold)


def _attach_endpoints(ds, pairs, id_col, payload, pay_type):
    """(id_a, id_b, side, pay) rows: each candidate pair's endpoint
    payloads (``payload(corpus_frame)``), attached in ONE corpus
    exchange — every pair emits two rows, keyed by each endpoint."""

    def _pair_rows(df: pd.DataFrame) -> pd.DataFrame:
        a = df["id_a"].to_numpy().astype(np.int64)
        b = df["id_b"].to_numpy().astype(np.int64)
        n = len(df)
        return pd.DataFrame({
            "key": np.concatenate([a, b]),
            "other": np.concatenate([b, a]),
            "side": np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
        })

    def _attach(corpus: pd.DataFrame, prs: pd.DataFrame) -> pd.DataFrame:
        if not len(corpus) or not len(prs):
            return None
        corpus = pd.DataFrame({
            "key": corpus[id_col].to_numpy().astype(np.int64),
            "_p": payload(corpus),
        }).drop_duplicates("key")
        # every copy of a duplicate candidate pair lands in this bucket
        # (endpoint-keyed), so deduping here lets callers skip a whole
        # pair-dedup shuffle
        m = prs.drop_duplicates(["key", "other", "side"]).merge(
            corpus, on="key", how="inner")
        side = m["side"].to_numpy()
        key = m["key"].to_numpy()
        other = m["other"].to_numpy()
        return pd.DataFrame({
            "id_a": np.where(side == 0, key, other),
            "id_b": np.where(side == 0, other, key),
            "side": side,
            "pay": m["_p"].to_numpy(),
        })

    return exchange(
        [ds, pairs.map_batches(_pair_rows, batch_format="pandas")],
        [[id_col], ["key"]], _attach,
        _PAIRS.append(pa.field("side", pa.int8())).append(
            pa.field("pay", pay_type)))


def _verify_pairs(attached, score, col, threshold):
    """Pair-sized exchange joining both endpoint payloads of each pair
    and keeping pairs with ``score(pay_a, pay_b) >= threshold``."""

    def _verify(bucket: pd.DataFrame) -> pd.DataFrame:
        lhs = bucket[bucket["side"] == 0][["id_a", "id_b", "pay"]]
        rhs = bucket[bucket["side"] == 1][["id_a", "id_b", "pay"]].rename(
            columns={"pay": "_p"}
        )
        m = lhs.merge(rhs, on=["id_a", "id_b"], how="inner")
        if not len(m):
            return None
        sc = score(m["pay"].to_numpy(), m["_p"].to_numpy())
        keep = sc >= threshold
        return pd.DataFrame({
            "id_a": m["id_a"].to_numpy()[keep],
            "id_b": m["id_b"].to_numpy()[keep],
            col: sc[keep],
        })

    return exchange(attached, ["id_a", "id_b"], _verify, _pair_schema(col))


def minhash_dedup(ds, text_col="text", id_col="doc_id", threshold=0.5, **kw):
    """id -> cluster representative for near-duplicate documents.
    Fully distributed: candidate pairs from LSH (duplicate edges kept —
    no pair-dedup shuffle needed), connected components via
    min-label-propagation joins, labels joined back onto the corpus."""
    pairs = minhash_candidate_pairs(
        ds, threshold=threshold, text_col=text_col, id_col=id_col,
        dedup=False, **kw
    )
    return assign_clusters(ds, pairs, id_col=id_col)


def _edit_distance_leq1(a: str, b: str) -> bool:
    """True iff Levenshtein(a, b) <= 1 — O(len) two-pointer check."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is one longer: a must equal b with one char dropped
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def edit_distance_pairs(ds, col, id_col="doc_id"):
    """All pairs of rows whose ``col`` strings are within Levenshtein
    distance 1 (typo-duplicates) — FastSS deletion neighborhoods:

    each string emits itself plus its single-character deletions as
    candidate keys; two strings within distance 1 ALWAYS share a key
    (equal strings share the string, a substitution shares the
    deletion at the edited position, an insertion/deletion makes one
    string a deletion variant of the other), so candidates come from
    one coarse-bucket shuffle of (variant, id) rows — never all
    pairs — and each candidate pair is verified with an exact O(len)
    distance-<=1 check. Variant volume is ~len(s)+1 rows per string;
    cap/segment very long strings upstream.

    Returns ``(id_a, id_b, dist)`` with ``id_a < id_b``."""

    def _variants(df: pd.DataFrame) -> pd.DataFrame:
        ids, variants, origs = [], [], []
        for i, s in zip(df[id_col], df[col].fillna("")):
            ids.append(i)
            variants.append(s)
            origs.append(s)
            for k in range(len(s)):
                ids.append(i)
                variants.append(s[:k] + s[k + 1:])
                origs.append(s)
        return pd.DataFrame({"_var": variants, id_col: ids, "_s": origs})

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates([id_col])
        if len(g) < 2:
            return None
        ids = g[id_col].to_numpy()
        strs = g["_s"].to_numpy()
        ia, ib = np.triu_indices(len(g), k=1)
        rows = []
        for x, y in zip(ia, ib):
            if ids[x] == ids[y]:
                continue
            if _edit_distance_leq1(strs[x], strs[y]):
                lo, hi = sorted((int(ids[x]), int(ids[y])))
                rows.append((lo, hi, int(strs[x] != strs[y])))
        return pd.DataFrame(rows, columns=["id_a", "id_b", "dist"])

    schema = _pair_schema("dist", pa.int64())
    cands = bucketed_group_apply(
        ds.map_batches(_variants, batch_format="pandas"),
        ["_var"], _pairs, schema, min_group_size=2,
    )
    return distinct_rows(cands, ["id_a", "id_b"], schema)


def near_dup_keep_best(ds, by, text_col="text", id_col="doc_id",
                       threshold=0.5, ascending=False, **kw):
    """Quality-aware near-dedup keep rule: one row per near-dup
    cluster, keeping the BEST document — argmax of the ``by`` column
    (argmin with ``ascending=True``), ties to the smallest id —
    instead of :func:`minhash_dedup`'s min-id representative. This is
    the curation variant: dedup a crawl but keep the longest /
    highest-quality copy.

    Returns ``(id_col, cluster, by)`` rows. Cluster assignments come
    from :func:`minhash_dedup`; the quality column joins on through
    one slim id-bucket shuffle (two ints + ``by`` per row — text
    never transits), and the per-cluster argmax is the
    ``grouped_topk`` combiner (local top-1 per batch, one coarse
    shuffle)."""
    from .agg import grouped_topk

    assigns = minhash_dedup(
        ds, text_col=text_col, id_col=id_col, threshold=threshold, **kw
    )
    quality = ds.map_batches(
        lambda df: df[[id_col, by]], batch_format="pandas"
    )
    sch = ds.schema()
    by_type = dict(zip(sch.names, sch.types))[by]

    def _merge(a: pd.DataFrame, q: pd.DataFrame) -> pd.DataFrame:
        if not len(a) or not len(q):
            return None
        return a[[id_col, "cluster"]].merge(q, on=id_col)

    joined = exchange(
        [assigns, quality], id_col, _merge,
        pa.schema([pa.field(id_col, pa.int64()), pa.field("cluster", pa.int64()),
                   pa.field(by, by_type)]))
    best = grouped_topk(
        joined, ["cluster"], by, k=1, ascending=ascending,
        tie_cols=[id_col],
    )
    return best.map_batches(
        lambda df: df.drop(columns=["rank"]), batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# SimHash


def simhash64(text: str, hasher: str = "pandas") -> int:
    words = text.split()
    if not words:
        return 0
    hv = _WORD_HASHERS[hasher](words)
    bits = ((hv[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.int32)
    v = (2 * bits - 1).sum(axis=0)
    # bit i of the signature is sign(v[i]); packbits consumes MSB-first
    packed = np.packbits((v > 0)[::-1])
    return int.from_bytes(packed.tobytes(), "big")


def simhash64_batch(texts, _chunk_words: int = 1 << 20,
                    hasher: str = "pandas") -> np.ndarray:
    """Batch simhash: flat word-hash passes + per-document
    ``add.reduceat`` over the +/-1 bit matrix — bit-identical to
    per-doc ``simhash64`` (pytest-checked), no per-document Python
    loop. Documents are processed in chunks of ~``_chunk_words``
    words: the bit matrix costs ~576 B/word, so an unbounded batch
    (100+ MB of text) would allocate tens of GB — chunking bounds
    peak memory at ~600 MB without changing any signature."""
    word_lists = [t.split() for t in texts]
    n = len(word_lists)
    counts = np.array([len(ws) for ws in word_lists], dtype=np.int64)
    out = np.zeros(n, dtype=np.uint64)
    lo = 0
    while lo < n:
        hi, tot = lo, 0
        while hi < n and (hi == lo or tot + counts[hi] <= _chunk_words):
            tot += counts[hi]
            hi += 1
        flat = [w for ws in word_lists[lo:hi] for w in ws]
        if flat:
            hv = _WORD_HASHERS[hasher](flat)
            pm = (
                2 * ((hv[:, None] >> np.arange(64, dtype=np.uint64)) & 1)
                .astype(np.int32) - 1
            )
            c = counts[lo:hi]
            nz = c > 0
            offs = np.concatenate(([0], np.cumsum(c)[:-1]))[nz]
            v = np.add.reduceat(pm, offs, axis=0)
            sig = (
                (v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
            ).sum(axis=1, dtype=np.uint64)
            out[lo:hi][nz] = sig
        lo = hi
    return out


def simhash_ds(ds, text_col="text", id_col="doc_id", hasher="pandas"):
    def _sim(df: pd.DataFrame) -> pd.DataFrame:
        df["simhash"] = simhash64_batch(
            df[text_col].fillna("").tolist(), hasher=hasher
        )
        return df[[id_col, "simhash"]]

    return ds.map_batches(_sim, batch_format="pandas")


def simhash_near_dups(ds, text_col="text", id_col="doc_id", max_hamming=3,
                      hot_bucket=1024, hasher="pandas"):
    """Candidate pairs with Hamming distance <= max_hamming via chunk
    bucketing with max_hamming+1 chunks (pigeonhole: any pair within
    the distance budget must agree on at least one whole chunk).
    Buckets larger than ``hot_bucket`` get a second-level exact
    prefilter (rotated-chunk pigeonhole) before the all-pairs XOR."""
    sigs = simhash_ds(ds, text_col, id_col, hasher=hasher)
    n_chunks = max_hamming + 1
    bounds = np.linspace(0, 64, n_chunks + 1).astype(int)

    def _explode(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized shift/mask per chunk over the signature column
        sh = df["simhash"].to_numpy().astype(np.uint64)
        ids = df[id_col].to_numpy()
        n = len(sh)
        frames = []
        for c in range(n_chunks):
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            val = (sh >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1)
            frames.append(
                pd.DataFrame(
                    {"chunk": np.full(n, c, dtype=np.int8), "chunk_val": val,
                     id_col: ids, "simhash": sh}
                )
            )
        return pd.concat(frames, ignore_index=True)

    def _quad_pairs(ids, hs):
        a_ix, b_ix = np.triu_indices(len(ids), k=1)
        x = hs[a_ix] ^ hs[b_ix]
        # vectorized popcount: bytes view -> per-byte LUT -> row sums
        # (8x less scratch memory than unpackbits on big buckets)
        ham = (
            _POPCOUNT8[x.view(np.uint8).reshape(len(x), 8)]
            .sum(axis=1)
            .astype(np.int64)
        )
        keep = ham <= max_hamming
        lo = np.minimum(ids[a_ix[keep]], ids[b_ix[keep]])
        hi = np.maximum(ids[a_ix[keep]], ids[b_ix[keep]])
        return pd.DataFrame({"id_a": lo, "id_b": hi, "hamming": ham[keep]})

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids = group[id_col].to_numpy()
        if len(ids) < 2:
            return _empty_pairs("hamming", "int64")
        _, uix = np.unique(ids, return_index=True)
        ids = ids[uix]
        hs = group["simhash"].to_numpy()[uix].astype(np.uint64)
        if len(ids) <= hot_bucket:
            return _quad_pairs(ids, hs)
        # Hot bucket: re-apply the pigeonhole on a ROTATED chunking.
        # Any partition of the 64 bits into max_hamming+1 parts leaves
        # at least one part with zero differing bits for a pair within
        # the Hamming budget, so sub-grouping by rotated chunk values
        # is exact (no recall loss), and the rotation (8 bits) makes
        # the sub-chunks cut across the primary chunk that keyed this
        # bucket. Output pairs dedupe downstream on (id_a, id_b).
        rot = ((hs << np.uint64(8)) | (hs >> np.uint64(56))).astype(np.uint64)
        outs = []
        for c in range(n_chunks):
            lo_b, hi_b = int(bounds[c]), int(bounds[c + 1])
            sub = (rot >> np.uint64(lo_b)) & np.uint64((1 << (hi_b - lo_b)) - 1)
            order = np.argsort(sub, kind="stable")
            sv = sub[order]
            starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
            ends = np.r_[starts[1:], len(sv)]
            for s, e in zip(starts, ends):
                if e - s < 2:
                    continue
                sel = order[s:e]
                outs.append(_quad_pairs(ids[sel], hs[sel]))
        if not outs:
            return _empty_pairs("hamming", "int64")
        out = pd.concat(outs, ignore_index=True)
        return out.drop_duplicates(["id_a", "id_b"], ignore_index=True)

    exploded = sigs.map_batches(_explode, batch_format="pandas")
    schema = _pair_schema("hamming", pa.int64())
    pairs = bucketed_group_apply(
        exploded, ["chunk", "chunk_val"], _pairs, schema, min_group_size=2
    )
    return distinct_rows(pairs, ["id_a", "id_b"], schema)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard verification


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa, sb = set(word_shingles(text_a, k)), set(word_shingles(text_b, k))
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def verify_pairs_jaccard(ds, pairs, text_col="text", id_col="doc_id", k=3,
                         threshold=0.5):
    """Exact-Jaccard verification of candidate pairs: broadcast the
    candidate docs' texts (small side), verify inside map_batches.

    Above ``VERIFY_BROADCAST_THRESHOLD`` pairs this auto-switches to the
    distributed ``verify_pairs_jaccard_ds`` (texts attached by bucket
    merge, never broadcast driver-side) — mirroring assign_clusters'
    guard, so callers can't accidentally broadcast a corpus-sized
    candidate text set."""
    import ray

    if not isinstance(pairs, list):
        # count() on a lazy Dataset would execute the candidate
        # pipeline once for the count and AGAIN for the verify
        pairs = pairs.materialize()
    n_pairs = len(pairs) if isinstance(pairs, list) else pairs.count()
    if n_pairs > VERIFY_BROADCAST_THRESHOLD:
        import ray.data as rd

        pairs_ds = rd.from_items(pairs) if isinstance(pairs, list) else pairs
        out_ds = verify_pairs_jaccard_ds(
            ds, pairs_ds, threshold=threshold, k=k,
            text_col=text_col, id_col=id_col,
        )
        from ..core.dsutil import rows_of

        return [
            {"id_a": r["id_a"], "id_b": r["id_b"], "jaccard": r["jaccard"]}
            for r in rows_of(out_ds)
        ]

    cand_ids = set()
    from ..core.dsutil import rows_of

    pair_list = pairs if isinstance(pairs, list) else rows_of(pairs)
    for p in pair_list:
        cand_ids.add(p["id_a"])
        cand_ids.add(p["id_b"])
    texts = {}
    if cand_ids:
        id_arr = sorted(cand_ids)
        for row in rows_of(ds.map_batches(
            lambda df: df[df[id_col].isin(id_arr)][[id_col, text_col]],
            batch_format="pandas",
        )):
            texts[row[id_col]] = row[text_col]
    out = []
    for p in pair_list:
        ta, tb = texts.get(p["id_a"]), texts.get(p["id_b"])
        if ta is None or tb is None:
            continue  # endpoint absent from corpus — match the
            # distributed path's inner-join semantics (was: ''-default,
            # which scored phantom pairs jaccard('','') = 1.0)
        j = ngram_jaccard(ta, tb, k)
        if j >= threshold:
            out.append({"id_a": p["id_a"], "id_b": p["id_b"], "jaccard": j})
    return out


# ---------------------------------------------------------------------------
# Sparse term-frequency cosine pairs


def sparse_tf_cosine_pairs(ds, threshold: float = 0.5,
                           max_df_frac: float = 0.02, min_df: int = 2,
                           max_df: int | None = None, ngram_n: int = 1,
                           text_col: str = "text", id_col: str = "doc_id"):
    """Sparse term-frequency cosine similarity between documents:
    pairs whose raw-tf vectors have cosine >= ``threshold``, with the
    candidate set generated TERM-AT-A-TIME (the classic sparse-index
    approach) — never all document pairs.

    Exactness discipline: per-doc tf and norm^2 are exact integers
    computed per batch (a document never spans input rows); per-pair
    dot products are INTEGER sums through the shuffle, so they are
    associativity-proof; the only float op is the final
    ``dot / sqrt(n2a * n2b)`` — a single IEEE expression on identical
    exact integers, so the engine and a SQL replay agree bit-for-bit
    on the comparison and (after round-to-6) on the emitted value.

    Scale/skew guard: terms with document frequency above
    ``floor(max_df_frac * N)`` are EXCLUDED from candidate generation
    (stop-word-like terms explode C(df,2) and contribute little
    cosine mass). That makes this operator "cosine restricted to the
    df-pruned term space" — the dot is over pruned terms while norms
    cover the full vector, so reported cosine is a LOWER BOUND of the
    unpruned cosine; the pruning rule is part of the operator contract
    and the oracle replays it. Per-term pair emission is bounded by
    C(max_df, 2); the pair-keyed reduce is an integer sum.

    ``ngram_n``: terms are word n-grams (space-joined runs of n
    consecutive tokens) instead of single words — the right setting
    for low-vocabulary corpora where every unigram is stopword-dense.
    ``max_df``: absolute cap overriding the fraction — pass it on
    large corpora, where ``frac * N`` grows the per-term C(df, 2)
    candidate emission quadratically.

    Returns ``(id_a, id_b, dot, cos)`` with id_a < id_b.
    """
    from .retrieval import _TOKEN_RUN  # shared [a-z0-9]+ contract

    if max_df is None:
        n_docs = ds.count()
        max_df = max(min_df, int(np.floor(max_df_frac * n_docs)))

    def _tf(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized: explode via repeat, per-(doc, term) tf is exact
        # per batch because a document never spans input rows; n2 is
        # the doc's full-vector squared norm, attached to every tf row
        # so the pair stage never needs a separate norm join
        empty = pd.DataFrame({
            id_col: df[id_col].iloc[0:0],
            "term": pd.Series([], dtype=object),
            "tf": pd.Series([], dtype="int64"),
            "n2": pd.Series([], dtype="int64")})
        if not len(df):
            return empty
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RUN)
        if ngram_n > 1:
            toks = toks.map(lambda ws: [
                " ".join(ws[i:i + ngram_n])
                for i in range(len(ws) - ngram_n + 1)])
        n = toks.str.len().to_numpy()
        flat = pd.DataFrame({
            id_col: df[id_col].to_numpy().repeat(n),
            "term": np.concatenate(
                [np.asarray(t, dtype=object) for t in toks]
                + [np.array([], dtype=object)]),
        })
        if not len(flat):
            return empty
        out = (
            flat.groupby([id_col, "term"], sort=False)
            .size().rename("tf").reset_index()
        )
        out["tf"] = out["tf"].astype("int64")
        out["n2"] = (
            (out["tf"] ** 2).groupby(out[id_col]).transform("sum")
        ).astype("int64")
        return out[[id_col, "term", "tf", "n2"]]

    def _term_pairs(group: pd.DataFrame) -> pd.DataFrame:
        dfreq = len(group)
        if dfreq < min_df or dfreq > max_df:
            return None
        g = group.sort_values(id_col)
        ids = g[id_col].to_numpy()
        tf = g["tf"].to_numpy()
        n2 = g["n2"].to_numpy()
        ia, ib = np.triu_indices(dfreq, k=1)
        return pd.DataFrame({
            "id_a": ids[ia], "id_b": ids[ib],
            "prod": (tf[ia] * tf[ib]).astype("int64"),
            "n2a": n2[ia], "n2b": n2[ib]})

    def _pair_schema(sch):
        ids = sch.field(id_col).type
        return pa.schema([("id_a", ids), ("id_b", ids),
                          ("prod", pa.int64()), ("n2a", pa.int64()),
                          ("n2b", pa.int64())])

    tf_rows = ds.map_batches(_tf, batch_format="pandas")
    pair_parts = bucketed_group_apply(
        tf_rows, ["term"], _term_pairs, _pair_schema, min_group_size=min_df)

    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(["id_a", "id_b"], as_index=False).agg(
            dot=("prod", "sum"), n2a=("n2a", "first"), n2b=("n2b", "first"))
        cos = agg["dot"].to_numpy() / np.sqrt(
            (agg["n2a"] * agg["n2b"]).to_numpy().astype("float64"))
        keep = cos >= threshold
        out = agg.loc[keep, ["id_a", "id_b", "dot"]].copy()
        out["cos"] = np.round(cos[keep], 6)
        return out

    return exchange(
        pair_parts, ["id_a", "id_b"], _finalize,
        lambda sch: pa.schema([sch.field("id_a"), sch.field("id_b"),
                               ("dot", pa.int64()), ("cos", pa.float64())]))


# ---------------------------------------------------------------------------
# Incremental (cross-run) exact dedup


def _partition_files(state_dir, buckets):
    """Parquet files under the given bucket partitions (read_parquet
    accepts a LIST only of file paths, not directories)."""
    import os

    out = []
    for b in buckets:
        d = os.path.join(state_dir, f"bucket={b}")
        out.extend(
            os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        )
    return out


def line_dedup(ds, text_col="text", id_col="doc_id", sep="\n",
               line_words=None, keep_cols=()):
    """CCNet-style LINE-level dedup: every document is split into
    lines, the corpus-wide FIRST occurrence of each distinct line
    (minimum ``(doc_id, line_idx)``) is kept, every other copy is
    dropped from its document, and documents are reassembled in
    original line order. Returns ``(id_col, text_col)`` rows — one
    per input document, possibly with empty text when every line was
    a duplicate.

    ``line_words``: split into fixed windows of N whitespace tokens
    instead of on ``sep`` (for corpora without line structure);
    reassembly then joins with spaces. ``keep_cols``: per-document
    metadata columns (e.g. lang) carried through to the output.

    Scale shape: two coarse-bucket shuffles — one keyed by a line
    hash (winner marking happens per distinct line inside the
    bucket, so boilerplate lines shared by millions of docs never
    leave their bucket as pairs), one keyed by doc id for the
    reassembly; dropped lines cross the second shuffle as empty
    strings (only their doc_id is consumed), so its byte volume is
    the SURVIVING text. No driver-side state."""
    if line_words is not None and line_words < 1:
        raise ValueError(
            f"line_dedup: line_words must be >= 1, got {line_words}")
    joiner = " " if line_words else sep

    def _explode(df: pd.DataFrame) -> pd.DataFrame:
        if line_words:
            toks = df[text_col].fillna("").str.split()
            lines = toks.apply(lambda ws: [
                " ".join(ws[i:i + line_words])
                for i in range(0, len(ws), line_words)
            ] or [""])
        else:
            lines = df[text_col].fillna("").str.split(sep)
        out = pd.DataFrame({id_col: df[id_col].to_numpy(), "line": lines})
        for c in keep_cols:
            out[c] = df[c].to_numpy()
        out = out.explode("line", ignore_index=True)
        out["line"] = out["line"].fillna("")
        out["line_idx"] = out.groupby(id_col, sort=False).cumcount()
        return out

    def _mark(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values(["line", id_col, "line_idx"],
                               kind="mergesort")
        b["keep"] = ~b.duplicated(subset=["line"], keep="first")
        # dropped lines travel the doc-id shuffle as empty strings —
        # only their doc_id matters downstream
        b.loc[~b["keep"], "line"] = ""
        return b

    def _rebuild(bucket: pd.DataFrame) -> pd.DataFrame:
        kept = bucket[bucket["keep"]].sort_values(
            [id_col, "line_idx"], kind="mergesort")
        agg = kept.groupby(id_col, sort=False)["line"].agg(joiner.join)
        all_ids = pd.Index(bucket[id_col].unique())
        out = pd.DataFrame({
            id_col: all_ids.to_numpy(),
            text_col: agg.reindex(all_ids, fill_value="").to_numpy(),
        })
        if keep_cols:
            meta = bucket.groupby(id_col, sort=False)[
                list(keep_cols)].first()
            for c in keep_cols:
                out[c] = meta[c].reindex(all_ids).to_numpy()
        return out

    marked = exchange(
        ds.map_batches(_explode, batch_format="pandas"), "line", _mark,
        lambda sch: sch.append(pa.field("keep", pa.bool_())))
    return exchange(
        marked, id_col, _rebuild,
        lambda sch: pa.schema([sch.field(id_col), pa.field(text_col, pa.string())]
                              + [sch.field(c) for c in keep_cols]))


def _sweep_stages(state_dir):
    """Crash-window sweep for staged-partition state dirs: a crash
    between the two swap renames leaves `bucket=N.old.tmp` with no
    `bucket=N` — restore it (old state is strictly better than lost
    state); everything else staged is junk."""
    import os
    import shutil

    for name in os.listdir(state_dir):
        path = os.path.join(state_dir, name)
        if name.endswith(".old.tmp"):
            dst = path[: -len(".old.tmp")]
            if not os.path.isdir(dst):
                os.rename(path, dst)
            else:
                shutil.rmtree(path, ignore_errors=True)
        elif name.endswith(".tmp"):
            shutil.rmtree(path, ignore_errors=True)


def _swap_partitions(state_dir, stage, touched, part_key="bucket"):
    """Swap staged Hive partitions into place via the two-rename
    discipline (old kept as `.old.tmp` until the new dir is in place;
    `_sweep_stages` handles the crash window)."""
    import os
    import shutil

    for b in touched:
        src = os.path.join(stage, f"{part_key}={b}")
        dst = os.path.join(state_dir, f"{part_key}={b}")
        if not os.path.isdir(src):
            continue
        old = dst + ".old.tmp"
        if os.path.isdir(dst):
            os.rename(dst, old)
        os.rename(src, dst)
        shutil.rmtree(old, ignore_errors=True)
    shutil.rmtree(stage, ignore_errors=True)


_DELTA_COMMIT = "_commit.json"
_STATE_META = "_state_meta.json"


def _record_applied_delta(state_dir, fp, n_kept=0):
    """Idempotently fold a delta fingerprint into ``_state_meta.json``
    (atomic tmp+replace, ``ops/_replay.py``)."""
    import os

    from ._replay import record_applied_fp

    record_applied_fp(os.path.join(state_dir, _STATE_META), fp,
                      "applied_deltas", "reps_appended", n=n_kept)


def _applied_deltas(state_dir):
    import os

    from ._replay import applied_fps

    return applied_fps(os.path.join(state_dir, _STATE_META),
                       "applied_deltas")


def _recover_pending_delta(state_dir):
    """Finish a crash-interrupted incremental-minhash state update.
    ``_commit.json`` exists only AFTER both stage dirs are fully
    written (so their contents are trustworthy) and is removed only
    AFTER the fingerprint is recorded — a crash at any point between
    is completed here: surviving stages are swapped in (idempotent;
    already-swapped partitions are simply absent from the stage), the
    fp is folded into the meta, and the marker removed. Runs BEFORE
    ``_sweep_stages`` so committed stages are never swept as junk."""
    import json
    import os

    marker = os.path.join(state_dir, _DELTA_COMMIT)
    if not os.path.exists(marker):
        return
    try:
        with open(marker) as f:
            c = json.load(f)
    except FileNotFoundError:
        return  # lost a race with another recoverer — already handled
    except ValueError as e:
        # the marker is written atomically (tmp + os.replace), so a
        # present-but-unparseable marker means external damage, not a
        # pre-commit crash; discarding it would orphan a COMMITTED
        # delta's swap state — refuse instead of guessing
        raise RuntimeError(
            "corrupt %s in %s: the delta commit marker is written "
            "atomically, so this indicates external damage; inspect "
            "the stage dirs before removing it manually" %
            (_DELTA_COMMIT, state_dir)) from e
    # transient OSError (EIO, NFS hiccups) propagates: retrying later
    # is safe, deleting the marker is not
    for sub, key in (("sigs", "sig_touched"), ("bands", "band_touched")):
        d = os.path.join(state_dir, sub)
        stage = os.path.join(d, "_stage.tmp")
        if os.path.isdir(stage) and c.get(key):
            _swap_partitions(d, stage, c[key])
    if c.get("fp"):
        _record_applied_delta(state_dir, c["fp"], c.get("n_kept", 0))
    os.remove(marker)


def incremental_exact_dedup(state_dir, delta_ds, key: str = "text",
                            id_col: str = "doc_id"):
    """Exact dedup of an APPEND-ONLY corpus across micro-batches: each
    call dedups ``delta_ds`` against everything any previous call saw,
    returning ``(new_docs_ds, n_new)``. The continuous-crawl shape of
    ``exact_dedup`` — replaying deltas through this converges to the
    batch result (equality-tested in tests and oracle-checked by the
    doc_incremental_dedup query).

    State = one Hive partition per content-hash bucket
    (``bucket=N/``), each row a 16-byte md5 of the content plus its
    64-bit fingerprint — content is NEVER stored or shuffled, and
    state grows at fingerprint (not corpus-byte) cardinality. A delta
    touches only the buckets its own hashes land in: untouched
    partitions are neither read nor rewritten (same pruned-update
    discipline as model/store.update_linkset), so a small delta
    against a huge state does bounded work. Touched partitions are
    staged and swapped via rename; a crashed run leaves ``.tmp``
    stages that the next call sweeps.

    Duplicate detection is by content md5 within a fingerprint bucket
    (collision odds ~2^-64 per pair); within one delta the min
    ``id_col`` wins, matching ``exact_dedup``."""
    import hashlib
    import os
    import shutil

    import pyarrow as pa
    import ray.data as rd

    os.makedirs(state_dir, exist_ok=True)
    _sweep_stages(state_dir)

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        out = df.loc[df.groupby(key)[id_col].idxmin(), [id_col, key]].copy()
        fp = pd.util.hash_pandas_object(out[key], index=False).to_numpy()
        out["_fp"] = fp.astype("int64")
        out["_md5"] = [
            hashlib.md5(str(v).encode("utf-8")).hexdigest()
            for v in out[key]
        ]
        out["bucket"] = (fp % _STATE_BUCKETS).astype("int64")
        return out

    delta = delta_ds.map_batches(_local, batch_format="pandas").materialize()
    touched = sorted(
        int(b) for b in delta.unique("bucket")
    )  # bounded by _STATE_BUCKETS
    existing = [
        b for b in touched
        if os.path.isdir(os.path.join(state_dir, f"bucket={b}"))
    ]
    inputs = [delta]
    if existing:
        inputs.append(rd.read_parquet(
            _partition_files(state_dir, existing), columns=["_md5"]))

    def _merge(d: pd.DataFrame, state=None) -> pd.DataFrame:
        if not len(d):
            return None
        d = d.loc[d.groupby("_md5", sort=False)[id_col].idxmin()]
        if state is not None and len(state):
            d = d[~d["_md5"].isin(set(state["_md5"]))]
        return d

    new_docs = exchange(inputs, "_md5", _merge,
                        lambda sch, *_: sch).materialize()
    n_new = new_docs.count()

    # rewrite ONLY touched buckets: old rows of the bucket + new hashes
    if touched:
        stage = os.path.join(state_dir, "_stage.tmp")
        shutil.rmtree(stage, ignore_errors=True)
        upd = new_docs.select_columns(["_fp", "_md5", "bucket"])
        if existing:
            upd = upd.union(
                rd.read_parquet(_partition_files(state_dir, existing))
            )
        # state files carry only (_fp, _md5); (re-)derive the
        # partition column uniformly before the partitioned write
        upd = upd.map_batches(
            lambda df: df.assign(
                bucket=(
                    df["_fp"].to_numpy().astype(np.uint64) % _STATE_BUCKETS
                ).astype("int64")
            ),
            batch_format="pandas",
        )
        write_parquet_plain(upd, stage, ["bucket"])
        _swap_partitions(state_dir, stage, touched)

    return new_docs.select_columns([id_col, key]), n_new


def incremental_minhash_dedup(state_dir, delta_ds, text_col="text",
                              id_col="doc_id", num_perm=64, bands=16, k=3,
                              threshold=0.5,
                              max_bucket=2048):
    """NEAR-duplicate dedup of an APPEND-ONLY corpus across
    micro-batches — the MinHash/LSH sibling of
    ``incremental_exact_dedup``. Each call dedups ``delta_ds`` against
    every KEPT representative any previous call saw, returning
    ``(assign_ds, n_kept)`` where ``assign_ds`` has one row per delta
    doc ``(id_col, cluster)`` — ``cluster`` is a previous call's doc
    id for cross-delta near-dups — and ``n_kept`` counts the delta
    docs that became new representatives.

    Online semantics: a doc is KEPT iff it is not a near-dup (banded
    LSH collision + full-signature agreement >= threshold) of any
    previously-kept representative, with batch ``minhash_dedup``
    clustering WITHIN the delta (min doc id wins). Replaying deltas
    in id order converges to the batch result except when a later doc
    would have BRIDGED two clusters earlier calls kept separate —
    streaming cannot retract, the standard online-LSH divergence
    (equality-tested on bridge-free corpora in tests).

    State (all Hive-partitioned, touched-partition reads/writes only,
    same staged-rename crash discipline as the exact path):

    * ``bands/bucket=N``: (band, band_hash, rep) — ~24 B/band-row,
      REPRESENTATIVES ONLY, so state grows with kept-doc (not
      corpus-byte) cardinality. A delta probes only the buckets its
      own band hashes land in.
    * ``sigs/bucket=N``: (rep, sig) — one num_perm*8-byte signature
      per representative, read only for the buckets of candidate
      reps during verification.

    Driver-side work is bounded by the CANDIDATE count (LSH-colliding
    (doc, rep) pairs after the per-group ``max_bucket`` cap), never by
    delta or state cardinality; delta-cardinality joins (final-label
    attach, kept-row selection) are coarse-bucket shuffles.

    Replay safety: a delta's content fingerprint (doc count + an
    order-independent hash over every (id, signature) pair) is
    recorded in ``_state_meta.json`` as part of the staged commit
    (``_commit.json`` marker; a crash between staging and the record
    is completed by the next call), so RETRYING an already-applied
    delta returns the same assignments without appending duplicate
    representative rows — ``n_kept`` is 0 for a detected replay.
    Single-writer per state_dir, like ``incremental_exact_dedup``."""
    import os
    import shutil

    import pyarrow as pa
    import ray
    import ray.data as rd

    bands_dir = os.path.join(state_dir, "bands")
    sigs_dir = os.path.join(state_dir, "sigs")
    os.makedirs(bands_dir, exist_ok=True)
    os.makedirs(sigs_dir, exist_ok=True)
    # complete a crash-interrupted COMMITTED update first — its stages
    # must not be swept as junk
    _recover_pending_delta(state_dir)
    _sweep_stages(bands_dir)
    _sweep_stages(sigs_dir)

    params = (num_perm, bands, k, text_col, id_col)

    def _sig(batch: pd.DataFrame) -> pd.DataFrame:
        mh = _MINHASHER_CACHE.get(params)
        if mh is None:
            mh = MinHasher(num_perm=num_perm, bands=bands, k=k,
                           text_col=text_col, id_col=id_col)
            _MINHASHER_CACHE[params] = mh
        out = mh(batch)
        key = (
            out["band_hash"].to_numpy().astype(np.uint64) * _P1
            + out["band"].to_numpy().astype(np.uint64)
        )
        out["bucket"] = _stable_int_bucket(
            key.astype(np.int64), _STATE_BUCKETS).astype("int64")
        return out

    delta_sigs = delta_ds.map_batches(
        _sig, batch_format="pandas").materialize()
    n_sig_rows = delta_sigs.count()
    if not n_sig_rows:  # empty delta: nothing to dedup or store
        import pandas as _pd

        empty = rd.from_pandas(_pd.DataFrame({
            id_col: np.empty(0, dtype=np.int64),
            "cluster": np.empty(0, dtype=np.int64),
        }))
        return empty, 0

    # content fingerprint of the delta (doc count + order-independent
    # hash over every (id, signature) pair): a RETRY of a delta whose
    # state writes already completed re-probes its own representatives
    # — assignments stay correct (each rep matches itself), but the
    # state update would append duplicate rep rows, so it is skipped
    # and n_kept reported as 0 for detected replays
    def _fp_part(df: pd.DataFrame) -> pd.DataFrame:
        from ._replay import content_hash_part

        one = df[df["band"] == 0]
        if not len(one):
            return pd.DataFrame({"h": [0]})
        ids_h = pd.util.hash_pandas_object(
            one[id_col], index=False).to_numpy(np.uint64)
        sigm = np.stack(
            [np.frombuffer(s, dtype=np.uint64) for s in one["sig"]])
        return pd.DataFrame({"h": [content_hash_part(ids_h, sigm)]})

    fp_total = 0
    for b in delta_sigs.map_batches(
        _fp_part, batch_format="pandas"
    ).iter_batches(batch_format="pandas"):
        for v in b["h"].to_numpy():
            fp_total = (fp_total + int(v)) % (1 << 64)
    fp = "%d:%016x" % (n_sig_rows // max(bands, 1), fp_total)
    replay = fp in _applied_deltas(state_dir)

    # within-delta clustering — exact batch semantics inside the
    # delta; signatures are reused from delta_sigs (computed once)
    local_pairs = minhash_candidate_pairs(
        delta_ds, num_perm=num_perm, bands=bands, k=k, threshold=threshold,
        text_col=text_col, id_col=id_col, dedup=False, max_bucket=max_bucket,
        sigs=delta_sigs)
    local_assign = assign_clusters(
        delta_ds, local_pairs, id_col=id_col).materialize()

    touched = sorted(int(b) for b in delta_sigs.unique("bucket"))
    existing = [
        b for b in touched
        if os.path.isdir(os.path.join(bands_dir, f"bucket={b}"))
    ]

    # ---- probe: (delta doc, state rep) LSH candidates, then verify
    # against the rep's stored signature
    doc_to_rep: dict = {}
    if existing:

        def _tag_delta(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "band": df["band"].to_numpy(),
                "band_hash": df["band_hash"].to_numpy(),
                "_id": df[id_col].to_numpy().astype(np.int64),
                "_rep": np.full(len(df), -1, dtype=np.int64),
                "_kind": np.zeros(len(df), dtype=np.int8),
            })

        def _tag_state(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "band": df["band"].to_numpy(),
                "band_hash": df["band_hash"].to_numpy(),
                "_id": np.full(len(df), -1, dtype=np.int64),
                "_rep": df["rep"].to_numpy().astype(np.int64),
                "_kind": np.ones(len(df), dtype=np.int8),
            })

        def _pairs(group: pd.DataFrame) -> pd.DataFrame:
            d = group.loc[group["_kind"] == 0, "_id"].unique()
            s = group.loc[group["_kind"] == 1, "_rep"].unique()
            if not len(d) or not len(s):
                return None
            if len(s) > max_bucket:  # hot-bucket cap (see candidates)
                s = np.sort(s)[:max_bucket]
            if len(d) > max_bucket:
                d = np.sort(d)[:max_bucket]
            return pd.DataFrame({
                "_id": np.repeat(d, len(s)).astype(np.int64),
                "_rep": np.tile(s, len(d)).astype(np.int64),
            })

        probe = delta_sigs.map_batches(
            _tag_delta, batch_format="pandas"
        ).union(
            rd.read_parquet(_partition_files(bands_dir, existing))
            .map_batches(_tag_state, batch_format="pandas")
        )
        cand_schema = pa.schema({"_id": pa.int64(), "_rep": pa.int64()})
        cand = distinct_rows(
            bucketed_group_apply(probe, ["band", "band_hash"], _pairs,
                                 cand_schema, min_group_size=2),
            ["_id", "_rep"], cand_schema,
        ).to_pandas()  # candidate-cardinality — small by LSH design

        if len(cand):
            cand_reps = np.unique(cand["_rep"].to_numpy())
            rep_buckets = sorted(
                set(int(b) for b in
                    _stable_int_bucket(cand_reps, _STATE_BUCKETS)))
            rep_buckets = [
                b for b in rep_buckets
                if os.path.isdir(os.path.join(sigs_dir, f"bucket={b}"))
            ]
            rep_sig: dict = {}
            if rep_buckets:
                for batch in rd.read_parquet(
                    _partition_files(sigs_dir, rep_buckets)
                ).iter_batches(batch_format="pandas"):
                    hit = batch[batch["rep"].isin(cand_reps)]
                    for r, sg in zip(hit["rep"], hit["sig"]):
                        rep_sig[int(r)] = np.frombuffer(sg, dtype=np.uint64)
            cand_ids = set(int(i) for i in cand["_id"])

            def _doc_sigs(df: pd.DataFrame) -> pd.DataFrame:
                hit = df[(df["band"] == 0) & df[id_col].isin(cand_ids)]
                return hit[[id_col, "sig"]]

            doc_sig = {
                int(r[id_col]): np.frombuffer(r["sig"], dtype=np.uint64)
                for r in delta_sigs.map_batches(
                    _doc_sigs, batch_format="pandas").take_all()
            }
            for _id, _rep in zip(cand["_id"], cand["_rep"]):
                ds_, rs_ = doc_sig.get(int(_id)), rep_sig.get(int(_rep))
                if ds_ is None or rs_ is None:
                    continue
                if (ds_ == rs_).mean() >= threshold:
                    prev = doc_to_rep.get(int(_id))
                    if prev is None or _rep < prev:
                        doc_to_rep[int(_id)] = int(_rep)

    # ---- merge: a local cluster ANY member of which matched state
    # maps wholly onto the minimum matched rep
    override: dict = {}
    if doc_to_rep:
        matched_ids = set(doc_to_rep)

        def _matched_clusters(df: pd.DataFrame) -> pd.DataFrame:
            return df[df[id_col].isin(matched_ids)]

        for row in local_assign.map_batches(
            _matched_clusters, batch_format="pandas"
        ).take_all():  # matched-candidate-cardinality — small
            c, r = int(row["cluster"]), doc_to_rep[int(row[id_col])]
            if c not in override or r < override[c]:
                override[c] = r

    ov_ref = ray.put(override)

    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        ov = ray.get(ov_ref)
        if ov:
            df = df.copy()
            repl = df["cluster"].map(ov)  # NaN where no override
            df["cluster"] = repl.fillna(df["cluster"]).astype("int64")
        return df

    final = local_assign.map_batches(
        _finalize, batch_format="pandas").materialize()

    # ---- state update: append band + sig rows for NEW REPRESENTATIVES
    # (docs whose final cluster is their own id); kept-row selection is
    # a delta-cardinality coarse-bucket join on the doc id
    def _sig_rows_of(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={id_col: "rep"})[
            ["band", "band_hash", "rep", "sig", "bucket"]]

    def _kept_reps(df: pd.DataFrame) -> pd.DataFrame:
        kept = df[df[id_col].to_numpy() == df["cluster"].to_numpy()]
        return pd.DataFrame({"rep": kept[id_col].to_numpy().astype(np.int64)})

    def _kept_rows(rows: pd.DataFrame, kept: pd.DataFrame) -> pd.DataFrame:
        if not len(rows) or not len(kept):
            return None
        return rows[rows["rep"].isin(set(kept["rep"]))]

    kept_bands = exchange(
        [delta_sigs.map_batches(_sig_rows_of, batch_format="pandas"),
         final.map_batches(_kept_reps, batch_format="pandas")],
        "rep", _kept_rows,
        pa.schema({"band": pa.int64(), "band_hash": pa.int64(),
                   "rep": pa.int64(), "sig": pa.binary(),
                   "bucket": pa.int64()}),
    ).materialize()
    n_kept = kept_bands.count() // max(bands, 1)

    if touched and not replay:
        import json

        def _sig_rows(df: pd.DataFrame) -> pd.DataFrame:
            one = df[df["band"] == 0]
            out = one[["rep", "sig"]].copy()
            out["bucket"] = _stable_int_bucket(
                out["rep"].to_numpy().astype(np.int64), _STATE_BUCKETS
            ).astype("int64")
            return out

        new_sigs = kept_bands.map_batches(
            _sig_rows, batch_format="pandas").materialize()
        # unique() returns None on an empty dataset (no new reps)
        sig_u = new_sigs.unique("bucket") if n_kept else None
        sig_touched = sorted(int(b) for b in (sig_u or []))
        sig_existing = [
            b for b in sig_touched
            if os.path.isdir(os.path.join(sigs_dir, f"bucket={b}"))
        ]
        # stage BOTH tables fully before the commit marker: once the
        # marker exists the staged contents are trustworthy, and a
        # crash at any later point is completed by the next call's
        # _recover_pending_delta (swap remaining stages, record fp)
        sstage = os.path.join(sigs_dir, "_stage.tmp")
        shutil.rmtree(sstage, ignore_errors=True)
        if sig_touched:
            supd = new_sigs
            if sig_existing:
                supd = supd.union(
                    rd.read_parquet(_partition_files(sigs_dir, sig_existing))
                    .map_batches(
                        lambda df: df.assign(
                            bucket=_stable_int_bucket(
                                df["rep"].to_numpy().astype(np.int64),
                                _STATE_BUCKETS).astype("int64")),
                        batch_format="pandas",
                    )
                )
            write_parquet_plain(supd, sstage, ["bucket"])

        stage = os.path.join(bands_dir, "_stage.tmp")
        shutil.rmtree(stage, ignore_errors=True)
        upd = kept_bands.select_columns(["band", "band_hash", "rep", "bucket"])
        if existing:
            upd = upd.union(
                rd.read_parquet(_partition_files(bands_dir, existing))
                .map_batches(
                    lambda df: df.assign(
                        bucket=_stable_int_bucket(
                            (df["band_hash"].to_numpy().astype(np.uint64)
                             * _P1
                             + df["band"].to_numpy().astype(np.uint64)
                             ).astype(np.int64),
                            _STATE_BUCKETS).astype("int64")),
                    batch_format="pandas",
                )
            )
        write_parquet_plain(upd, stage, ["bucket"])

        marker = os.path.join(state_dir, _DELTA_COMMIT)
        tmpm = marker + ".tmp"
        with open(tmpm, "w") as f:
            json.dump({"fp": fp, "n_kept": int(n_kept),
                       "sig_touched": sig_touched,
                       "band_touched": touched}, f)
        os.replace(tmpm, marker)
        # sig table swaps FIRST (one row per new rep): a crash between
        # the two swaps then leaves only an orphan signature — dead
        # data — whereas bands-first would leave probe-able reps whose
        # verification silently skips
        if sig_touched:
            _swap_partitions(sigs_dir, sstage, sig_touched)
        _swap_partitions(bands_dir, stage, touched)
        _record_applied_delta(state_dir, fp, n_kept)
        os.remove(marker)

    return final.select_columns([id_col, "cluster"]), (
        0 if replay else n_kept)


# ---------------------------------------------------------------------------
# Cross-document duplicated-span detection (exact-substring dedup)


def dup_spans(ds, text_col="text", id_col="doc_id", k=8, min_docs=2):
    """Cross-document duplicated-SPAN detection: the exact-substring
    dedup of "Deduplicating Training Data Makes Language Models
    Better" (Lee et al. 2022), re-expressed for Ray Data as k-token-
    gram duplicate runs instead of a monolithic corpus suffix array
    (which cannot stream). A k-gram is *duplicated* when it occurs in
    at least ``min_docs`` DISTINCT documents; within each document,
    maximal runs of consecutive duplicated k-gram start positions
    collapse to one span covering tokens ``span_start .. span_end``
    (inclusive, 0-based; ``span_end`` is the last token of the last
    duplicated gram in the run). This finds every duplicated token
    substring of length >= k shared by >= min_docs documents — the
    same guarantee the suffix-array formulation gives for threshold k.

    Scale shape: two coarse-bucket shuffles. Pass 1 buckets k-grams by
    a dtype-agnostic hash of the gram STRING (the string itself rides
    the shuffle so hash collisions can never merge distinct grams) and
    keeps positions whose gram clears the distinct-document bar; pass
    2 re-buckets the surviving (doc, position) rows by document id and
    collapses runs vectorized. Volume is proportional to total corpus
    tokens — never all-pairs, and nothing lands driver-side.

    Returns a Dataset of ``(id_col, span_start, span_end)`` rows.
    Tokenization is ``str.split()`` (any-whitespace), replayable in
    SQL as ``regexp_split_to_array(trim(text), '\\s+')``.
    """

    def _grams(df: pd.DataFrame) -> pd.DataFrame:
        ids, poss, grams = [], [], []
        for did, txt in zip(df[id_col].to_numpy(), df[text_col].to_numpy()):
            toks = (txt or "").split()
            n = len(toks) - k + 1
            if n <= 0:
                continue
            ids.extend([did] * n)
            poss.extend(range(n))
            grams.extend(
                " ".join(toks[p:p + k]) for p in range(n))
        out = pd.DataFrame({
            id_col: np.asarray(ids, dtype=np.int64),
            "pos": np.asarray(poss, dtype=np.int64),
            "gram": pd.Series(grams, dtype=object),
        })
        return out

    def _mark(bucket: pd.DataFrame) -> pd.DataFrame:
        nuniq = bucket.groupby("gram")[id_col].transform("nunique")
        return bucket.loc[nuniq >= min_docs, [id_col, "pos"]]

    def _spans(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values([id_col, "pos"], kind="mergesort")
        did = g[id_col].to_numpy()
        pos = g["pos"].to_numpy()
        # Maximal runs of consecutive duplicated-gram starts per doc
        # (gaps-and-islands): a new island opens whenever the doc id
        # changes or the position is not the predecessor + 1.
        brk = np.empty(len(g), dtype=bool)
        brk[0] = True
        brk[1:] = (did[1:] != did[:-1]) | (pos[1:] != pos[:-1] + 1)
        isl = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:] - 1, len(g) - 1]
        return pd.DataFrame({
            id_col: did[starts],
            "span_start": pos[starts],
            "span_end": pos[ends] + (k - 1),
        })

    grams = ds.map_batches(_grams, batch_format="pandas")
    hits = exchange(grams, "gram", _mark,
                    pa.schema({id_col: pa.int64(), "pos": pa.int64()}))
    return exchange(hits, id_col, _spans, _SPANS(id_col))


def _SPANS(id_col):
    return pa.schema({id_col: pa.int64(), "span_start": pa.int64(),
                      "span_end": pa.int64()})


def remove_dup_spans(ds, spans=None, text_col="text", id_col="doc_id",
                     k=8, min_docs=2):
    """Strip every duplicated span found by :func:`dup_spans` from its
    document and reassemble the surviving tokens in order (single-
    space joined). Unlike first-wins line dedup this removes ALL
    copies — the Lee et al. policy for substring dedup, where keeping
    one copy is handled upstream by document-level dedup. One extra
    doc-keyed coarse-bucket shuffle joins spans back to their
    documents; documents with no duplicated span pass through intact.

    Returns ``(id_col, text_col)`` rows, one per input document.
    """
    if spans is None:
        spans = dup_spans(ds, text_col=text_col, id_col=id_col, k=k,
                          min_docs=min_docs)

    def _strip(docs: pd.DataFrame, sp: pd.DataFrame) -> pd.DataFrame:
        if not len(docs):
            return None
        by_doc = {d: list(zip(g["span_start"].to_numpy(),
                              g["span_end"].to_numpy()))
                  for d, g in sp.groupby(id_col)} if len(sp) else {}
        ids_out, txt_out = [], []
        for did, txt in zip(docs[id_col].to_numpy(),
                            docs[text_col].to_numpy()):
            toks = (txt or "").split()
            cuts = by_doc.get(did)
            if cuts:
                keep = np.ones(len(toks), dtype=bool)
                for a, b in cuts:
                    keep[a:b + 1] = False
                toks = [t for t, kf in zip(toks, keep) if kf]
            ids_out.append(did)
            txt_out.append(" ".join(toks))
        return pd.DataFrame({id_col: ids_out, text_col: txt_out})

    return exchange(
        [ds.select_columns([id_col, text_col]), spans], id_col, _strip,
        pa.schema({id_col: pa.int64(), text_col: pa.string()}))


def edit_distance_join(left, right, col, right_col=None, id_col="doc_id",
                       right_id_col=None):
    """Bipartite Levenshtein-distance-<=1 record linkage: match rows
    of ``left`` against rows of ``right`` whose strings are within
    edit distance 1 — the clean-entities-vs-noisy-feed step of KG
    construction (gazetteer vs crawled mentions, master records vs a
    corrupted re-crawl). Same FastSS deletion-neighborhood blocking as
    :func:`edit_distance_pairs` (two strings within distance 1 always
    share a deletion variant), but candidates are CROSS-side variant
    collisions only — one tagged coarse-bucket shuffle of
    (variant, side, id) rows, never a cross join — and every candidate
    verifies with the exact O(len) distance-<=1 check, so blocking
    changes cost, never the answer.

    Returns ``(id_l, id_r, dist)`` with dist in {0, 1}. Variant volume
    is ~len(s)+1 rows per string; cap very long strings upstream.
    """
    rcol = right_col or col
    rid = right_id_col or id_col

    def _variants(c, i, side):
        def _v(df: pd.DataFrame) -> pd.DataFrame:
            ids, variants, origs = [], [], []
            for i_, s in zip(df[i], df[c].fillna("")):
                ids.append(i_)
                variants.append(s)
                origs.append(s)
                for k in range(len(s)):
                    ids.append(i_)
                    variants.append(s[:k] + s[k + 1:])
                    origs.append(s)
            out = pd.DataFrame({"_var": variants, "_id": ids, "_s": origs})
            out["_side"] = np.int8(side)
            return out
        return _v

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        ls = group[group["_side"] == 0].drop_duplicates(["_id"])
        rs = group[group["_side"] == 1].drop_duplicates(["_id"])
        rows = []
        for il, sl in zip(ls["_id"], ls["_s"]):
            for ir, sr in zip(rs["_id"], rs["_s"]):
                if _edit_distance_leq1(sl, sr):
                    rows.append((int(il), int(ir), int(sl != sr)))
        return pd.DataFrame(rows, columns=["id_l", "id_r", "dist"])

    schema = pa.schema({"id_l": pa.int64(), "id_r": pa.int64(),
                        "dist": pa.int64()})
    cands = bucketed_group_apply(
        left.map_batches(_variants(col, id_col, 0), batch_format="pandas")
        .union(right.map_batches(
            _variants(rcol, rid, 1), batch_format="pandas")),
        ["_var"], _pairs, schema, min_group_size=2,
    )
    return distinct_rows(cands, ["id_l", "id_r"], schema)


def _winnow_hash_md5(text: str, k: int, m: int) -> "np.ndarray":
    """Oracle-replayable gram hashes: md5_number_upper convention
    (little-endian first 8 digest bytes), one digest per gram."""
    import hashlib

    raw = b"".join(
        hashlib.md5(text[i:i + k].encode("utf-8")).digest()[:8]
        for i in range(m)
    )
    return np.frombuffer(raw, dtype="<u8")


def _winnow_hash_poly(text: str, k: int, m: int) -> "np.ndarray":
    """Production gram hashes: polynomial hash over the utf-8 bytes
    with uint64 wraparound (B = 0x100000001b3, the FNV prime — odd, so
    the map is a bijection per position). Fully vectorized (one
    windowed multiply-accumulate, no per-gram Python), ~30x faster
    than the md5 path; NOT SQL-replayable, hence the queries() entry
    pins hasher='md5'. Positions with multi-byte codepoints shift
    byte-wise rather than char-wise — fingerprint quality is
    unaffected (hashes stay content-local), only the replay contract
    changes, which this hasher does not offer anyway."""
    from numpy.lib.stride_tricks import sliding_window_view

    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    kk = min(k, len(data))
    powers = np.empty(kk, dtype=np.uint64)
    acc = 1
    for i in range(kk - 1, -1, -1):
        powers[i] = acc
        # masked Python ints: the 2**64 wraparound is the modulus, and
        # a numpy scalar multiply would warn on every wrap
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    win = sliding_window_view(data, kk).astype(np.uint64)
    h = (win * powers).sum(axis=1, dtype=np.uint64)
    return h[:m]


_WINNOW_HASHERS = {"md5": _winnow_hash_md5, "poly": _winnow_hash_poly}


def winnow_fingerprints(ds, text_col="text", id_col="doc_id", k=8, w=8,
                        hasher="md5"):
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD 2003 — the MOSS sketch; reference parity: the reference has
    no fingerprinting op, this is engine-added curation surface).

    Per document: md5 hashes of the character k-grams, a sliding
    window over ``w`` consecutive gram hashes, and the window MINIMUM
    is selected — ties break to the RIGHTMOST minimal hash (the
    paper's robust-winnowing rule), selected positions deduped per
    document. Guarantee: any substring of length >= w + k - 1 shared
    by two documents shares at least one selected fingerprint, so
    overlap detection never needs all-pairs comparison.

    Pure per-document map — NO shuffle; linear in corpus bytes and
    embarrassingly parallel, the 100-TB shape for sketching.
    ``hasher``: 'md5' (default) is the md5_number_upper convention
    (little-endian first 8 md5 digest bytes; the window min compares
    UNSIGNED; fingerprints emit as two's-complement int64, positions
    1-based) so a DuckDB oracle replays the selection bit-exactly;
    'poly' is the vectorized wraparound polynomial fast path for
    production sketching (same selection rule, no per-gram Python,
    no SQL replay).

    Returns (id_col, pos:int64 1-based gram start, fp:int64).
    """
    from numpy.lib.stride_tricks import sliding_window_view

    hash_fn = _WINNOW_HASHERS[hasher]

    def _empty():
        return pd.DataFrame({
            id_col: np.empty(0, dtype=np.int64),
            "pos": np.empty(0, dtype=np.int64),
            "fp": np.empty(0, dtype=np.int64),
        })

    def _select(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for did, text in zip(df[id_col].to_numpy(), df[text_col].fillna("")):
            m = len(text) - k + 1
            if m < w:
                continue  # winnowing needs at least one full window
            h = hash_fn(text, k, m)
            win = sliding_window_view(h, w)
            # argmin on the REVERSED window = rightmost min (tie rule)
            idx = (w - 1 - win[:, ::-1].argmin(axis=1)) + np.arange(m - w + 1)
            sel = np.unique(idx)
            outs.append(pd.DataFrame({
                id_col: np.full(len(sel), did, dtype=np.int64),
                "pos": (sel + 1).astype(np.int64),
                "fp": h[sel].view(np.int64),
            }))
        if not outs:
            return _empty()
        return pd.concat(outs, ignore_index=True)

    return ds.map_batches(_select, batch_format="pandas")


def winnow_overlap_pairs(ds, text_col="text", id_col="doc_id", k=8, w=8,
                         min_shared=2, max_fp_docs=64,
                         hasher="md5"):
    """Document-overlap candidate pairs from shared winnowing
    fingerprints — the plagiarism/boilerplate-passage detector.

    Candidates come from fingerprint EQUALITY (never all pairs): a
    fingerprint-keyed coarse-bucket shuffle emits, per fingerprint,
    the pairs of the (sorted, distinct) documents selecting it; a
    second pair-keyed bucket shuffle sums shared-fingerprint counts
    vectorized and keeps pairs with >= ``min_shared``. Fingerprints
    selected by more than ``max_fp_docs`` documents are dropped before
    pair emission — the stopword-grade-passage hub cap, a documented
    UNDERCOUNT knob (same convention as neighborhood_jaccard's
    max_degree): capped fingerprints contribute 0 to every pair's
    shared count.

    Returns (id_a, id_b, shared:int64) with id_a < id_b.
    """
    fps = winnow_fingerprints(ds, text_col=text_col, id_col=id_col, k=k,
                              w=w, hasher=hasher)

    # a document's rows are emitted by one map call, so per-batch
    # drop_duplicates is globally exact for the (doc, fp) distinct set
    def _distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates([id_col, "fp"])[[id_col, "fp"]]

    dfp = fps.map_batches(_distinct, batch_format="pandas")

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(group[id_col].to_numpy())
        if len(ids) > max_fp_docs:
            return None
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})

    cands = bucketed_group_apply(
        dfp, ["fp"], _pairs, _PAIRS, min_group_size=2)

    def _count(bucket: pd.DataFrame) -> pd.DataFrame:
        counts = (
            bucket.groupby(["id_a", "id_b"], sort=False)
            .size().rename("shared").reset_index()
        )
        return counts[counts["shared"] >= min_shared]

    return exchange(cands, ["id_a", "id_b"], _count,
                    _pair_schema("shared", pa.int64()))


def winnow_containment_pairs(ds, text_col="text", id_col="doc_id", k=8,
                             w=8, min_shared=2, max_fp_docs=64, hasher="md5"):
    """Asymmetric overlap detection on winnowing sketches: for every
    pair sharing >= ``min_shared`` fingerprints, emit
    ``(id_a, id_b, shared, n_a, n_b)`` — shared fingerprint count plus
    BOTH documents' distinct-fingerprint sketch sizes, so callers can
    compute containment ``shared / min(n_a, n_b)`` (the
    quote/partial-plagiarism signal near-dup Jaccard misses: a short
    doc fully quoted inside a long one has low Jaccard but containment
    ~1). All integers, so the result replays exactly in SQL.

    Pipeline: :func:`winnow_overlap_pairs` supplies the (hub-capped)
    pair candidates; per-doc sketch sizes come from a per-batch
    groupby (a document's fingerprints are emitted by one map call, so
    batch-local counts are globally exact); sizes attach to the pairs
    through two tagged coarse-bucket joins keyed on each endpoint —
    pair volume never joins against the corpus, only against the
    doc-cardinality count table.
    """
    pairs = winnow_overlap_pairs(
        ds, text_col=text_col, id_col=id_col, k=k, w=w,
        min_shared=min_shared, max_fp_docs=max_fp_docs, hasher=hasher)

    fps = winnow_fingerprints(
        ds, text_col=text_col, id_col=id_col, k=k, w=w, hasher=hasher)

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates([id_col, "fp"])
             .groupby(id_col, sort=False).size())
        return pd.DataFrame({
            id_col: g.index.to_numpy(dtype=np.int64),
            "n_fp": g.to_numpy(dtype=np.int64)})

    # consumed once per endpoint pass — materialize so the winnow
    # hashing is not recomputed per consumption
    counts = fps.map_batches(_counts, batch_format="pandas").materialize()

    def _attach(side, out_col):
        def _join(p: pd.DataFrame, c: pd.DataFrame) -> pd.DataFrame:
            if not len(p):
                return None
            n = (dict(zip(c[id_col], c["n_fp"])) if len(c) else {})
            return p.assign(**{out_col: p[side].map(n).fillna(0)})

        return _join

    cur = pairs
    schema = _pair_schema("shared", pa.int64())
    for side, out_col in (("id_a", "n_a"), ("id_b", "n_b")):
        schema = schema.append(pa.field(out_col, pa.int64()))
        cur = exchange([cur, counts], [[side], [id_col]],
                       _attach(side, out_col), schema)
    return cur
