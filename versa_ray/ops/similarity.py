"""Similarity search over an embedding column.

* ``knn_bruteforce`` — exact top-k cosine: the query matrix is
  broadcast once (ray.put); every batch computes a numpy matmul and
  emits its LOCAL top-k per query (combiner), and a final tiny
  groupby per query merges partials. Wall-clock scales with corpus /
  cluster, driver never sees more than queries×k×blocks rows.
* ``knn_lsh`` — the scale path: random-hyperplane bucketing with
  multi-probe (flip each plane), exact rerank inside candidate
  buckets only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import bucketed_group_apply, exchange


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def knn_bruteforce(ds, query_vecs, query_ids, k=5, vec_col="embedding",
                   id_col="vec_id", exclude_self=True, round_to=None):
    """Exact top-k cosine neighbors for each query vector."""
    import ray

    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qids = np.asarray(query_ids)
    qref = ray.put((qmat, qids))

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        qm, qi = ray.get(qref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        ids = df[id_col].to_numpy()
        sims = qm @ mat.T  # (nq, nb)
        out = {"qid": [], "nid": [], "sim": []}
        kk = min(k + (1 if exclude_self else 0), sims.shape[1])
        for qx in range(sims.shape[0]):
            row = sims[qx]
            top = np.argpartition(-row, kk - 1)[:kk]
            top = top[np.lexsort((ids[top], -row[top]))]
            for ix in top:
                if exclude_self and ids[ix] == qi[qx]:
                    continue
                out["qid"].append(qi[qx])
                out["nid"].append(ids[ix])
                out["sim"].append(row[ix])
        return pd.DataFrame(out)

    partials = ds.map_batches(_local_topk, batch_format="pandas")

    return _merge_topk(partials, k, round_to)


def _merge_topk(partials, k, round_to=None):
    """Per-query top-k of ``(qid, nid, sim)`` partials, ranked by sim
    desc then nid, with a 1-based ``rank``."""

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sim", "nid"], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        if round_to is not None:
            g["sim"] = g["sim"].round(round_to)
        return g

    return bucketed_group_apply(
        partials, ["qid"], _merge,
        lambda sch: sch.append(pa.field("rank", pa.int64())))


def train_ivf_centroids(ds, n_cells=16, sample_size=2048, n_iters=10,
                        vec_col="embedding", seed=17) -> np.ndarray:
    """Coarse quantizer for IVF: k-means over a bounded SAMPLE of the
    corpus (driver-side numpy on sample_size rows — never the corpus),
    spherical (cosine) metric. Deterministic: fixed seed, fixed
    iteration count, ties broken by lowest centroid index."""
    sample = ds.limit(sample_size).to_pandas()
    mat = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    cents = mat[rng.choice(len(mat), size=min(n_cells, len(mat)), replace=False)]
    for _ in range(n_iters):
        assign = np.argmax(mat @ cents.T, axis=1)
        for c in range(len(cents)):
            members = mat[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def knn_ivf(ds, query_vecs, query_ids, centroids, k=5, nprobe=4,
            vec_col="embedding", id_col="vec_id"):
    """IVF approximate top-k: corpus vectors are assigned to their
    nearest centroid cell (broadcast centroids, one matmul per batch);
    only vectors in any query's ``nprobe`` closest cells survive to the
    exact rerank. The scale path when hyperplane LSH recall is poor:
    cells adapt to the data distribution instead of random planes."""
    import ray

    cents = _normalize(np.asarray(centroids, dtype=np.float64))
    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qids = np.asarray(query_ids)
    qcells = np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe]
    probe = np.unique(qcells)
    ref = ray.put((cents, probe))

    def _candidates(df: pd.DataFrame) -> pd.DataFrame:
        c, pr = ray.get(ref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        cells = np.argmax(mat @ c.T, axis=1)
        return df[np.isin(cells, pr)]

    candidates = ds.map_batches(_candidates, batch_format="pandas")
    return knn_bruteforce(
        candidates, qmat, qids, k=k, vec_col=vec_col, id_col=id_col
    )


def knn_lsh(ds, query_vecs, query_ids, dim, k=5, n_planes=8, n_tables=4,
            vec_col="embedding", id_col="vec_id", seed=13, multiprobe=True):
    """Approximate top-k: multi-table hyperplane LSH. The corpus is
    coded against ``n_tables`` independent plane sets; a vector is a
    candidate if it lands in the query's bucket (or a single-bit-flip
    probe bucket) in ANY table, then candidates are exact-reranked.
    OR-amplification across tables is what keeps recall up when a
    single table's 2^n_planes partition splits true neighbors."""
    import ray

    rng = np.random.RandomState(seed)
    planes = rng.randn(dim, n_planes * n_tables)
    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qids = np.asarray(query_ids)

    pw = 1 << np.arange(n_planes)
    qbits = (qmat @ planes) > 0
    probes = []  # per table: sorted array of probe codes
    for t in range(n_tables):
        sub = qbits[:, t * n_planes:(t + 1) * n_planes]
        qcodes = (sub * pw).sum(axis=1)
        probe = set()
        for code in qcodes:
            probe.add(int(code))
            if multiprobe:
                for b in range(n_planes):
                    probe.add(int(code) ^ (1 << b))
        probes.append(np.fromiter(probe, dtype=np.int64))

    planes_ref = ray.put(planes)
    probes_ref = ray.put(probes)

    def _candidates(df: pd.DataFrame) -> pd.DataFrame:
        pl, prs = ray.get(planes_ref), ray.get(probes_ref)
        mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        bits = (mat @ pl) > 0
        mask = np.zeros(len(df), dtype=bool)
        for t in range(n_tables):
            sub = bits[:, t * n_planes:(t + 1) * n_planes]
            codes = (sub * pw).sum(axis=1).astype(np.int64)
            mask |= np.isin(codes, prs[t])
        return df[mask]

    candidates = ds.map_batches(_candidates, batch_format="pandas")
    return knn_bruteforce(
        candidates, qmat, qids, k=k, vec_col=vec_col, id_col=id_col
    )


def train_pq_codebooks(ds, dim, m=8, nbits=8, sample_size=2048, n_iters=10,
                       vec_col="embedding", seed=29) -> np.ndarray:
    """Product-quantization codebooks: k-means per subspace over a
    bounded driver-side SAMPLE (never the corpus), L2 metric on
    unit-normalized vectors. Returns ``(m, 2**nbits, dim//m)``.
    Deterministic (fixed seed/iters, lowest-index tie-break). PQ is
    the memory side of the scale story: a float32 vector of ``dim``
    compresses to ``m`` bytes, so a 100-TB embedding column's codes
    fit in cluster RAM for ADC scans."""
    assert dim % m == 0, "dim must divide evenly into m subspaces"
    sub = dim // m
    ncent = 1 << nbits
    sample = ds.limit(sample_size).to_pandas()
    mat = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    books = np.empty((m, min(ncent, len(mat)), sub))
    for j in range(m):
        x = mat[:, j * sub:(j + 1) * sub]
        cents = x[rng.choice(len(x), size=books.shape[1], replace=False)]
        for _ in range(n_iters):
            d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(len(cents)):
                members = x[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
        books[j] = cents
    return books



def _pq_assign_codes(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Per-subspace nearest-centroid codes for unit-normalized rows —
    the ONE assignment rule shared by the encoder and the ADC search
    (they must never drift apart). ``||x-c||^2`` argmin computed as
    ``argmax(2 x.c - ||c||^2)``."""
    m, _, sub = books.shape
    codes = np.empty((len(mat), m), dtype=np.uint8)
    for j in range(m):
        x = mat[:, j * sub:(j + 1) * sub]
        codes[:, j] = np.argmax(
            2 * (x @ books[j].T) - (books[j] ** 2).sum(axis=1), axis=1)
    return codes


def pq_encode(ds, codebooks, vec_col="embedding", id_col="vec_id"):
    """Encode the corpus to PQ codes: ``(vec_id, code)`` with code a
    uint8 list of length m. One broadcast + one streaming pass; per
    batch the assignment is a vectorized argmin against each
    subspace's codebook."""
    import ray

    ref = ray.put(np.asarray(codebooks))

    def _encode(df: pd.DataFrame) -> pd.DataFrame:
        books = ray.get(ref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        codes = _pq_assign_codes(mat, books)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "code": list(codes),
        })

    return ds.map_batches(_encode, batch_format="pandas")


def knn_pq(ds, query_vecs, query_ids, codebooks, k=5,
           vec_col="embedding", id_col="vec_id", exclude_self=True):
    """Approximate top-k via asymmetric distance computation (ADC):
    each query precomputes an ``(m, ncent)`` table of subspace inner
    products; per batch the corpus is PQ-encoded (in a real
    deployment the stored codes are read instead) and a query's score
    for a vector is ``m`` table lookups summed — no full-dimension
    math against the corpus. Candidates = per-block local top-k, then
    the standard tiny per-query merge."""
    import ray

    books = np.asarray(codebooks)
    m, ncent, sub = books.shape
    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qids = np.asarray(query_ids)
    # tables[q, j, c] = q_sub(j) . codebook[j][c]
    tables = np.einsum("qjs,jcs->qjc", qmat.reshape(len(qmat), m, sub),
                       books)
    ref = ray.put((books, tables))

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        bks, tbl = ray.get(ref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        ids = df[id_col].to_numpy()
        codes = _pq_assign_codes(mat, bks).astype(np.int64)
        # ADC: score[q, i] = sum_j tbl[q, j, codes[i, j]]
        nq = tbl.shape[0]
        out = {"qid": [], "nid": [], "sim": []}
        kk = min(k + (1 if exclude_self else 0), len(df))
        for qx in range(nq):
            score = tbl[qx][np.arange(m)[None, :], codes].sum(axis=1)
            top = np.argpartition(-score, kk - 1)[:kk]
            top = top[np.lexsort((ids[top], -score[top]))]
            for ix in top:
                if exclude_self and ids[ix] == qids[qx]:
                    continue
                out["qid"].append(qids[qx])
                out["nid"].append(ids[ix])
                out["sim"].append(score[ix])
        return pd.DataFrame(out)

    partials = ds.map_batches(_local_topk, batch_format="pandas")

    return _merge_topk(partials, k)


def build_ann_index(ds, index_dir, dim, n_cells=16, m=8, nbits=8,
                    vec_col="embedding", id_col="vec_id"):
    """Persist an IVF-PQ index: build ONCE, search many times without
    ever touching raw vectors again.

    Layout under ``index_dir``: ``quantizers.npz`` (IVF centroids +
    PQ codebooks, KB-sized), ``_ann_meta.json``, and
    ``codes/cell=N/*.parquet`` rows of ``(vec_id, code: m uint8)`` —
    Hive-partitioned by coarse cell so a search with ``nprobe`` cells
    prunes to those partition directories at the FILE level. The
    corpus pass is one streaming map (assign cell, PQ-encode) plus the
    partitioned write; at 100 TB the codes are ~m bytes/vector, the
    piece that actually fits an index serving tier."""
    import json
    import os

    cents = train_ivf_centroids(ds, n_cells=n_cells, vec_col=vec_col)
    books = train_pq_codebooks(ds, dim=dim, m=m, nbits=nbits,
                               vec_col=vec_col)
    os.makedirs(index_dir, exist_ok=True)
    np.savez(os.path.join(index_dir, "quantizers.npz"),
             centroids=cents, codebooks=books)
    with open(os.path.join(index_dir, "_ann_meta.json"), "w") as f:
        json.dump({"dim": dim, "n_cells": int(len(cents)), "m": m,
                   "nbits": nbits, "id_col": id_col}, f)

    import ray

    ref = ray.put((cents, books))

    def _encode(df: pd.DataFrame) -> pd.DataFrame:
        c, b = ray.get(ref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        cells = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        codes = _pq_assign_codes(mat, b)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cell": cells,
            "code": list(codes),
        })

    ds.map_batches(_encode, batch_format="pandas").write_parquet(
        os.path.join(index_dir, "codes"), partition_cols=["cell"])
    return index_dir


_APPEND_COMMIT = "_COMMITTED"


def _complete_pending_append(index_dir, sweep_uncommitted=False):
    """Finish a crash-interrupted append. The stage is trustworthy
    only once its ``_COMMITTED`` marker exists (written AFTER
    write_parquet returns): a marker-less stage may hold truncated
    parquet files from a crash mid-write and is junk — deleted when
    ``sweep_uncommitted`` (writer paths), left alone otherwise
    (reader paths, where it may belong to a LIVE concurrent append).
    Committed moves are idempotent (each file vanishes from the stage
    once moved) and tolerate a concurrent completer racing the same
    files. The marker carries the append's fingerprint and row count,
    which are folded into ``_ann_meta.json`` (atomic replace) AFTER
    the moves and BEFORE the stage is deleted — a crash at any point
    leaves either the marker (so the next call re-records; recording
    is idempotent) or a fully recorded meta, so a completed append
    can never be replayed as a duplicate."""
    import json
    import os
    import shutil

    stage = os.path.join(index_dir, "codes_stage.tmp")
    if not os.path.isdir(stage):
        return
    marker = os.path.join(stage, _APPEND_COMMIT)
    if not os.path.exists(marker):
        if sweep_uncommitted:
            shutil.rmtree(stage, ignore_errors=True)
        return
    try:
        with open(marker) as f:
            payload = json.loads(f.read())
        fp, n = payload.get("fp"), int(payload.get("n", 0))
    except (ValueError, OSError):
        fp, n = None, 0  # legacy/corrupt marker: moves only
    live = os.path.join(index_dir, "codes")
    for part in os.listdir(stage):
        src_dir = os.path.join(stage, part)
        if not (part.startswith("cell=") and os.path.isdir(src_dir)):
            continue
        dst_dir = os.path.join(live, part)
        os.makedirs(dst_dir, exist_ok=True)
        for f in os.listdir(src_dir):
            if f.endswith(".parquet"):
                try:
                    os.replace(os.path.join(src_dir, f),
                               os.path.join(dst_dir, f))
                except FileNotFoundError:
                    pass  # a concurrent completer won the race
    if fp:
        _record_applied_append(index_dir, fp, n)
    shutil.rmtree(stage, ignore_errors=True)


def _record_applied_append(index_dir, fp, n):
    """Idempotently fold an append fingerprint (+ its row count) into
    ``_ann_meta.json`` — shared discipline with the incremental-
    minhash state's delta history (``ops/_replay.py``)."""
    import os

    from ._replay import record_applied_fp

    record_applied_fp(os.path.join(index_dir, "_ann_meta.json"), fp,
                      "applied_appends", "rows_appended", n=n,
                      require_meta=True)


def _append_fingerprint(encoded, id_col):
    """Content fingerprint of an encoded delta: row count, id range,
    and an order-independent 64-bit hash folding every (id, code)
    pair — so a replayed delta is recognized whatever its block
    order, while a DIFFERENT delta that happens to span the same id
    range (e.g. re-encoded/corrected vectors) hashes differently and
    is appended rather than silently skipped. Count, id range, and
    hash all come out of ONE map pass over the delta (no separate
    count/min/max jobs). Returns ``(fp, n)``."""
    def _part_hash(df: pd.DataFrame) -> pd.DataFrame:
        from ._replay import content_hash_part

        if not len(df):
            return pd.DataFrame({"h": [], "n": [], "lo": [], "hi": []})
        ids_h = pd.util.hash_pandas_object(
            pd.Series(df[id_col].to_numpy()), index=False
        ).to_numpy(np.uint64)
        codes = np.stack(df["code"].to_numpy()).astype(np.uint64)
        return pd.DataFrame({
            "h": [content_hash_part(ids_h, codes)], "n": [len(df)],
            "lo": [df[id_col].min()], "hi": [df[id_col].max()],
        })

    parts = encoded.map_batches(_part_hash, batch_format="pandas")
    total, n, lo, hi = 0, 0, None, None
    for b in parts.iter_batches(batch_format="pandas"):
        for _, row in b.iterrows():  # one row per input block, tiny
            total = (total + int(row["h"])) % (1 << 64)
            n += int(row["n"])
            lo = row["lo"] if lo is None else min(lo, row["lo"])
            hi = row["hi"] if hi is None else max(hi, row["hi"])
    return "%d:%s:%s:%016x" % (n, lo, hi, total), n


def _restore_swapped_cells(codes_dir):
    """Reader-side half of the two-rename swap discipline: restore any
    ``cell=N.old.tmp`` whose ``cell=N`` is missing (a writer crashed
    between its two renames), so searches never silently skip a
    cell's vectors. Restoring only (never deleting stages) keeps this
    safe to run from the read path."""
    import os

    for name in os.listdir(codes_dir):
        if not name.endswith(".old.tmp"):
            continue
        dst = os.path.join(codes_dir, name[: -len(".old.tmp")])
        if not os.path.isdir(dst):
            try:
                os.rename(os.path.join(codes_dir, name), dst)
            except FileNotFoundError:
                pass


def append_ann_index(index_dir, delta_ds, vec_col="embedding"):
    """Append NEW vectors to a persisted IVF-PQ index WITHOUT
    retraining — the continuous-crawl path: quantizers stay FROZEN
    (standard IVF append; cell centroids and PQ codebooks fixed keeps
    every existing code valid), the delta is assigned + PQ-encoded in
    one streaming map with the broadcast quantizers, and its code
    files land first in ``codes_stage.tmp`` then MOVE file-atomically
    into the touched ``cell=N`` partitions. Crash protocol: the stage
    gains a ``_COMMITTED`` marker only after write_parquet returns,
    so a crash mid-write leaves junk the next WRITER sweeps (never
    moved — truncated files can't corrupt the index); a crash
    mid-move (or after the moves, before the meta record) is
    completed by the next call or search, which reads the fingerprint
    FROM the marker and records it into the meta before deleting the
    stage; and a RETRY of an append whose moves already completed is
    detected by a content fingerprint (count + id range + an
    order-independent hash over every (id, code) pair) and skipped —
    exactly-once over the recorded append history (last 16 appends).
    Returns the number of appended rows (0 for an empty delta or a
    detected replay).

    Drift caveat: appended mass shifts the true cell distribution
    away from the trained centroids; ``_ann_meta.json`` accumulates
    ``rows_appended`` so callers can trigger a rebuild when the
    appended fraction (or measured recall) crosses their budget."""
    import json
    import os
    import shutil

    import ray

    _complete_pending_append(index_dir, sweep_uncommitted=True)

    with open(os.path.join(index_dir, "_ann_meta.json")) as f:
        meta = json.load(f)
    qz = np.load(os.path.join(index_dir, "quantizers.npz"))
    cents, books = qz["centroids"], qz["codebooks"]
    id_col = meta["id_col"]
    ref = ray.put((cents, books))

    def _encode(df: pd.DataFrame) -> pd.DataFrame:
        c, b = ray.get(ref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        cells = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        codes = _pq_assign_codes(mat, b)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cell": cells,
            "code": list(codes),
        })

    encoded = delta_ds.map_batches(_encode, batch_format="pandas")
    encoded = encoded.materialize()
    fp, n = _append_fingerprint(encoded, id_col)
    if not n:
        return 0
    if fp in meta.get("applied_appends", []):
        return 0  # replay of an append whose moves already completed

    stage = os.path.join(index_dir, "codes_stage.tmp")
    shutil.rmtree(stage, ignore_errors=True)
    encoded.write_parquet(stage, partition_cols=["cell"])
    with open(os.path.join(stage, _APPEND_COMMIT), "w") as f:
        json.dump({"fp": fp, "n": int(n)}, f)
    # moves the staged files, records fp+n into the meta atomically,
    # then deletes the stage — idempotent at every crash point
    _complete_pending_append(index_dir)
    return int(n)


def compact_ann_index(index_dir, cells=None, target_rows_per_file=1 << 22):
    """Merge the small code files that ``append_ann_index`` calls
    accumulate (one file set per append per touched cell) into
    ``ceil(rows / target_rows_per_file)`` files per cell — the search
    path prunes at the FILE level, so fewer, larger files keep probe
    cost flat as appends pile up. Row counts come from parquet
    FOOTERS only; each cell rewrite is a distributed read +
    repartition, staged and swapped with the same two-rename crash
    discipline as the dedup state stores. Only cells holding more
    files than their row count warrants are rewritten (or the
    explicit ``cells`` subset). Single-writer: do not run
    concurrently with an append; a search during the narrow per-cell
    swap window may restore the pre-compaction cell (both states are
    complete and correct). Returns the number of compacted cells."""
    import glob
    import math
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from .dedup import _swap_partitions, _sweep_stages

    _complete_pending_append(index_dir, sweep_uncommitted=True)
    codes = os.path.join(index_dir, "codes")
    _sweep_stages(codes)
    targets = []  # (cell, files, n_out)
    for part in sorted(os.listdir(codes)):
        d = os.path.join(codes, part)
        if not (part.startswith("cell=") and os.path.isdir(d)):
            continue
        c = int(part.split("=", 1)[1])
        if cells is not None and c not in set(cells):
            continue
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        n_out = max(1, math.ceil(rows / target_rows_per_file))
        if len(files) > n_out:
            targets.append((c, files, n_out))
    if not targets:
        return 0

    stage = os.path.join(codes, "_stage.tmp")
    shutil.rmtree(stage, ignore_errors=True)
    for c, files, n_out in targets:  # bounded by n_cells; legs distributed
        rd.read_parquet(files).repartition(n_out).write_parquet(
            os.path.join(stage, f"cell={c}"))
    _swap_partitions(codes, stage, [c for c, _f, _n in targets],
                     part_key="cell")
    return len(targets)


def search_ann_index(index_dir, query_vecs, query_ids, k=5, nprobe=4):
    """Search a persisted IVF-PQ index from its CODES alone: only the
    queries' ``nprobe`` closest cells' partition files are read
    (Hive pruning), and scoring is pure ADC table lookups over the
    stored uint8 codes — raw vectors are never loaded. Returns
    (qid, nid, rank) like the other kNN paths."""
    import glob
    import json
    import os

    import ray
    import ray.data as rd

    # reader-safe recovery: finish COMMITTED appends (an uncommitted
    # stage may belong to a live appender — left alone), restore any
    # cell caught mid-swap by a crashed compaction
    _complete_pending_append(index_dir)
    _restore_swapped_cells(os.path.join(index_dir, "codes"))
    with open(os.path.join(index_dir, "_ann_meta.json")) as f:
        meta = json.load(f)
    qz = np.load(os.path.join(index_dir, "quantizers.npz"))
    cents, books = qz["centroids"], qz["codebooks"]
    id_col = meta["id_col"]
    m, ncent, sub = books.shape

    qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    qids = np.asarray(query_ids)
    qcells = np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe]
    probe = sorted({int(c) for c in np.unique(qcells)})
    tables = np.einsum("qjs,jcs->qjc", qmat.reshape(len(qmat), m, sub),
                       books)

    paths = []
    for c in probe:
        paths.extend(sorted(glob.glob(
            os.path.join(index_dir, "codes", f"cell={c}", "*.parquet"))))
    if not paths:
        return rd.from_pandas(pd.DataFrame(
            {"qid": [], "nid": [], "sim": [], "rank": []}))
    codes_ds = rd.read_parquet(paths)
    tref = ray.put(tables)

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        tbl = ray.get(tref)
        codes = np.stack(df["code"].to_numpy()).astype(np.int64)
        ids = df[id_col].to_numpy()
        out = {"qid": [], "nid": [], "sim": []}
        kk = min(k + 1, len(df))
        for qx in range(tbl.shape[0]):
            score = tbl[qx][np.arange(m)[None, :], codes].sum(axis=1)
            top = np.argpartition(-score, kk - 1)[:kk]
            top = top[np.lexsort((ids[top], -score[top]))]
            for ix in top:
                if ids[ix] == qids[qx]:
                    continue
                out["qid"].append(qids[qx])
                out["nid"].append(ids[ix])
                out["sim"].append(score[ix])
        return pd.DataFrame(out)

    partials = codes_ds.map_batches(_local_topk, batch_format="pandas")

    return _merge_topk(partials, k)


def group_centroids(ds, group_fn_col, vec_col="embedding",
                    num_buckets=64, round_to=6):
    """Element-wise mean vector per group (centroid computation — the
    embedding-pipeline primitive behind k-means init, per-domain
    embedding profiles, cluster summaries). Classic combiner shape:
    each batch emits ONE partial (sum-vector, count) per group it
    saw, a keyed exchange merges partials — vectors cross the
    wire only as group-count-many partials, never corpus-many rows.

    ``group_fn_col``: existing column name to group by. Returns rows
    ``(group, dim_idx, mean_val)`` — flattened so results are
    schema-stable and oracle-hashable."""

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"group": pd.Series([], dtype=object),
                 "vsum": pd.Series([], dtype=object),
                 "n": pd.Series([], dtype="int64")})
        mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        out_g, out_v, out_n = [], [], []
        for g, ix in df.groupby(group_fn_col, sort=False).indices.items():
            out_g.append(g)
            out_v.append(mat[ix].sum(axis=0))
            out_n.append(len(ix))
        return pd.DataFrame(
            {"group": out_g, "vsum": out_v,
             "n": np.array(out_n, dtype=np.int64)})

    def _final(group: pd.DataFrame) -> pd.DataFrame:
        total = np.stack(group["vsum"].to_numpy()).sum(axis=0)
        n = int(group["n"].sum())
        mean = (total / n).round(round_to)
        g = group["group"].iloc[0]
        return pd.DataFrame(
            {"group": [g] * len(mean),
             "dim_idx": np.arange(len(mean), dtype=np.int64),
             "mean_val": mean})

    return bucketed_group_apply(
        ds.map_batches(_partial, batch_format="pandas"), ["group"], _final,
        lambda sch: pa.schema([sch.field("group"), ("dim_idx", pa.int64()),
                               ("mean_val", pa.float64())]),
        num_buckets,
    )


def kmeans_embeddings(ds, k=8, n_iters=5, vec_col="embedding",
                      id_col="vec_id", seed=31):
    """FULL-CORPUS distributed k-means (Lloyd's), spherical/cosine.

    ``train_ivf_centroids`` fits on a bounded sample — right for a
    quantizer; this is the corpus-exact variant: every iteration is
    ONE streaming pass where each batch assigns its vectors to the
    broadcast centroids AND emits per-cluster partial
    (sum-vector, count, inertia) — assignment and reduction fused, so
    per-iteration driver traffic is ``blocks x k`` partials, never
    assignments. Deterministic: seeded sample init, fixed iterations,
    argmax ties to the lowest centroid index.

    Returns ``(centroids, history)`` where history[i] is the total
    cosine inertia (sum of 1 - sim to the assigned centroid) after
    iteration i — non-increasing up to floating-point noise."""
    import ray

    # one materialization up front: the init sample plus every
    # iteration re-consumes ds, and an un-materialized input would
    # re-execute its whole upstream pipeline each time
    ds = ds.materialize()
    cents = train_ivf_centroids(
        ds, n_cells=k, vec_col=vec_col, seed=seed)
    history = []
    for _ in range(n_iters):
        ref = ray.put(cents)

        def _partials(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(ref)
            mat = _normalize(
                np.stack(df[vec_col].to_numpy()).astype(np.float64))
            sims = mat @ c.T
            assign = np.argmax(sims, axis=1)
            best = sims[np.arange(len(mat)), assign]
            out_c, out_v, out_n, out_i = [], [], [], []
            for cl in np.unique(assign):
                sel = assign == cl
                out_c.append(int(cl))
                out_v.append(mat[sel].sum(axis=0))
                out_n.append(int(sel.sum()))
                out_i.append(float((1.0 - best[sel]).sum()))
            return pd.DataFrame(
                {"cluster": np.array(out_c, dtype=np.int64),
                 "vsum": out_v,
                 "n": np.array(out_n, dtype=np.int64),
                 "inertia": np.array(out_i, dtype=np.float64)})

        parts = ds.map_batches(_partials, batch_format="pandas").to_pandas()
        history.append(float(parts["inertia"].sum()))
        new = cents.copy()
        for cl, grp in parts.groupby("cluster"):
            total = np.stack(grp["vsum"].to_numpy()).sum(axis=0)
            n = int(grp["n"].sum())
            if n:
                new[int(cl)] = total / n
        cents = _normalize(new)
    return cents, history


def kmeans_assign(ds, centroids, vec_col="embedding", id_col="vec_id"):
    """Final assignment pass: ``(vec_id, cluster)`` rows (broadcast
    centroids, one streaming map)."""
    import ray

    cents = _normalize(np.asarray(centroids, dtype=np.float64))
    ref = ray.put(cents)

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(ref)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(),
             "cluster": np.argmax(mat @ c.T, axis=1).astype(np.int64)})

    return ds.map_batches(_assign, batch_format="pandas")


def sparse_tf_cosine_pairs(ds, threshold: float = 0.5,
                           max_df_frac: float = 0.02, min_df: int = 2,
                           max_df: int | None = None, ngram_n: int = 1,
                           text_col: str = "text", id_col: str = "doc_id",
                           num_buckets: int = 64):
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
        tf_rows, ["term"], _term_pairs, _pair_schema,
        num_buckets, min_group_size=min_df)

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
                               ("dot", pa.int64()), ("cos", pa.float64())]),
        num_buckets)
