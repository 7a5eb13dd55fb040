"""Training-data operators: dedup family, text stats, aggregates,
joins, sampling — over the driver testdata tables."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


def _pandas_meta_files(root):
    """Parquet files under ``root`` whose schema carries pandas
    metadata (Ray logs a schema-hash failure on each read of one)."""
    import glob
    import os

    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)
    assert files
    return [f for f in files
            if b"pandas" in (pq.read_schema(f).metadata or {})]


def test_exact_dedup(ray_session, docs_ds):
    import ray.data as rd

    from versa_ray.ops.dedup import exact_dedup

    # duplicate the corpus so dedup has work
    doubled = docs_ds.union(
        docs_ds.map_batches(
            lambda df: df.assign(doc_id=df.doc_id + 100000), batch_format="pandas"
        )
    )
    out = exact_dedup(doubled, key="text", id_col="doc_id").to_pandas()
    n_docs = docs_ds.count()
    assert len(out) == n_docs  # 500 distinct texts
    assert (out["doc_id"] < 100000).all()  # min id wins


def test_minhash_identical_and_disjoint(ray_session):
    import ray.data as rd

    from versa_ray.ops.dedup import minhash_dedup

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "the quick brown fox jumps over the lazy dog again and again",
                "the quick brown fox jumps over the lazy dog again and again",
                "the quick brown fox jumps over the lazy dog again and once more",
                "completely different words about ray data pipelines and arrow",
            ],
        }
    )
    labels = minhash_dedup(rd.from_pandas(rows), threshold=0.5, concurrency=2).to_pandas()
    m = dict(zip(labels["doc_id"], labels["cluster"]))
    assert m[1] == m[2] == 1  # identical docs cluster to min id
    assert m[3] == 1  # heavy overlap joins the cluster
    assert m[4] == 4  # disjoint doc stays alone


def test_simhash_and_jaccard(ray_session):
    import ray.data as rd

    from versa_ray.ops.dedup import ngram_jaccard, simhash_near_dups

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "alpha beta gamma delta epsilon zeta eta theta iota kappa",
                "alpha beta gamma delta epsilon zeta eta theta iota lambda",
                "totally unrelated content with none of those other words there",
            ],
        }
    )
    pairs = simhash_near_dups(rd.from_pandas(rows), max_hamming=10).to_pandas()
    assert {(1, 2)} <= set(zip(pairs.id_a, pairs.id_b))
    assert (3 not in set(pairs.id_a)) and (3 not in set(pairs.id_b))
    assert ngram_jaccard(rows.text[0], rows.text[1]) > 0.6
    assert ngram_jaccard(rows.text[0], rows.text[2]) == 0.0


def test_simhash_hot_bucket_prefilter_exact(ray_session):
    """The rotated-pigeonhole second-level split in hot buckets is an
    exact prefilter: pair set identical to the quadratic path."""
    import ray.data as rd

    from versa_ray.ops.dedup import simhash_near_dups

    rng = np.random.RandomState(11)
    words = ["w%d" % i for i in range(400)]
    texts = []
    for i in range(80):
        base = [words[j] for j in rng.choice(400, 30, replace=False)]
        texts.append(" ".join(base))
        if i % 4 == 0:  # planted near-dup: one word swapped
            mut = list(base)
            mut[rng.randint(30)] = words[rng.randint(400)]
            texts.append(" ".join(mut))
    rows = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rd.from_pandas(rows)

    def key(df):
        return set(zip(df.id_a, df.id_b))

    quad = key(simhash_near_dups(ds, max_hamming=8).to_pandas())
    split = key(
        simhash_near_dups(ds, max_hamming=8, hot_bucket=2).to_pandas()
    )
    assert quad == split and len(quad) > 0


def test_bm25_search(ray_session):
    """BM25 ranks the doc with more query-term mass first; docs with
    no query terms never appear; rare terms outweigh common ones."""
    import ray.data as rd

    from versa_ray.ops.retrieval import bm25_search, tokenize

    assert tokenize("Spark-Merge JOIN!") == ["spark", "merge", "join"]
    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "spark merge spark merge spark",   # heavy on both terms
                "spark filler filler filler one",  # one hit
                "nothing relevant here at all",    # no hits
                "merge once common common common",  # one hit, other term
            ],
        }
    )
    out = bm25_search(
        rd.from_pandas(rows), ["spark merge"], k=10
    ).to_pandas().sort_values("rank")
    assert out.doc_id.tolist()[0] == 1          # both terms, high tf
    assert 3 not in set(out.doc_id)             # zero-hit doc excluded
    assert set(out.qid) == {0}
    assert out["rank"].tolist() == list(range(1, len(out) + 1))


def test_write_jsonl_ds(ray_session, tmp_path, docs_ds):
    """JSONL sink round-trips through ray read_json with the selected
    columns, and honors an explicit (subtree) filesystem."""
    import json
    import os

    import pyarrow.fs as pafs
    import ray.data as rd

    from versa_ray.ops.io import write_jsonl_ds

    out = str(tmp_path / "docs_jsonl")
    files = write_jsonl_ds(docs_ds, out, columns=["doc_id", "text", "lang"])
    assert files and all(f.endswith(".jsonl") for f in files)
    back = rd.read_json(out).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    orig = docs_ds.to_pandas().sort_values("doc_id", ignore_index=True)
    assert back["text"].tolist() == orig["text"].tolist()
    assert sorted(back.columns) == ["doc_id", "lang", "text"]

    # explicit subtree filesystem: paths stay relative to the subtree
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    files2 = write_jsonl_ds(
        docs_ds, "sub_jsonl", columns=["doc_id"], filesystem=sub)
    assert files2
    with open(os.path.join(str(tmp_path), files2[0])) as f:
        assert json.loads(f.readline())["doc_id"] is not None


def test_split_by_hash(ray_session):
    """Split assignment is a pure function of the id: identical
    across repartitions and runs, proportions near the weights, and
    salt changes reshuffle membership."""
    import ray.data as rd

    from versa_ray.ops.sample import split_by_hash

    df = pd.DataFrame({"doc_id": np.arange(5000, dtype="int64")})
    w = {"train": 0.8, "val": 0.1, "test": 0.1}
    a = (
        split_by_hash(rd.from_pandas(df), w, "doc_id")
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    b = (
        split_by_hash(
            rd.from_pandas([df.iloc[:1234], df.iloc[1234:]]), w, "doc_id")
        .to_pandas().sort_values("doc_id", ignore_index=True)
    )
    assert a["split"].tolist() == b["split"].tolist()  # partition-invariant
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.03
    assert abs(frac["val"] - 0.1) < 0.02
    assert abs(frac["test"] - 0.1) < 0.02
    c = split_by_hash(rd.from_pandas(df), w, "doc_id", salt="s2").to_pandas()
    c = c.sort_values("doc_id", ignore_index=True)
    assert (c["split"] != a["split"]).mean() > 0.1  # salt reshuffles


def test_approx_quantiles(ray_session):
    """Mergeable per-batch summary lands within 2% of exact quantiles
    on a multi-block skewed distribution."""
    import ray.data as rd

    from versa_ray.ops.agg import approx_quantiles

    rng = np.random.RandomState(9)
    v = np.exp(rng.randn(40_000))  # lognormal: heavy right tail
    frames = [pd.DataFrame({"x": v[i::8]}) for i in range(8)]
    ds = rd.from_pandas(frames)
    qs = [0.1, 0.5, 0.9, 0.99]
    # heavy-tail p99 needs a denser summary: rank error is
    # O(batch_rows / samples) per batch
    approx = approx_quantiles(ds, "x", qs, per_batch_samples=1024)
    exact = np.quantile(v, qs, method="linear")
    assert all(
        abs(a - e) / e <= 0.02 for a, e in zip(approx, exact)
    ), (approx, list(exact))
    assert approx == sorted(approx)  # monotone


def test_exact_quantiles(ray_session):
    """Bit-exact quantile_disc semantics (rank ceil(q*N)-1) across
    distributions, with the refinement path forced via a tiny
    max_collect/grid, and the ulp-scale underflow branch exercised."""
    import ray.data as rd

    from versa_ray.ops.agg import exact_quantiles

    rng = np.random.RandomState(11)
    cases = {
        "uniform": rng.uniform(0, 1e6, 20_000),
        "heavy_ties": np.repeat(rng.uniform(0, 100, 50), 400),
        "skew_mass": np.concatenate(
            [np.full(19_000, 42.0), rng.normal(1e9, 1, 1_000)]),
        "negative": rng.normal(-500, 300, 10_001),
        "single": np.array([3.14]),
        "all_equal": np.full(5_000, 7.0),
        "two_ulp": np.repeat([1.0, np.nextafter(1.0, 2.0)], 2_500),
        "with_infs": np.concatenate(
            [np.full(600, -np.inf), rng.uniform(0, 10, 800),
             np.full(700, np.inf)]),
        "all_inf": np.repeat([-np.inf, np.inf], 40),
    }
    qs = [0.01, 0.25, 0.5, 0.75, 0.95, 1.0]

    def _disc(v, q):  # inverted-CDF reference
        v = np.sort(v)
        return v[min(max(0, int(np.ceil(q * len(v))) - 1), len(v) - 1)]

    configs = (
        dict(max_collect=2_000_000, grid=4096),
        dict(max_collect=50, grid=32),
        # distributed tree-combine of the histogram merge forced on
        dict(max_collect=50, grid=32, combine_threshold_blocks=2,
             combine_fan_in=3),
    )
    for name, arr in cases.items():
        ds = rd.from_pandas(pd.DataFrame({"x": arr})).repartition(6)
        exp = [float(_disc(arr, q)) for q in qs]
        for cfg in configs:
            got = exact_quantiles(ds, "x", qs, max_rounds=30, **cfg)
            assert got == exp, (name, cfg, got, exp)

    # empty column -> NaN per quantile
    ds = rd.from_pandas(pd.DataFrame({"x": pd.Series([], dtype=float)}))
    assert all(np.isnan(v) for v in exact_quantiles(ds, "x", qs))


def test_exact_quantiles_round_accounting(ray_session):
    """Underflow resolution is not a refinement round: a group whose
    span collapses on the LAST histogram round still resolves via the
    distinct-count pass instead of raising 'did not converge'."""
    import ray.data as rd

    from versa_ray.ops.agg import exact_quantiles

    # two ulp-adjacent heavy ties: round 1 splits them into buckets
    # whose child spans underflow (nlo == nhi) — resolving them must
    # not count against max_rounds=1
    arr = np.repeat([1.0, np.nextafter(1.0, 2.0)], 2_500)
    ds = rd.from_pandas(pd.DataFrame({"x": arr})).repartition(4)
    got = exact_quantiles(ds, "x", [0.25, 0.75], grid=32,
                          max_collect=50, max_rounds=1)
    assert got == [1.0, float(np.nextafter(1.0, 2.0))]

    # degenerate lo==hi input needs ZERO histogram rounds
    ds1 = rd.from_pandas(pd.DataFrame({"x": np.full(500, 3.0)}))
    assert exact_quantiles(ds1, "x", [0.5], max_collect=5,
                           max_rounds=0) == [3.0]

    # genuine non-convergence still raises
    ds2 = rd.from_pandas(pd.DataFrame({"x": np.arange(1000.0)}))
    with pytest.raises(RuntimeError, match="did not converge"):
        exact_quantiles(ds2, "x", [0.5], grid=2, max_collect=5,
                        max_rounds=2)


def test_record_applied_fp_concurrent(tmp_path):
    """Concurrent recorders serialize under the meta lock: no lost
    fingerprints, no double-counted rows, and a crash-orphaned lock
    older than stale_after is broken rather than wedging."""
    import json
    import os
    import threading
    import time

    from versa_ray.ops._replay import applied_fps, record_applied_fp

    meta = str(tmp_path / "meta.json")
    fps = [f"fp{i}" for i in range(10)]

    def _rec(fp):
        for _ in range(2):  # second call is an idempotent replay
            record_applied_fp(meta, fp, "applied", "rows", n=5)

    threads = [threading.Thread(target=_rec, args=(fp,)) for fp in fps]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert set(applied_fps(meta, "applied")) == set(fps)  # none lost
    with open(meta) as f:
        assert json.load(f)["rows"] == 50  # replays counted once

    lock = meta + ".lock"
    open(lock, "w").close()
    old = time.time() - 3600
    os.utime(lock, (old, old))
    record_applied_fp(meta, "fp_new", "applied", "rows", n=1)
    assert "fp_new" in applied_fps(meta, "applied")
    assert not os.path.exists(lock)


def test_incremental_exact_dedup(ray_session, tmp_path):
    """Replay semantics: first-seen wins across calls, within-call min
    id wins, state survives a simulated crash mid-swap."""
    import os

    import ray.data as rd

    from versa_ray.ops.dedup import incremental_exact_dedup

    state = str(tmp_path / "state")
    b1 = pd.DataFrame({"doc_id": [5, 2, 9], "text": ["aa", "bb", "aa"]})
    new1, n1 = incremental_exact_dedup(state, rd.from_pandas(b1))
    got1 = new1.to_pandas().sort_values("doc_id")
    assert n1 == 2
    assert got1.doc_id.tolist() == [2, 5]  # min id per text within call

    b2 = pd.DataFrame({"doc_id": [1, 7], "text": ["aa", "cc"]})
    new2, n2 = incremental_exact_dedup(state, rd.from_pandas(b2))
    got2 = new2.to_pandas()
    assert n2 == 1 and got2.text.tolist() == ["cc"]  # "aa" already seen

    # simulated crash: bucket renamed to .old.tmp with no live dir
    buckets = [d for d in os.listdir(state) if d.startswith("bucket=")]
    victim = os.path.join(state, buckets[0])
    os.rename(victim, victim + ".old.tmp")
    b3 = pd.DataFrame({"doc_id": [3], "text": ["dd"]})
    new3, _ = incremental_exact_dedup(state, rd.from_pandas(b3))
    new3.materialize()
    assert os.path.isdir(victim)  # restored by the sweep

    # full replay: nothing new
    allb = pd.DataFrame(
        {"doc_id": [50, 51, 52, 53], "text": ["aa", "bb", "cc", "dd"]})
    _, n4 = incremental_exact_dedup(state, rd.from_pandas(allb))
    assert n4 == 0
    assert _pandas_meta_files(state) == []


def test_salted_join_equals_plain(ray_session):
    """salted_join returns exactly the plain hash join's rows on a
    hot-key workload (one key is half the left side)."""
    import ray.data as rd

    from versa_ray.ops.joins import salted_join

    rng = np.random.RandomState(3)
    n = 2000
    keys = np.where(rng.rand(n) < 0.5, 7, rng.randint(0, 50, n))
    left = pd.DataFrame({"k": keys.astype("int64"), "v": np.arange(n)})
    right = pd.DataFrame(
        {"k": np.arange(50, dtype="int64"), "label": [f"r{i}" for i in range(50)]}
    )
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)
    plain = (
        lds.join(rds, join_type="inner", num_partitions=4, on=("k",))
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    salted = (
        salted_join(lds, rds, on="k", salt=4, num_partitions=4)
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        plain[sorted(plain.columns)], salted[sorted(salted.columns)]
    )
    assert (plain.k == 7).sum() > n // 3  # the hot key actually dominates


def test_entail_types(ray_session):
    """Transitive supertypes are entailed; subclass cycles don't hang
    and don't self-entail beyond the cycle members."""
    import ray.data as rd

    from versa_ray.ops.graph import entail_types

    links = pd.DataFrame(
        {
            "origin": ["e1", "e2", "e1"],
            "rel": ["http://purl.org/versa/type"] * 2 + ["other"],
            "target": ["A", "C", "ignored"],
            "target_is_iri": [True, True, True],
            "attrs": ["{}"] * 3,
        }
    )
    out = entail_types(
        rd.from_pandas(links),
        [("A", "B"), ("B", "C"), ("C", "A"),  # cycle A->B->C->A
         ("C", "D")],
        type_rel="http://purl.org/versa/type",
    ).to_pandas()
    got = set(zip(out.origin, out.cls))
    # e1: direct A plus cycle members B, C and C's parent D
    assert {("e1", "A"), ("e1", "B"), ("e1", "C"), ("e1", "D")} <= got
    # e2: direct C plus A, B (via cycle) and D
    assert {("e2", "C"), ("e2", "D"), ("e2", "A"), ("e2", "B")} <= got
    # the non-type link contributes nothing
    assert not any(o == "e1" and c == "ignored" for o, c in got)
    assert len(got) == len(out)  # distinct


def test_textstats(ray_session, docs_ds):
    from versa_ray.ops.textstats import LangID, doc_stats_ds, md5_fingerprint

    out = doc_stats_ds(docs_ds).to_pandas()
    row = out.iloc[0]
    assert row["n_tokens"] == len(row["text"].split())
    assert row["n_chars"] == len(row["text"])

    lid = LangID()
    assert lid.classify("the king and the queen went to the castle in the morning") == "en"
    assert lid.classify("le roi et la reine dans le chateau pour la une journee") == "fr"

    fp = docs_ds.map_batches(md5_fingerprint, batch_format="pandas").to_pandas()
    import hashlib

    assert fp.iloc[0]["fp_md5"] == hashlib.md5(fp.iloc[0]["text"].encode()).hexdigest()


def test_verify_pairs_jaccard(ray_session):
    import ray.data as rd

    from versa_ray.ops.dedup import minhash_candidate_pairs, verify_pairs_jaccard

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "one two three four five six seven eight nine ten",
                "one two three four five six seven eight nine eleven",
                "zz yy xx ww vv uu tt ss rr qq",
            ],
        }
    )
    ds = rd.from_pandas(rows)
    pairs = minhash_candidate_pairs(ds, threshold=0.3)
    verified = verify_pairs_jaccard(ds, pairs, threshold=0.5)
    assert {(p["id_a"], p["id_b"]) for p in verified} == {(1, 2)}
    assert all(p["jaccard"] > 0.5 for p in verified)


def test_rolling_fingerprint():
    from versa_ray.ops.textstats import rolling_fingerprint

    a = rolling_fingerprint("the quick brown fox jumps over the lazy dog " * 4)
    b = rolling_fingerprint("PREFIX " + "the quick brown fox jumps over the lazy dog " * 4)
    assert a and b
    # shared passages produce shared fingerprints (content-local)
    assert len(set(a) & set(b)) / len(set(a)) > 0.5
    assert rolling_fingerprint("") == []


def test_cluster_pairs_ds_chain(ray_session):
    """Min-label propagation converges on a path graph (worst-case
    diameter) and leaves other components alone."""
    import ray.data as rd

    from versa_ray.ops.dedup import cluster_pairs_ds

    pairs = pd.DataFrame(
        {
            "id_a": [5, 4, 3, 2, 100, 1, 1],  # chain 1-2-3-4-5 + dup edges
            "id_b": [4, 3, 2, 1, 101, 2, 2],
        }
    )
    labels = cluster_pairs_ds(rd.from_pandas(pairs)).to_pandas()
    m = dict(zip(labels["node"], labels["label"]))
    assert all(m[n] == 1 for n in (1, 2, 3, 4, 5))
    assert m[100] == m[101] == 100


def test_assign_clusters_defaults_self(ray_session):
    import ray.data as rd

    from versa_ray.ops.dedup import assign_clusters

    corpus = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2, 3, 9]}))
    pairs = rd.from_pandas(pd.DataFrame({"id_a": [1], "id_b": [3]}))
    out = assign_clusters(corpus, pairs).to_pandas()
    m = dict(zip(out["doc_id"], out["cluster"]))
    assert m == {1: 1, 2: 2, 3: 1, 9: 9}


def test_verified_near_dup_pairs_distributed(ray_session):
    """Distributed (non-broadcast) exact-Jaccard verification matches
    the driver-side computation."""
    import ray.data as rd

    from versa_ray.ops.dedup import ngram_jaccard, verified_near_dup_pairs

    texts = {
        1: "one two three four five six seven eight nine ten",
        2: "one two three four five six seven eight nine eleven",
        3: "zz yy xx ww vv uu tt ss rr qq",
        4: "zz yy xx ww vv uu tt ss rr pp",
    }
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
    )
    out = verified_near_dup_pairs(ds, threshold=0.5).to_pandas()
    got = {(r.id_a, r.id_b): r.jaccard for r in out.itertuples()}
    assert set(got) == {(1, 2), (3, 4)}
    for (a, b), j in got.items():
        assert j == ngram_jaccard(texts[a], texts[b])


def test_assign_clusters_join_path(ray_session, monkeypatch):
    """CLUSTER_BROADCAST_THRESHOLD=0 forces the distributed
    label-propagation path; result must equal the broadcast path."""
    import ray.data as rd

    from versa_ray.ops import dedup
    from versa_ray.ops.dedup import assign_clusters

    corpus = rd.from_pandas(pd.DataFrame({"doc_id": list(range(10))}))
    pairs = rd.from_pandas(
        pd.DataFrame({"id_a": [0, 1, 5], "id_b": [1, 2, 7]})
    )
    fast = assign_clusters(corpus, pairs).to_pandas().sort_values("doc_id")
    monkeypatch.setattr(dedup, "CLUSTER_BROADCAST_THRESHOLD", 0)
    slow = assign_clusters(corpus, pairs).to_pandas().sort_values("doc_id")
    assert list(fast["cluster"]) == list(slow["cluster"])
    m = dict(zip(fast["doc_id"], fast["cluster"]))
    assert m[0] == m[1] == m[2] == 0 and m[5] == m[7] == 5 and m[3] == 3


def test_simhash_batch_matches_per_doc():
    """Vectorized batch simhash is bit-identical to the per-doc form."""
    import numpy as np

    from versa_ray.ops.dedup import simhash64, simhash64_batch

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "single",
        "the quick brown fox jumps over the lazy cat",
        "   ",
        "a b c d e f g " * 30,
    ]
    got = simhash64_batch(texts)
    want = np.array([simhash64(t) for t in texts], dtype=np.uint64)
    assert (got == want).all()


def test_verify_pairs_threshold_switch(ray_session, monkeypatch):
    """verify_pairs_jaccard gives identical results on both sides of
    VERIFY_BROADCAST_THRESHOLD (broadcast fast path vs distributed
    verify)."""
    import ray.data as rd

    from versa_ray.ops import dedup
    from versa_ray.ops.dedup import verify_pairs_jaccard

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [base, base + " mu", base.replace("alpha", "omega"),
                     "unrelated words entirely different content here now"],
        }
    )
    ds = rd.from_pandas(rows)
    cand = [{"id_a": 1, "id_b": 2}, {"id_a": 1, "id_b": 3},
            {"id_a": 1, "id_b": 4}, {"id_a": 2, "id_b": 3}]

    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_THRESHOLD", 100)
    via_broadcast = verify_pairs_jaccard(ds, cand, threshold=0.5)
    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_THRESHOLD", 2)
    via_distributed = verify_pairs_jaccard(ds, cand, threshold=0.5)
    key = lambda ps: sorted((p["id_a"], p["id_b"], round(p["jaccard"], 9)) for p in ps)
    assert key(via_broadcast) == key(via_distributed)
    assert {(p["id_a"], p["id_b"]) for p in via_broadcast} >= {(1, 2)}


def test_stratified_sample_deterministic(ray_session):
    import ray.data as rd

    from versa_ray.ops.sample import stratified_sample, uniform_sample

    rows = pd.DataFrame(
        {"doc_id": range(200), "lang": [f"l{i % 3}" for i in range(200)]}
    )
    ds = rd.from_pandas(rows).repartition(8)
    a = stratified_sample(ds, "lang", 5, "doc_id").to_pandas()
    b = stratified_sample(ds, "lang", 5, "doc_id").to_pandas()
    key = lambda df: sorted(zip(df["lang"], df["doc_id"]))
    assert key(a) == key(b)
    assert a.groupby("lang").size().max() == 5 and len(a) == 15

    u1 = uniform_sample(ds, 20, "doc_id").to_pandas()
    u2 = uniform_sample(ds.repartition(3), 20, "doc_id").to_pandas()
    assert sorted(u1["doc_id"]) == sorted(u2["doc_id"])  # partition-invariant
    assert len(u1) == 20


def test_edit_distance_pairs(ray_session):
    """FastSS distance-<=1 pair detection equals brute-force DP on a
    word list with insertions, deletions, substitutions, and exact
    duplicates; the O(len) predicate matches full Levenshtein."""
    import random

    import ray.data as rd

    from versa_ray.ops.dedup import _edit_distance_leq1, edit_distance_pairs

    def lev(a, b):
        d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            d[i][0] = i
        for j in range(len(b) + 1):
            d[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                d[i][j] = min(
                    d[i - 1][j] + 1, d[i][j - 1] + 1,
                    d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
        return d[len(a)][len(b)]

    rng = random.Random(0)
    for _ in range(2000):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert _edit_distance_leq1(a, b) == (lev(a, b) <= 1), (a, b)

    words = ["hello", "hallo", "hell", "hello!", "world", "word",
             "sword", "apple", "appl", "apples", "banana", "banana"]
    df = pd.DataFrame({"doc_id": range(len(words)), "text": words})
    got = edit_distance_pairs(
        rd.from_pandas(df).repartition(3), "text"
    ).to_pandas()
    got_set = set(map(tuple, got[["id_a", "id_b"]].itertuples(index=False)))
    want = {
        (i, j)
        for i in range(len(words)) for j in range(i + 1, len(words))
        if lev(words[i], words[j]) <= 1
    }
    assert got_set == want
    dup = got[(got["id_a"] == 10) & (got["id_b"] == 11)]
    assert len(dup) == 1 and int(dup["dist"].iloc[0]) == 0


def test_triangle_count(ray_session):
    """Distributed node-iterator triangle count equals brute-force
    enumeration on a random graph; empty and triangle-free graphs
    return 0."""
    import itertools

    import numpy as np
    import ray.data as rd

    from versa_ray.ops.graph import triangle_count

    rng = np.random.RandomState(0)
    n = 40
    pairs = [
        (a, b) for a in range(n) for b in range(a + 1, n)
        if rng.rand() < 0.2
    ]
    es = set(pairs)
    brute = sum(
        1 for a, b, c in itertools.combinations(range(n), 3)
        if (a, b) in es and (a, c) in es and (b, c) in es
    )
    edges = pd.DataFrame(pairs, columns=["u", "v"]).astype("int64")
    got = triangle_count(rd.from_pandas(edges).repartition(5))
    assert int(got["n_triangles"].iloc[0]) == brute and brute > 0
    # a path graph has no triangles (and the all-empty-blocks path
    # must still emit the single 0 row)
    path = pd.DataFrame(
        {"u": range(9), "v": range(1, 10)}
    ).astype("int64")
    got0 = triangle_count(rd.from_pandas(path))
    assert int(got0["n_triangles"].iloc[0]) == 0


def test_near_dup_keep_best(ray_session):
    """Quality-aware near-dedup keeps the argmax-quality doc of each
    planted cluster (ties to smallest id) and every singleton."""
    import ray.data as rd

    from versa_ray.ops.dedup import near_dup_keep_best

    def mktext(seed, n=40):
        return " ".join(f"tok{seed}_{j}" for j in range(n))

    rows = [
        {"doc_id": i, "text": mktext(i), "n_chars": 100 + i}
        for i in range(20)
    ]
    # cluster A: 2 ~ 7 ~ 11; doc 7 is the longest -> kept
    rows[7]["text"] = rows[2]["text"] + " extra"
    rows[11]["text"] = rows[2]["text"] + " tail"
    rows[2]["n_chars"], rows[7]["n_chars"], rows[11]["n_chars"] = 50, 900, 900
    # rows 7 and 11 tie on n_chars -> smaller id (7) wins
    df = pd.DataFrame(rows)
    out = near_dup_keep_best(
        rd.from_pandas(df).repartition(4), by="n_chars", threshold=0.5
    ).to_pandas()
    kept = set(out["doc_id"])
    assert 7 in kept and 2 not in kept and 11 not in kept
    assert kept == {7} | (set(range(20)) - {2, 7, 11})
    assert out["n_chars"].dtype.kind == "i"
    row7 = out[out["doc_id"] == 7].iloc[0]
    assert row7["cluster"] == 2 and row7["n_chars"] == 900


def test_token_budget_sample(ray_session):
    """Per-source token budget: md5-rank prefix whose running token
    total stays within budget — equals a sequential replay, is
    partition-invariant, and never splits a document."""
    import hashlib

    import ray.data as rd

    from versa_ray.ops.sample import token_budget_sample

    rows = pd.DataFrame(
        {
            "doc_id": range(120),
            "lang": [f"l{i % 3}" for i in range(120)],
            "text": [" ".join(["w"] * (5 + i % 17)) for i in range(120)],
        }
    )
    ds = rd.from_pandas(rows).repartition(7)
    got = token_budget_sample(ds, 100, "lang", "doc_id").to_pandas()
    # sequential reference: per lang, md5(doc_id) order, cumsum <= 100
    want = []
    for lang, grp in rows.groupby("lang"):
        grp = grp.assign(
            _rk=[hashlib.md5(str(i).encode()).hexdigest() for i in grp["doc_id"]],
            n_tokens=grp["text"].str.split().str.len(),
        ).sort_values(["_rk", "doc_id"])
        cum = 0
        for _, r in grp.iterrows():
            cum += r["n_tokens"]
            if cum > 100:
                break
            want.append((r["doc_id"], lang, r["n_tokens"]))
    got_key = sorted(zip(got["doc_id"], got["lang"], got["n_tokens"]))
    assert got_key == sorted(want)
    assert got.groupby("lang")["n_tokens"].sum().max() <= 100
    # partition-invariant
    again = token_budget_sample(
        ds.repartition(2), 100, "lang", "doc_id"
    ).to_pandas()
    assert sorted(zip(again["doc_id"], again["lang"])) == sorted(
        (d, v) for d, v, _ in want
    )


def test_contamination_ngrams(ray_session):
    import ray.data as rd

    from versa_ray.ops.contamination import flag_contaminated_ngrams

    bench = ["the quick brown fox jumps over the lazy dog tonight again"]
    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "PREFIX the quick brown fox jumps over the lazy dog SUFFIX",
                "totally different words with no overlap whatsoever here now",
                "the quick brown fox sleeps all day long quietly indoors",
            ],
        }
    )
    ds = rd.from_pandas(rows)
    out = flag_contaminated_ngrams(ds, bench, n=8).to_pandas()
    assert set(out["doc_id"]) == {1}  # only the full 8-gram overlap


def test_curate_documents_full_flow(ray_session, tmp_path):
    """Curation composition: filters, normalization, exact dedup,
    minhash near-dedup representatives, partitioned parquet output."""
    import glob

    import ray.data as rd

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7],
            "lang": ["en", "en", "fr", "zz", "en", "en", "en"],
            "text": [
                base,                        # keeper
                base + "  ",                 # exact dup after normalize
                base,                        # fr keeper
                base,                        # dropped: lang
                "1 2 3 4 5 6 7 8 9 10",      # dropped: digit ratio
                "too short",                 # dropped: token floor
                base + " mu",                # near-dup of 1
            ],
        }
    )
    ds = rd.from_pandas(rows)
    out_dir = str(tmp_path / "curated")
    from versa_ray.ops.curation import curate_documents

    out = curate_documents(
        ds, lang_allow=["en", "fr"], min_tokens=5, max_digit_ratio=0.3,
        near_dedup=True, near_threshold=0.5, out_path=out_dir,
    ).to_pandas()
    # 1 survives (2 exact-dup, 7 near-dup clustered under 1); 3 keeps
    # its own cluster (fr text identical to 1's -> exact dedup keyed on
    # content keeps min id 1 only)
    assert sorted(out["doc_id"]) == [1]
    assert set(out.columns) == {"doc_id", "lang", "norm_text"}
    assert glob.glob(out_dir + "/lang=*/**/*.parquet", recursive=True)


def test_curate_documents_no_near(ray_session):
    import ray.data as rd

    from versa_ray.ops.curation import curate_documents

    rows = pd.DataFrame(
        {
            "doc_id": [10, 11],
            "lang": ["en", "en"],
            "text": ["one two three four five six", "one two three four five six"],
        }
    )
    out = curate_documents(rd.from_pandas(rows), min_tokens=3).to_pandas()
    assert sorted(out["doc_id"]) == [10]


def test_simhash_batch_chunked_identical():
    """Chunked batch simhash (memory bound) is bit-identical to the
    unchunked path regardless of chunk boundary placement."""
    import numpy as np

    from versa_ray.ops.dedup import simhash64_batch

    texts = ["word%d alpha beta gamma" % i + " filler" * (i % 7) for i in range(25)]
    texts[3] = ""
    full = simhash64_batch(texts)
    tiny = simhash64_batch(texts, _chunk_words=5)
    assert (full == tiny).all()


def test_verify_pairs_drops_phantom_endpoints(ray_session, monkeypatch):
    """Pairs whose endpoints are absent from the corpus are DROPPED on
    both sides of the broadcast threshold (was: broadcast path scored
    jaccard('','') = 1.0 for phantom pairs)."""
    import ray.data as rd

    from versa_ray.ops import dedup
    from versa_ray.ops.dedup import verify_pairs_jaccard

    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": [1], "text": ["alpha beta gamma delta"]})
    )
    cand = [{"id_a": 8, "id_b": 9}]  # neither endpoint exists
    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_THRESHOLD", 100)
    assert verify_pairs_jaccard(ds, cand, threshold=0.0) == []
    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_THRESHOLD", 0)
    out = verify_pairs_jaccard(ds, cand, threshold=0.0)
    assert out == []


def test_pii_scrub_kinds_and_order():
    from versa_ray.ops.textstats import pii_scrub

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [
            "mail a.b+c@ex-1.co.uk, host 10.0.4.27, call 555-010-9876.",
            "ip-like 1.2.3.4.5 still masks a quad; 12.34 does not",
            None,
        ],
    })
    out = pii_scrub(df)
    assert out.loc[0, "scrubbed_text"] == \
        "mail <EMAIL>, host <IP>, call <PHONE>."
    assert (out.loc[0, ["n_emails", "n_ips", "n_phones"]] == 1).all()
    # counts are taken AFTER earlier scrubs: the email's domain dots
    # never count as an IP
    assert out.loc[1, "n_ips"] == 1 and out.loc[1, "n_phones"] == 0
    assert out.loc[2, "scrubbed_text"] == ""


def test_repetition_stats_handcrafted():
    from versa_ray.ops.textstats import repetition_stats

    df = pd.DataFrame({
        "text": ["a b c\na b c\nx y\n \nz", "hello world hello world hello", ""]
    })
    r = repetition_stats(df)
    assert r["dup_line_frac"].tolist() == [0.5, 0.0, 0.0]
    # dup chars 10/14; top bigram 'hello world'/'world hello' 2*11/29
    assert abs(r["dup_line_char_frac"][0] - 0.714286) < 1e-9
    assert abs(r["top_2gram_char_frac"][1] - 0.758621) < 1e-9
    assert r.iloc[2, -3:].sum() == 0.0


def test_remove_boilerplate(ray_session, shuffle_width):
    import ray.data as rd

    from versa_ray.ops.boilerplate import remove_boilerplate

    df = pd.DataFrame({
        "doc_id": list(range(6)),
        "text": [
            "keep me\nfooter line",
            "footer line\nalso keep",
            "footer line",          # only boilerplate -> ''
            "",                      # empty doc survives as ''
            " \nreal\n ",            # blank lines always survive
            "footer line\nfooter line\nunique",
        ],
    })
    shuffle_width(8)
    out = (
        remove_boilerplate(rd.from_pandas(df).repartition(3),
                           min_docs=3)
        .to_pandas().set_index("doc_id")["clean_text"]
    )
    assert len(out) == 6  # every doc present, even all-boilerplate ones
    assert out[0] == "keep me" and out[1] == "also keep"
    assert out[2] == "" and out[3] == ""
    assert out[4] == " \nreal\n "
    assert out[5] == "unique"


def test_parse_urls_rules():
    from versa_ray.ops.urltools import parse_urls

    df = pd.DataFrame({"url": [
        "HTTP://Example.COM:80/a?utm_source=x&b=2&a=1#frag",
        "https://news.example.co.uk:8443",
        "https://a.b.example.org/x/?fbclid=q&z=1",
        "not a url",
        None,
    ]})
    p = parse_urls(df)
    assert p.loc[0, "scheme"] == "http" and p.loc[0, "host"] == "example.com"
    assert p.loc[0, "port"] == ""  # default port stripped
    assert p.loc[0, "query"] == "a=1&b=2"  # utm dropped, sorted
    assert p.loc[0, "canonical_url"] == "http://example.com/a?a=1&b=2"
    assert p.loc[1, "port"] == "8443" and p.loc[1, "path"] == "/"
    assert p.loc[1, "reg_domain"] == "example.co.uk"  # 2-level suffix
    assert p.loc[2, "reg_domain"] == "example.org"
    assert p.loc[2, "canonical_url"] == "https://a.b.example.org/x/?z=1"
    assert p.loc[3, "canonical_url"] == "" and p.loc[4, "canonical_url"] == ""


def test_host_doc_counts(ray_session):
    import ray.data as rd

    from versa_ray.ops.urltools import host_doc_counts

    df = pd.DataFrame({"url": [
        "https://a.example.com/1", "https://b.example.com/2",
        "https://x.example.co.uk/3",
    ]})
    out = (host_doc_counts(rd.from_pandas(df).repartition(2))
           .to_pandas().set_index("reg_domain")["n_docs"])
    assert out.to_dict() == {"example.com": 2, "example.co.uk": 1}


def test_doc_perplexity_paths_and_values(ray_session, monkeypatch):
    import math

    import ray.data as rd

    from versa_ray.ops import lm
    from versa_ray.ops.lm import doc_perplexity

    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["the cat sat", "the the the", "", "rare unique zebra"],
    })
    ds = rd.from_pandas(df).repartition(2)
    b = (doc_perplexity(ds, min_count=2).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    monkeypatch.setattr(lm, "BROADCAST_THRESHOLD", 0)
    d = (doc_perplexity(ds, min_count=2).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(b, d[b.columns], check_dtype=False)
    # tokens: the×4 cat sat rare unique zebra -> T=9, vocab={the}, V=1
    # denom=11; p(the)=5/11, p_oov=1/11
    lp_the, lp_oov = math.log(5 / 11), math.log(1 / 11)
    assert b.loc[0, "n_tokens"] == 3
    assert abs(b.loc[0, "log_ppl"] - round(-(lp_the + 2 * lp_oov) / 3, 6)) < 2e-6
    assert abs(b.loc[1, "log_ppl"] + lp_the) < 2e-6
    assert b.loc[2, "n_tokens"] == 0 and b.loc[2, "log_ppl"] == 0.0


def test_boilerplate_respects_min_docs(ray_session):
    import ray.data as rd

    from versa_ray.ops.boilerplate import boilerplate_lines

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["twice\nonce", "twice\nother", "third"],
    })
    ds = rd.from_pandas(df).repartition(2)
    assert set(boilerplate_lines(ds, min_docs=2).to_pandas()["line"]) == {"twice"}
    assert len(boilerplate_lines(ds, min_docs=3).to_pandas()) == 0


def test_chunk_text_matches_naive():
    import re

    from versa_ray.ops.chunking import chunk_text

    docs = pd.DataFrame(
        {
            "doc_id": ["a", "b", "c", "d", "e"],
            "text": [
                "one two three four five six seven eight nine ten",
                "  spaced   out\t tokens\nhere ",
                "",
                "single",
                "exactly four word doc",
            ],
        }
    )

    def naive(text, ct, ov):
        toks = [t for t in re.split(r"\s+", text.strip()) if t]
        stride = ct - ov
        out = []
        for k in range(max((len(toks) + stride - 1) // stride, 1)):
            lo = min(k * stride, len(toks))
            hi = min(lo + ct, len(toks))
            out.append((" ".join(toks[lo:hi]), hi - lo))
        return [c for c in out if c[1] > 0]

    for ct, ov in [(4, 1), (3, 0), (8, 4)]:
        got = chunk_text(docs, chunk_tokens=ct, overlap=ov)
        for _, r in docs.iterrows():
            exp = naive(r.text, ct, ov)
            g = got[got.doc_id == r.doc_id]
            assert [tuple(x) for x in g[["chunk_text", "n_tokens"]].values] == exp
            assert list(g.chunk_id) == list(range(len(exp)))

    with pytest.raises(ValueError):
        chunk_text(docs, chunk_tokens=4, overlap=4)
    kept = chunk_text(docs, chunk_tokens=4, overlap=1, drop_empty=False)
    assert (kept.doc_id == "c").sum() == 1  # empty doc kept as empty chunk


def test_chunk_documents_batch_invariant(ray_session):
    import ray.data as rd

    from versa_ray.ops.chunking import chunk_documents

    docs = rd.read_parquet(f"{SF}/documents.parquet")

    def run(bs):
        ds = docs if bs is None else docs.repartition(bs)
        return (
            chunk_documents(ds, chunk_tokens=32, overlap=8)
            .to_pandas()
            .sort_values(["doc_id", "chunk_id"], ignore_index=True)
        )

    a, b = run(None), run(7)
    pd.testing.assert_frame_equal(a, b)
    # chunk coverage: token totals reconstruct (sum - overlaps == doc tokens)
    assert (a.n_tokens > 0).all()


def test_pack_sequences(ray_session):
    """Concat-and-split packing equals a sequential replay: spans in
    doc_id order, every interior sequence exactly seq_len tokens,
    token totals conserved, partition-invariant."""
    import numpy as np
    import ray.data as rd

    from versa_ray.ops.chunking import pack_sequences

    rng = np.random.RandomState(1)
    rows = pd.DataFrame(
        {
            "doc_id": rng.permutation(250),
            "text": [" ".join(["w"] * int(k)) for k in rng.randint(0, 50, 250)],
        }
    )
    ds = rd.from_pandas(rows).repartition(9)
    got = (
        pack_sequences(ds, 64, num_ranges=8)
        .to_pandas()
        .sort_values(["doc_id", "seq_id"], ignore_index=True)
    )
    ref, cum = [], 0
    for _, r in rows.sort_values("doc_id").iterrows():
        n = len(r["text"].split())
        if n == 0:
            continue
        start, end = cum, cum + n
        for s in range(start // 64, (end - 1) // 64 + 1):
            ref.append(
                (r["doc_id"], s, min((s + 1) * 64, end) - max(s * 64, start))
            )
        cum = end
    want = pd.DataFrame(ref, columns=["doc_id", "seq_id", "n_tokens"])
    want = want.sort_values(["doc_id", "seq_id"], ignore_index=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    # conservation + full interior sequences
    assert got["n_tokens"].sum() == sum(len(t.split()) for t in rows["text"])
    per_seq = got.groupby("seq_id")["n_tokens"].sum()
    assert (per_seq.iloc[:-1] == 64).all()
    # partition-invariant (different block structure, same answer)
    again = (
        pack_sequences(rd.from_pandas(rows).repartition(2), 64, num_ranges=3)
        .to_pandas()
        .sort_values(["doc_id", "seq_id"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(again.astype("int64"), want.astype("int64"))
    # all-empty-text corpus: empty spans table, not an IndexError from
    # the empty-bucket schema probe
    empty_docs = pd.DataFrame(
        {"doc_id": range(10), "text": ["", "  ", None, "", " ", "", "", "", "", ""]}
    )
    nothing = pack_sequences(rd.from_pandas(empty_docs), 64, num_ranges=2)
    # (to_pandas() on an all-empty Dataset drops columns — check the
    # Dataset schema, which the empty-bucket probe must preserve)
    assert set(nothing.schema().names) == {"doc_id", "seq_id", "n_tokens"}
    assert nothing.count() == 0


def test_incremental_minhash_dedup(ray_session, tmp_path):
    """Online LSH near-dedup across micro-batches: cross-delta
    near-dups assign to the EARLIER kept representative, within-delta
    clusters keep batch semantics, replay equals batch minhash_dedup,
    and the second call leaves untouched band partitions alone."""
    import os

    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.dedup import incremental_minhash_dedup, minhash_dedup

    def mktext(seed, n=40):
        return " ".join(f"tok{seed}_{j}" for j in range(n))

    rows = [{"doc_id": i, "text": mktext(i)} for i in range(30)]
    # cluster A spans both deltas: 2 (delta1) ~ 17 (delta2)
    rows[17]["text"] = rows[2]["text"] + " extra"
    # cluster B entirely in delta2: 21 ~ 22
    rows[22]["text"] = rows[21]["text"] + " tail"
    df = pd.DataFrame(rows)

    state = str(tmp_path / "mh_state")
    d1 = rd.from_pandas(df[df.doc_id < 15].reset_index(drop=True))
    d2 = rd.from_pandas(df[df.doc_id >= 15].reset_index(drop=True))
    a1, k1 = incremental_minhash_dedup(state, d1, threshold=0.5)
    a1 = a1.materialize()
    mtimes = {
        p: os.path.getmtime(os.path.join(state, "bands", p))
        for p in os.listdir(os.path.join(state, "bands"))
        if p.startswith("bucket=")
    }
    a2, k2 = incremental_minhash_dedup(state, d2, threshold=0.5)
    inc = (
        pd.concat([a1.to_pandas(), a2.to_pandas()])
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert k1 == 15  # no dups within delta 1
    assert k2 == 13  # 17 matched state, 22 matched 21 in-delta
    by = inc.set_index("doc_id")["cluster"]
    assert by[17] == 2      # cross-delta near-dup -> earlier rep
    assert by[22] == 21     # within-delta cluster, min id wins
    assert by[2] == 2 and by[21] == 21

    batch = (
        minhash_dedup(rd.from_pandas(df), threshold=0.5).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(inc, batch)

    # delta-2 rewrote only touched band partitions; nothing vanished
    after = {
        p: os.path.getmtime(os.path.join(state, "bands", p))
        for p in os.listdir(os.path.join(state, "bands"))
        if p.startswith("bucket=")
    }
    assert set(mtimes) <= set(after)

    # crash-window sweep: a stray stage dir is cleaned on next call;
    # append-only re-arrivals (same text, NEW ids) all match state
    stray = os.path.join(state, "bands", "bucket=0.tmp")
    os.makedirs(stray, exist_ok=True)
    d3 = df[df.doc_id < 3].reset_index(drop=True).assign(
        doc_id=lambda x: x.doc_id + 100)
    a3, k3 = incremental_minhash_dedup(
        state, rd.from_pandas(d3), threshold=0.5)
    assert not os.path.isdir(stray)
    assert k3 == 0  # all three are near-dups of state reps
    assert sorted(a3.to_pandas()["cluster"]) == [0, 1, 2]

    # REPLAY of an already-applied delta: same assignments, n_kept=0,
    # and the state gains no duplicate representative rows
    import glob
    import json

    def _state_rows(sub):
        files = glob.glob(os.path.join(state, sub, "bucket=*", "*.parquet"))
        return sum(len(pd.read_parquet(f)) for f in files)

    bands_before = _state_rows("bands")
    sigs_before = _state_rows("sigs")
    a2r, k2r = incremental_minhash_dedup(state, d2, threshold=0.5)
    assert k2r == 0
    pd.testing.assert_frame_equal(
        a2r.to_pandas().sort_values("doc_id").reset_index(drop=True),
        a2.to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert _state_rows("bands") == bands_before
    assert _state_rows("sigs") == sigs_before

    # crash AFTER the swaps but BEFORE the fp record: the surviving
    # _commit.json marker is folded into the meta by the next call,
    # so the retry is still detected as a replay
    meta_path = os.path.join(state, "_state_meta.json")
    meta = json.load(open(meta_path))
    fp2 = meta["applied_deltas"][-1]
    meta["applied_deltas"] = [
        f for f in meta["applied_deltas"] if f != fp2]
    json.dump(meta, open(meta_path, "w"))
    with open(os.path.join(state, "_commit.json"), "w") as f:
        json.dump({"fp": fp2, "n_kept": 0, "sig_touched": [],
                   "band_touched": []}, f)
    a3r, k3r = incremental_minhash_dedup(
        state, rd.from_pandas(d3), threshold=0.5)
    assert k3r == 0
    assert not os.path.exists(os.path.join(state, "_commit.json"))
    assert fp2 in json.load(open(meta_path))["applied_deltas"]
    assert _state_rows("bands") == bands_before
    assert _state_rows("sigs") == sigs_before
    assert sorted(a3r.to_pandas()["cluster"]) == [0, 1, 2]
    assert _pandas_meta_files(state) == []


def test_incremental_minhash_empty_delta(ray_session, tmp_path):
    """An empty micro-batch is a no-op: empty typed assignment, zero
    kept, state untouched."""
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.dedup import incremental_minhash_dedup

    state = str(tmp_path / "s")
    d1 = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "text": ["alpha beta gamma delta epsilon",
                                    "zeta eta theta iota kappa words"]}))
    a1, k1 = incremental_minhash_dedup(state, d1)
    assert k1 == 2
    empty = rd.from_pandas(pd.DataFrame(
        {"doc_id": pd.array([], dtype="int64"),
         "text": pd.array([], dtype=str)}))
    a2, k2 = incremental_minhash_dedup(state, empty)
    assert k2 == 0 and a2.count() == 0
    # schema survives (to_pandas of a truly-empty Dataset drops
    # columns — a Ray quirk — so assert on the Dataset schema)
    assert a2.schema().names == ["doc_id", "cluster"]


def test_line_dedup(ray_session):
    """First occurrence of each distinct line (min (doc_id,
    line_idx)) survives; other copies drop; documents reassemble in
    line order; all-dup docs come back with empty text; word-window
    mode windows whitespace tokens."""
    import ray.data as rd

    from versa_ray.ops.dedup import line_dedup

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            "first unique\nshared line\nlast unique",
            "shared line\nsecond doc own line",
            "shared line",
        ],
    })
    out = line_dedup(rd.from_pandas(df)).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert out["text"].tolist() == [
        "first unique\nshared line\nlast unique",
        "second doc own line",
        "",
    ]
    # window mode: 3-token windows, rejoined with spaces
    df2 = pd.DataFrame({"doc_id": [1, 2],
                        "text": ["a b c d e", "a b c tail words"]})
    out2 = line_dedup(rd.from_pandas(df2), line_words=3).to_pandas()
    out2 = out2.sort_values("doc_id", ignore_index=True)
    assert out2["text"].tolist() == ["a b c d e", "tail words"]

    # STRING doc ids (curate_documents' generic id_col) bucket via a
    # dtype-agnostic hash — same semantics, first-wins by lex-min id
    dfs = df.assign(doc_id=["doc-a", "doc-b", "doc-c"])
    outs = line_dedup(rd.from_pandas(dfs)).to_pandas().sort_values(
        "doc_id", ignore_index=True)
    assert outs["doc_id"].tolist() == ["doc-a", "doc-b", "doc-c"]
    assert outs["text"].tolist() == out["text"].tolist()


def test_line_dedup_keep_cols_and_curation(ray_session):
    """keep_cols metadata rides through line dedup; curation with
    line_dedup_words strips duplicated windows before exact dedup
    and drops docs whose every line was a duplicate."""
    import ray.data as rd

    from versa_ray.ops.curation import curate_documents
    from versa_ray.ops.dedup import line_dedup

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "lang": ["en", "de", "fr"],
        "text": ["one two three four five six",
                 "one two three seven eight nine",
                 "one two three"],
    })
    out = line_dedup(rd.from_pandas(df), line_words=3,
                     keep_cols=("lang",)).to_pandas()
    out = out.sort_values("doc_id", ignore_index=True)
    assert out["lang"].tolist() == ["en", "de", "fr"]
    assert out["text"].tolist() == [
        "one two three four five six", "seven eight nine", ""]

    cur = curate_documents(
        rd.from_pandas(df), normalize=False, line_dedup_words=3
    ).to_pandas().sort_values("doc_id", ignore_index=True)
    # doc 3 (all lines duplicated) dropped entirely
    assert cur["doc_id"].tolist() == [1, 2]
    assert cur.loc[1, "text"] == "seven eight nine"


def test_semi_join_keys_exact_and_tiny_right(ray_session):
    """semi_join_keys is an EXACT semi/anti join and — unlike
    Dataset.join — survives a keys side so small that most hash
    partitions receive zero key rows (the ray 2.49 empty-partition
    schema bug it exists to dodge)."""
    import ray.data as rd

    from versa_ray.ops.joins import semi_join_keys

    left = pd.DataFrame(
        {"k": [f"k{i % 37}" for i in range(500)], "v": np.arange(500)}
    )
    for keyset in (["k1", "k5", "k36"], ["k%d" % i for i in range(30)], []):
        keys = pd.DataFrame({"key": keyset})
        lds = rd.from_pandas(left).repartition(8)
        kds = rd.from_pandas(keys)
        semi = semi_join_keys(
            lds, kds, on="k", keys_on="key", left_cols=["k", "v"]
        ).to_pandas()
        anti = semi_join_keys(
            lds, kds, on="k", keys_on="key", anti=True, left_cols=["k", "v"]
        ).to_pandas()
        # left_cols pins the block schema even when a bucket's left
        # side is empty (to_pandas on an ALL-empty result may still
        # drop columns — a Ray driver-side edge, so only check
        # non-empty frames)
        for frame in (semi, anti):
            if len(frame):
                assert list(frame.columns) == ["k", "v"]
        want_semi = left[left.k.isin(keyset)]
        empty = pd.Series([], dtype="int64")
        assert sorted(semi.get("v", empty)) == sorted(want_semi.v)
        assert sorted(anti.get("v", empty)) == \
            sorted(left[~left.k.isin(keyset)].v)
        assert len(semi) + len(anti) == len(left)


def _brute_dup_spans(docs, k=3, min_docs=2):
    """Reference: brute-force duplicated-gram run detection."""
    from collections import defaultdict

    where = defaultdict(set)
    toks = {d: (t or "").split() for d, t in docs}
    for d, tk in toks.items():
        for p in range(len(tk) - k + 1):
            where[tuple(tk[p:p + k])].add(d)
    dup = {g for g, ds_ in where.items() if len(ds_) >= min_docs}
    spans = []
    for d, tk in toks.items():
        run = None
        for p in range(len(tk) - k + 1):
            if tuple(tk[p:p + k]) in dup:
                if run is None:
                    run = [p, p]
                else:
                    run[1] = p
            elif run is not None:
                spans.append((d, run[0], run[1] + k - 1))
                run = None
        if run is not None:
            spans.append((d, run[0], run[1] + k - 1))
    return set(spans)


def test_dup_spans_brute_force(ray_session, shuffle_width):
    import ray.data as rd
    from versa_ray.ops.dedup import dup_spans, remove_dup_spans

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(12)]
    docs = []
    for d in range(40):
        n = rng.randint(0, 30)
        docs.append((d, " ".join(rng.choice(vocab, n))))
    # plant an exact shared passage and a doc shorter than k
    shared = "alpha beta gamma delta epsilon"
    docs.append((100, f"x0 {shared} x1"))
    docs.append((101, f"{shared} y0 y1 y2"))
    docs.append((102, "tiny"))
    df = pd.DataFrame(docs, columns=["doc_id", "text"])

    k = 3
    ds = rd.from_pandas(df).repartition(5)
    shuffle_width(7)
    got = dup_spans(ds, k=k).to_pandas()
    want = _brute_dup_spans(docs, k=k)
    assert set(zip(got.doc_id.astype(int), got.span_start.astype(int),
                   got.span_end.astype(int))) == want
    assert not got.duplicated(["doc_id", "span_start"]).any()
    # the planted passage is found in both carriers, maximally
    assert (100, 1, 5) in want and (101, 0, 4) in want

    shuffle_width(7)
    stripped = remove_dup_spans(ds, k=k).to_pandas()
    assert len(stripped) == len(df)
    bydoc = dict(zip(stripped.doc_id.astype(int), stripped.text))
    cover = {}
    for d, a, b in want:
        cover.setdefault(d, set()).update(range(a, b + 1))
    for d, t in docs:
        tk = (t or "").split()
        keep = [w for i, w in enumerate(tk) if i not in cover.get(d, ())]
        assert bydoc[d] == " ".join(keep)


def test_doc_bigram_perplexity_brute(ray_session, shuffle_width):
    import math
    from collections import Counter

    import ray.data as rd

    from versa_ray.ops.lm import doc_bigram_perplexity

    rng = np.random.RandomState(5)
    vocab = [f"t{i}" for i in range(9)]
    docs = [(d, " ".join(rng.choice(vocab, rng.randint(0, 14))))
            for d in range(60)]
    docs.append((200, ""))        # empty
    docs.append((201, "lone"))    # single token: no bigrams
    df = pd.DataFrame(docs, columns=["doc_id", "text"])

    shuffle_width(7)
    out = doc_bigram_perplexity(
        rd.from_pandas(df).repartition(6)).to_pandas()

    toks = {d: t.split() for d, t in docs}
    V = len({w for tk in toks.values() for w in tk})
    c2, c1 = Counter(), Counter()
    for tk in toks.values():
        for a, b in zip(tk[:-1], tk[1:]):
            c2[(a, b)] += 1
            c1[a] += 1
    got = {r.doc_id: (r.n_bigrams, r.log_ppl2) for r in out.itertuples()}
    assert set(got) == {d for d, _ in docs}
    for d, tk in toks.items():
        n = max(len(tk) - 1, 0)
        assert got[d][0] == n
        if n == 0:
            assert got[d][1] == 0.0
        else:
            s = sum(math.log((c2[(a, b)] + 1.0) / (c1[a] + V))
                    for a, b in zip(tk[:-1], tk[1:]))
            assert got[d][1] == pytest.approx(-s / n, abs=1e-6)


def test_grouped_quantile_disc_and_filter(ray_session, shuffle_width):
    import ray.data as rd

    from versa_ray.ops.agg import (filter_above_group_quantile,
                                   grouped_quantile_disc)

    rng = np.random.RandomState(23)
    df = pd.DataFrame({
        "grp": rng.choice(["a", "b", "c"], 400),
        "val": rng.randint(0, 50, 400).astype("int64"),
        "row": np.arange(400, dtype="int64"),
    })
    for q in [0.0, 0.25, 0.5, 0.9, 1.0]:
        shuffle_width(4)
        got = grouped_quantile_disc(
            rd.from_pandas(df).repartition(5), "grp", "val", q).to_pandas()
        want = {}
        for g, sub in df.groupby("grp"):
            v = np.sort(sub["val"].to_numpy())
            want[g] = v[max(int(np.ceil(q * len(v))) - 1, 0)]
        assert dict(zip(got.grp, got.val)) == want, q

    shuffle_width(4)
    kept = filter_above_group_quantile(
        rd.from_pandas(df).repartition(5), "grp", "val", 0.5).to_pandas()
    med = {g: np.sort(s["val"].to_numpy())[
        max(int(np.ceil(0.5 * len(s))) - 1, 0)]
        for g, s in df.groupby("grp")}
    want_rows = {int(r.row) for r in df.itertuples()
                 if r.val > med[r.grp]}
    assert {int(r) for r in kept.row} == want_rows


def test_zip_with_index(ray_session, shuffle_width):
    import ray.data as rd

    from versa_ray.ops.agg import zip_with_index

    rng = np.random.RandomState(31)
    vals = [f"urn:e:{i:05d}" for i in rng.permutation(800)]
    df = pd.DataFrame({"entity": vals, "payload": np.arange(800)})
    shuffle_width(7)
    out = zip_with_index(
        rd.from_pandas(df).repartition(6), "entity"
    ).to_pandas()
    srt = sorted(vals)
    assert len(out) == 800
    assert sorted(out._index) == list(range(800))
    assert all(srt[ix] == e for e, ix in zip(out.entity, out._index))
    # payload column rides along untouched
    pay = dict(zip(df.entity, df.payload))
    assert all(pay[e] == p for e, p in zip(out.entity, out.payload))
    # integer keys and a single row
    one = zip_with_index(
        rd.from_pandas(pd.DataFrame({"k": [42]})), "k").to_pandas()
    assert one.to_dict("records") == [{"k": 42, "_index": 0}]


def test_inverted_index_build_and_lookup(ray_session, docs_ds, tmp_path):
    import os

    from versa_ray.ops.retrieval import (
        build_inverted_index, lookup_postings, tokenize)

    idx = str(tmp_path / "invidx")
    build_inverted_index(docs_ds, idx, num_term_buckets=8)
    # hive layout: one dir per term bucket, plus the meta file
    buckets = [d for d in os.listdir(idx) if d.startswith("term_bucket=")]
    assert 1 <= len(buckets) <= 8
    assert os.path.exists(os.path.join(idx, "_invidx_meta.json"))
    assert _pandas_meta_files(idx) == []

    probe = ["merge", "customer", "notaterm"]
    got = (
        lookup_postings(idx, probe)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    # brute-force truth from the same tokenizer contract
    docs = docs_ds.to_pandas()
    rows = []
    for _, r in docs.iterrows():
        toks = tokenize(r["text"])
        for t in set(probe):
            tf = toks.count(t)
            if tf:
                rows.append((r["doc_id"], t, tf))
    want = (
        pd.DataFrame(rows, columns=["doc_id", "term", "tf"])
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"tf": "int64"}), want.astype({"tf": "int64"}))
    # a probe set that misses every bucket-resident term returns an
    # empty Dataset that still carries the contract schema
    # (Dataset.to_pandas on a fully-empty result drops columns — a
    # Ray quirk — so assert at the Dataset level)
    empty = lookup_postings(idx, ["zzzznope"])
    assert empty.schema().names == ["doc_id", "term", "tf"]
    assert empty.count() == 0


def test_dsir_weights_brute_force(ray_session, shuffle_width):
    import math

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.curation import dsir_weights

    rows = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": ["the cat sat", "the the dog", "cat dog cat bird",
                 "", "quantum flux", "the bird"],
        "lang": ["en", "en", "fr", "en", "fr", "fr"],
    })

    # pure-python reference: add-one unigram LMs over the shared vocab
    toks = {r.doc_id: r.text.split() for r in rows.itertuples()}
    tgt = {r.doc_id: r.lang == "en" for r in rows.itertuples()}
    ct, cs = {}, {}
    for d, ts in toks.items():
        for t in ts:
            (ct if tgt[d] else cs)[t] = (ct if tgt[d] else cs).get(t, 0) + 1
    vocab = set(ct) | set(cs)
    Tt, Ts, V = sum(ct.values()), sum(cs.values()), len(vocab)
    want = {}
    for d, ts in toks.items():
        if not ts:
            want[d] = (0, 0.0)
            continue
        s = sum(math.log((ct.get(t, 0) + 1) / (Tt + V))
                - math.log((cs.get(t, 0) + 1) / (Ts + V)) for t in ts)
        want[d] = (len(ts), round(s / len(ts), 6))

    for nb in (3, 17):  # partition invariance across bucket counts
        shuffle_width(nb)
        out = dsir_weights(
            rd.from_pandas(rows, override_num_blocks=3),
            is_target=lambda df: df["lang"].to_numpy() == "en").to_pandas()
        got = {int(r.doc_id): (int(r.n_tokens), float(r.log_ratio))
               for r in out.itertuples()}
        assert set(got) == set(want)
        for d in want:
            assert got[d][0] == want[d][0], (nb, d)
            assert abs(got[d][1] - want[d][1]) < 1e-9, (nb, d)

    # target docs must on average score higher than source docs on a
    # corpus whose target has a distinctive vocabulary
    assert np.mean([got[d][1] for d in got if tgt[d] and toks[d]]) > \
        np.mean([got[d][1] for d in got if not tgt[d]])


def test_edit_distance_join_brute_force(ray_session, shuffle_width):
    import itertools

    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.dedup import edit_distance_join

    left = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "s": ["kitten", "apple", "banana", ""],
    })
    right = pd.DataFrame({
        "doc_id": [10, 11, 12, 13, 14, 15],
        "s": ["kitten",    # dist 0
              "kittex",    # substitution, dist 1
              "kitte",     # deletion, dist 1
              "kittens",   # insertion, dist 1
              "aple",      # deletion of apple, dist 1
              "x"],        # dist 1 from "" (insertion)
    })

    def lev(a, b):
        d = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, d[0] = d[0], i
            for j, cb in enumerate(b, 1):
                prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                       prev + (ca != cb))
        return d[-1]

    want = {(int(l.doc_id), int(r.doc_id)): lev(l.s, r.s)
            for l, r in itertools.product(left.itertuples(),
                                          right.itertuples())
            if lev(l.s, r.s) <= 1}

    shuffle_width(5)
    out = edit_distance_join(
        rd.from_pandas(left), rd.from_pandas(right),
        col="s").to_pandas()
    got = {(int(r.id_l), int(r.id_r)): int(r.dist)
           for r in out.itertuples()}
    assert got == want
    assert (1, 10) in got and got[(1, 10)] == 0
    assert (4, 15) in got and got[(4, 15)] == 1  # empty-string side


def test_winnow_fingerprints_brute_force(ray_session, shuffle_width):
    """winnow_fingerprints equals a pure-Python winnowing reference
    (rightmost-min tie rule) on random word-soup docs, and the paper's
    guarantee holds: two docs sharing a substring of length >= w+k-1
    share at least one selected fingerprint."""
    import hashlib
    import random

    import ray.data as rd

    from versa_ray.ops.dedup import winnow_fingerprints, winnow_overlap_pairs

    k, w = 6, 5
    rng = random.Random(42)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    passage = "the shared passage survives winnowing intact"
    texts = []
    for i in range(40):
        words = [vocab[rng.randrange(len(vocab))] for _ in range(rng.randrange(0, 30))]
        t = " ".join(words)
        if i % 10 == 3:  # plant the shared passage in 4 docs
            t = t[: len(t) // 2] + passage + t[len(t) // 2:]
        texts.append(t)
    texts.append("")      # degenerate: empty
    texts.append("abc")   # shorter than k
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})

    def brute(text):
        m = len(text) - k + 1
        if m < w:
            return set()
        h = [int.from_bytes(hashlib.md5(text[i:i + k].encode()).digest()[:8],
                            "little") for i in range(m)]
        sel = set()
        for e in range(w - 1, m):
            window = h[e - w + 1:e + 1]
            mn = min(window)
            for j in range(w - 1, -1, -1):
                if window[j] == mn:
                    sel.add((e - w + 1 + j + 1, mn))
                    break
        return sel

    got = winnow_fingerprints(
        rd.from_pandas(docs), k=k, w=w).to_pandas()
    by_doc = {
        did: set(zip(g["pos"],
                     g["fp"].to_numpy().astype(np.int64).view(np.uint64)))
        for did, g in got.groupby("doc_id")
    }
    for did, text in zip(docs.doc_id, docs.text):
        assert by_doc.get(int(did), set()) == brute(text), did

    planted = [i for i in range(40) if i % 10 == 3]
    fps = [
        {fp for _, fp in by_doc[i]} for i in planted
    ]
    shared = set.intersection(*fps)
    assert shared, "w+k-1 guarantee violated: planted passage not shared"

    # overlap pairs vs brute-force shared-fingerprint counting
    fp_sets = {int(d): {fp for _, fp in by_doc.get(int(d), set())}
               for d in docs.doc_id}
    from collections import Counter
    freq = Counter(fp for s in fp_sets.values() for fp in s)
    cap, min_shared = 3, 2
    want_pairs = {}
    ids = sorted(fp_sets)
    for ai in range(len(ids)):
        for bi in range(ai + 1, len(ids)):
            a, b = ids[ai], ids[bi]
            n = sum(1 for fp in fp_sets[a] & fp_sets[b] if freq[fp] <= cap)
            if n >= min_shared:
                want_pairs[(a, b)] = n
    shuffle_width(7)
    out = winnow_overlap_pairs(
        rd.from_pandas(docs), k=k, w=w, min_shared=min_shared,
        max_fp_docs=cap).to_pandas()
    got_pairs = {(int(r.id_a), int(r.id_b)): int(r.shared)
                 for r in out.itertuples()}
    assert got_pairs == want_pairs


def test_mad_outliers_brute_force(ray_session):
    """mad_outliers equals a numpy quantile_disc-semantics reference
    on skewed integer groups, including planted extreme values, and is
    invariant to the input block layout."""
    import random

    import ray.data as rd

    from versa_ray.ops.agg import mad_outliers

    rng = random.Random(7)
    rows = []
    for g, base in [("a", 100), ("b", 1000), ("c", 50)]:
        for i in range(41):
            rows.append((g, base + rng.randrange(-20, 21)))
        rows.append((g, base * 10))   # planted high outlier
        rows.append((g, 1))           # planted low outlier
    df = pd.DataFrame(rows, columns=["grp", "x"])
    df.insert(0, "rid", np.arange(len(df), dtype=np.int64))

    def qdisc(v):  # quantile_disc(0.5): element at rank ceil(N/2)-1
        s = np.sort(np.asarray(v, dtype=np.int64))
        return int(s[max(int(np.ceil(0.5 * len(s))) - 1, 0)])

    want = {}
    for g, sub in df.groupby("grp"):
        med = qdisc(sub.x)
        mad = qdisc(np.abs(sub.x.to_numpy(dtype=np.int64) - med))
        for r in sub.itertuples():
            want[int(r.rid)] = (med, mad, abs(int(r.x) - med) > 3 * mad)

    for nblocks in (1, 7):
        ds = rd.from_pandas(df).repartition(nblocks)
        out = mad_outliers(ds, key="grp", col="x", k=3).to_pandas()
        got = {int(r.rid): (int(r.med), int(r.mad), bool(r.is_outlier))
               for r in out.itertuples()}
        assert got == want
    assert sum(1 for *_, o in want.values() if o) == 6  # all plants flagged


def test_ntile_sql_semantics(ray_session, shuffle_width):
    """ntile matches SQL NTILE (first N%B buckets take ceil(N/B)) on
    uneven N, N < B, duplicate values (tie-broken by id), and is
    partition-invariant."""
    import duckdb
    import ray.data as rd

    from versa_ray.ops.agg import ntile

    rng = np.random.RandomState(9)
    for n, b in [(23, 7), (3, 5), (40, 4)]:
        df = pd.DataFrame({
            "rid": np.arange(n, dtype=np.int64),
            "x": rng.randint(0, 6, size=n).astype(np.int64),  # many ties
        })
        want = duckdb.sql(
            "SELECT rid, CAST(NTILE(%d) OVER (ORDER BY x, rid) AS BIGINT)"
            " AS tile FROM df ORDER BY rid" % b).df()
        for nblocks in (1, 6):
            shuffle_width(5)
            out = ntile(rd.from_pandas(df).repartition(nblocks),
                        col="x", tie_col="rid", n_tiles=b).to_pandas()
            got = out.sort_values("rid")[["rid", "tile"]].reset_index(
                drop=True)
            pd.testing.assert_frame_equal(
                got, want, check_dtype=False)


def test_winsorize(ray_session):
    """winsorize: thresholds equal quantile_disc semantics and the clip
    flag is exact."""
    import ray.data as rd

    from versa_ray.ops.agg import winsorize

    rng = np.random.RandomState(2)
    df = pd.DataFrame({"rid": np.arange(200, dtype=np.int64),
                       "x": rng.randint(0, 1000, 200).astype(np.int64)})

    def qdisc(v, q):
        s = np.sort(v)
        return int(s[max(int(np.ceil(q * len(s))) - 1, 0)])

    lo, hi = qdisc(df.x.to_numpy(), 0.1), qdisc(df.x.to_numpy(), 0.9)
    out = winsorize(rd.from_pandas(df).repartition(4), "x",
                    q_lo=0.1, q_hi=0.9).to_pandas().sort_values("rid")
    want = np.clip(df.x.to_numpy(), lo, hi)
    assert (out.x_wins.to_numpy() == want).all()
    assert (out.clipped.to_numpy() == (want != df.x.to_numpy())).all()
    assert out.clipped.any() and not out.clipped.all()


def test_profile_table_native_merge(ray_session):
    """profile_table merges cross-batch min/max NATIVELY: integer
    batches whose stringified minima order lexicographically wrong
    ("100" < "99") still profile to the true numeric extremes; nulls
    count; string columns use codepoint order."""
    import ray.data as rd

    from versa_ray.ops.validate import profile_table

    df = pd.DataFrame({
        "x": [99, 100, 5, 2000, 7, None],
        "s": ["b", "a", "zz", None, "c", "a"],
    })
    out = profile_table(
        rd.from_pandas(df).repartition(6), ["s", "x"])
    assert list(out["column"]) == ["s", "x"]
    sx = out.set_index("column")
    assert int(sx.loc["x", "n_null"]) == 1
    assert sx.loc["x", "min_v"] == "5.0" and sx.loc["x", "max_v"] == "2000.0"
    assert sx.loc["s", "min_v"] == "a" and sx.loc["s", "max_v"] == "zz"
    assert int(sx.loc["s", "n_rows"]) == 6 and int(sx.loc["s", "n_null"]) == 1


def test_weighted_sample_properties(ray_session):
    """weighted_sample: partition-invariant, a pure function of
    (ids, weights), statistically weight-respecting (the heavy item
    appears in the sample; heavier ids are overrepresented), and
    raises on non-positive weights."""
    import ray.data as rd

    from versa_ray.ops.sample import weighted_sample

    df = pd.DataFrame({
        "rid": np.arange(400, dtype=np.int64),
        "w": np.where(np.arange(400) % 100 == 0, 100000, 1).astype(
            np.int64),
    })
    picks = []
    for nblocks in (1, 8):
        out = weighted_sample(
            rd.from_pandas(df).repartition(nblocks), n=40,
            weight_col="w", id_col="rid")
        assert len(out) == 40
        picks.append(tuple(sorted(out.rid)))
    assert picks[0] == picks[1]          # layout-invariant
    heavy = {0, 100, 200, 300}
    assert heavy <= set(picks[0])        # 1e5x weights always survive

    bad = df.assign(w=0)
    with pytest.raises(Exception):       # surfaced through Ray
        weighted_sample(rd.from_pandas(bad), n=5, weight_col="w",
                        id_col="rid")


def test_grouped_percent_rank_brute_force(ray_session, shuffle_width):
    """grouped_percent_rank equals the SQL window per group, incl.
    heavy ties and a single-row group (0.0), at two block layouts."""
    import duckdb
    import ray.data as rd

    from versa_ray.ops.agg import grouped_percent_rank

    rng = np.random.RandomState(4)
    df = pd.DataFrame({
        "rid": np.arange(120, dtype=np.int64),
        "g": np.repeat(["a", "b", "c"], 40),
        "x": rng.randint(0, 8, 120).astype(np.int64),
    })
    df = pd.concat(
        [df, pd.DataFrame({"rid": [999], "g": ["solo"], "x": [5]})],
        ignore_index=True)
    want = duckdb.sql(
        "SELECT rid, percent_rank() OVER (PARTITION BY g ORDER BY x) "
        "AS pct_rank FROM df ORDER BY rid").df()
    for nblocks in (1, 7):
        shuffle_width(4)
        out = grouped_percent_rank(
            rd.from_pandas(df).repartition(nblocks), key="g",
            col="x").to_pandas()
        got = out.sort_values("rid")[["rid", "pct_rank"]].reset_index(
            drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert float(got[got.rid == 999].pct_rank.iloc[0]) == 0.0


def test_winnow_poly_hasher_fast_path(ray_session):
    """The 'poly' production hasher selects with the identical window
    rule (equality vs a scalar polynomial reference) and preserves the
    w+k-1 shared-substring guarantee; it is substantially faster than
    the md5 oracle hasher on a long document."""
    import time
    import warnings

    import ray.data as rd

    from versa_ray.ops.dedup import (_winnow_hash_poly,
                                     winnow_fingerprints)

    k, w = 8, 8
    text = "the quick brown fox jumps over the lazy dog " * 40
    m = len(text) - k + 1
    # the uint64 wraparound is intended and must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h = _winnow_hash_poly(text, k, m)
    B = 0x100000001B3
    MASK = (1 << 64) - 1
    data = text.encode()
    for p in [0, 1, 17, m - 1]:   # scalar polynomial reference
        ref = 0
        for byte in data[p:p + k]:
            ref = (ref * B + byte) & MASK
        assert int(h[p]) == ref, p

    docs = pd.DataFrame({
        "doc_id": np.array([1, 2], dtype=np.int64),
        "text": [text + "UNIQUE-A-TAIL", text + "DIFFERENT-B-END"],
    })
    out = winnow_fingerprints(
        rd.from_pandas(docs), k=k, w=w, hasher="poly").to_pandas()
    fps = {d: set(g.fp) for d, g in out.groupby("doc_id")}
    assert fps[1] & fps[2]        # shared prefix -> shared fingerprints

    big = "x".join(str(i) for i in range(5000))
    t0 = time.perf_counter()
    _winnow_hash_poly(big, k, len(big) - k + 1)
    poly_t = time.perf_counter() - t0
    from versa_ray.ops.dedup import _winnow_hash_md5
    t0 = time.perf_counter()
    _winnow_hash_md5(big, k, len(big) - k + 1)
    md5_t = time.perf_counter() - t0
    assert poly_t < md5_t         # the fast path is actually faster


def test_winnow_containment_brute_force(ray_session, shuffle_width):
    """winnow_containment_pairs: a short doc fully contained in a long
    one shows containment ~1 while Jaccard stays low, and counts equal
    a brute-force reference."""
    import hashlib

    import ray.data as rd

    from versa_ray.ops.dedup import winnow_containment_pairs

    k, w = 6, 4
    quote = "to be or not to be that is the question entirely"
    filler = " ".join("word%d" % i for i in range(220))
    docs = pd.DataFrame({
        "doc_id": np.array([1, 2, 3], dtype=np.int64),
        "text": [quote,                       # the short source
                 filler[:400] + quote + filler[400:],  # quotes it
                 "completely unrelated content with other tokens"],
    })

    def sketch(text):
        m = len(text) - k + 1
        if m < w:
            return set()
        h = [int.from_bytes(hashlib.md5(text[i:i + k].encode()).digest()[:8],
                            "little") for i in range(m)]
        sel = set()
        for e in range(w - 1, m):
            window = h[e - w + 1:e + 1]
            mn = min(window)
            for j in range(w - 1, -1, -1):
                if window[j] == mn:
                    sel.add(mn)
                    break
        return sel

    sk = {int(r.doc_id): sketch(r.text) for r in docs.itertuples()}
    shuffle_width(4)
    out = winnow_containment_pairs(
        rd.from_pandas(docs).repartition(3), k=k, w=w, min_shared=2,
        max_fp_docs=10).to_pandas()
    got = {(int(r.id_a), int(r.id_b)): (int(r.shared), int(r.n_a),
                                        int(r.n_b))
           for r in out.itertuples()}
    assert (1, 2) in got
    shared, n_a, n_b = got[(1, 2)]
    assert n_a == len(sk[1]) and n_b == len(sk[2])
    assert shared == len(sk[1] & sk[2])
    containment = shared / min(n_a, n_b)
    jaccard = shared / len(sk[1] | sk[2])
    assert containment > 0.9 and jaccard < 0.5
    assert not any(3 in p for p in got)   # unrelated doc pairs with no one
