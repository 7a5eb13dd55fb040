"""sparse_tf_cosine_pairs and percent_rank vs brute-force truth."""

import re
from collections import Counter

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from versa_ray.ops.agg import percent_rank
from versa_ray.ops.dedup import sparse_tf_cosine_pairs

DOCS = [
    "alpha beta gamma delta alpha",
    "alpha beta gamma delta epsilon",
    "zeta eta theta iota kappa",
    "zeta eta theta iota lambda mu",
    "common common common filler words here",
    "totally different content nothing shared",
    "alpha beta gamma delta alpha extra",
    "",
]


def _brute_pairs(texts, threshold, max_df, min_df=2, ngram_n=1):
    def _terms(t):
        ws = re.findall(r"[a-z0-9]+", t.lower())
        if ngram_n == 1:
            return ws
        return [" ".join(ws[i:i + ngram_n])
                for i in range(len(ws) - ngram_n + 1)]

    tfs = [Counter(_terms(t)) for t in texts]
    n2 = [sum(v * v for v in tf.values()) for tf in tfs]
    df = Counter(t for tf in tfs for t in tf)
    keep = {t for t, d in df.items() if min_df <= d <= max_df}
    out = []
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            dot = sum(
                tfs[a][t] * tfs[b][t] for t in tfs[a] if t in keep and
                t in tfs[b]
            )
            if dot == 0:
                continue
            cos = dot / np.sqrt(np.float64(n2[a] * n2[b]))
            if cos >= threshold:
                out.append((a, b, dot, round(float(cos), 6)))
    return sorted(out)


@pytest.mark.parametrize("blocks,threshold,ngram", [(1, 0.05, 1),
                                                    (4, 0.05, 1),
                                                    (4, 0.3, 1),
                                                    (4, 0.05, 2)])
def test_sparse_cosine_pairs_brute(ray_session, blocks, threshold, ngram,
                                   shuffle_width):
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": range(len(DOCS)), "text": DOCS})
    ).repartition(blocks)
    # max_df_frac chosen so max_df = floor(0.5 * 8) = 4
    shuffle_width(5)
    got = sparse_tf_cosine_pairs(
        ds, threshold=threshold, max_df_frac=0.5, ngram_n=ngram
    ).to_pandas()
    got = sorted(
        (int(r.id_a), int(r.id_b), int(r.dot), float(r.cos))
        for r in got.itertuples()
    )
    want = _brute_pairs(DOCS, threshold, max_df=4, ngram_n=ngram)
    assert got == want
    assert len(want) > 0  # the fixture must actually exercise pairs


def test_sparse_cosine_pairs_df_pruning_drops_stopwords(ray_session,
                                                        shuffle_width):
    # 'the' appears in every doc: with max_df 2 it can never generate
    # candidates, so two docs sharing ONLY 'the' produce no pair
    docs = ["the cat", "the dog", "the bird", "rare pair", "rare pair"]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(5), "text": docs}))
    shuffle_width(3)
    got = sparse_tf_cosine_pairs(ds, threshold=0.0,
                                 max_df_frac=0.4).to_pandas()
    assert set(zip(got["id_a"], got["id_b"])) == {(3, 4)}


@pytest.mark.parametrize("blocks", [1, 5])
def test_percent_rank_matches_pandas(ray_session, blocks, shuffle_width):
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 40, size=300)  # heavy ties
    df = pd.DataFrame({"id": np.arange(300), "v": vals})
    shuffle_width(8)
    got = (
        percent_rank(rd.from_pandas(df).repartition(blocks), "v")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    want = (df["v"].rank(method="min") - 1) / (len(df) - 1)
    assert np.array_equal(got["v"].to_numpy(), vals)
    assert np.array_equal(got["pct_rank"].to_numpy(), want.to_numpy())


def test_percent_rank_single_row(ray_session):
    ds = rd.from_pandas(pd.DataFrame({"id": [1], "v": [42]}))
    out = percent_rank(ds, "v").to_pandas()
    assert out["pct_rank"].tolist() == [0.0]


def test_diff_statements(ray_session):
    from versa_ray.model.linkset import diff_statements

    def _ls(rows):
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["origin", "rel", "target", "target_is_iri",
                           "attrs"]))

    shared = ("u:1", "r:name", "Alpha", False, "{}")
    only_a = ("u:2", "r:type", "u:T", True, "{}")
    only_b = ("u:3", "r:name", "Beta", False, '{"k": "v"}')
    # duplicates on both sides must not leak through set semantics
    a = _ls([shared, only_a, only_a, shared])
    b = _ls([shared, only_b]).repartition(2)
    out = diff_statements(a, b).to_pandas()
    got = sorted(zip(out["origin"], out["change"]))
    assert got == [("u:2", "removed"), ("u:3", "added")]
    assert out["target_is_iri"].dtype == bool


def test_random_walks_brute(ray_session, shuffle_width):
    import hashlib

    from versa_ray.ops.graph import random_walks

    rng = np.random.default_rng(11)
    # random directed graph incl. a sink (node 99 has no out-edges)
    src = rng.integers(0, 12, size=60)
    dst = rng.integers(0, 12, size=60)
    keep = src != dst
    edges = pd.DataFrame({"src": np.concatenate([src[keep], [3]]),
                          "dst": np.concatenate([dst[keep], [99]])})
    edges = edges.drop_duplicates(ignore_index=True)
    L = 5
    shuffle_width(4)
    got = (
        random_walks(rd.from_pandas(edges).repartition(4), walk_len=L)
        .to_pandas().sort_values(["walk_id", "step"])
    )

    adj = {}
    for s, d in edges.itertuples(index=False):
        adj.setdefault(int(s), []).append(int(d))
    for v in adj:
        adj[v].sort()
    want = []
    for seed in sorted(adj):
        node = seed
        want.append((seed, 0, seed))
        for k in range(L):
            nbrs = adj.get(node)
            if not nbrs:
                break
            draw = int(hashlib.md5(
                f"{seed}|{k}".encode()).hexdigest()[:15], 16)
            node = nbrs[draw % len(nbrs)]
            want.append((seed, k + 1, node))
    assert sorted(zip(got["walk_id"], got["step"], got["node"])) == sorted(
        want)
    # the sink must actually have truncated at least one walk
    assert len(want) < len(adj) * (L + 1)

