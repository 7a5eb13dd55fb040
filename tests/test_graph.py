"""Graph analytics: degrees vs pandas, PageRank vs a dense numpy
reference implementing the exact same iteration scheme."""

import numpy as np
import pandas as pd

from versa_ray.ops.graph import out_degrees, pagerank


def _graph_links():
    # small directed graph with a dangling node (d) and a literal link
    edges = [
        ("urn:g:a", "urn:g:b"), ("urn:g:a", "urn:g:c"),
        ("urn:g:b", "urn:g:c"), ("urn:g:c", "urn:g:a"),
        ("urn:g:e", "urn:g:d"),  # d is dangling
        ("urn:g:c", "urn:g:d"),
    ]
    links = [(s, "urn:g:rel", t) for s, t in edges]
    links.append(("urn:g:a", "urn:g:name", "literal label"))  # non-IRI
    return links, edges


def _links_ds(links):
    import pyarrow as pa
    import ray.data as rd

    tbl = pa.table(
        {
            "origin": [o for o, r, t in links],
            "rel": [r for o, r, t in links],
            "target": [t for o, r, t in links],
            "target_is_iri": [not t.startswith("literal") for o, r, t in links],
            "attrs": ["{}"] * len(links),
        }
    )
    return rd.from_arrow(tbl)


def _dense_pagerank(edges, damping=0.85, n_iters=20):
    nodes = sorted({s for s, t in edges} | {t for s, t in edges})
    ix = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    out_deg = np.zeros(n)
    for s, t in edges:
        out_deg[ix[s]] += 1
    r = np.full(n, 1.0 / n)
    # the distributed loop performs n_iters-1 updates after the seed
    for _ in range(n_iters - 1):
        inflow = np.zeros(n)
        for s, t in edges:
            inflow[ix[t]] += r[ix[s]] / out_deg[ix[s]]
        dangling = r[out_deg == 0].sum()
        r = (1.0 - damping) / n + damping * (inflow + dangling / n)
    return dict(zip(nodes, r))


def test_out_degrees(ray_session):
    links, edges = _graph_links()
    ds = _links_ds(links)
    got = {r["origin"]: r["out_degree"] for r in out_degrees(ds).take_all()}
    want = pd.Series([o for o, _, _ in links]).value_counts().to_dict()
    assert got == want


def test_pagerank_matches_dense(ray_session):
    links, edges = _graph_links()
    ds = _links_ds(links)
    got = {r["node"]: r["rank"] for r in pagerank(ds, n_iters=15).take_all()}
    want = _dense_pagerank(edges, n_iters=15)
    assert set(got) == set(want)
    for n in want:
        assert abs(got[n] - want[n]) < 1e-12, (n, got[n], want[n])
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_transitive_closure_ds(ray_session):
    """Dataset-scale closure matches the driver-frontier form on a
    chain + cycle + branch graph; seeds appear only when a cycle
    returns to them."""
    from versa_ray.model import linkset

    links = [
        ("urn:c:a", "urn:c:next", "urn:c:b"),
        ("urn:c:b", "urn:c:next", "urn:c:c"),
        ("urn:c:c", "urn:c:next", "urn:c:d"),
        ("urn:c:x", "urn:c:next", "urn:c:y"),   # disconnected
        ("urn:c:p", "urn:c:next", "urn:c:q"),   # cycle p->q->p
        ("urn:c:q", "urn:c:next", "urn:c:p"),
        ("urn:c:a", "urn:c:other", "urn:c:z"),  # different rel
    ]
    ds = linkset.from_links(links)

    got = {r["node"] for r in
           linkset.transitive_closure_ds(ds, {"urn:c:a"}, "urn:c:next").take_all()}
    want = linkset.transitive_closure(ds, "urn:c:a", "urn:c:next")
    assert got == want == {"urn:c:b", "urn:c:c", "urn:c:d"}

    got_cycle = {r["node"] for r in
                 linkset.transitive_closure_ds(ds, {"urn:c:p"}, "urn:c:next").take_all()}
    assert got_cycle == {"urn:c:p", "urn:c:q"}  # cycle returns to seed

    # multi-seed form
    got_multi = {r["node"] for r in linkset.transitive_closure_ds(
        ds, {"urn:c:a", "urn:c:x"}, "urn:c:next").take_all()}
    assert got_multi == {"urn:c:b", "urn:c:c", "urn:c:d", "urn:c:y"}


def test_wcc_components_and_rel_filter(ray_session):
    from versa_ray.ops.graph import weakly_connected_components

    links = [
        ("urn:g:b", "urn:g:rel", "urn:g:a"),
        ("urn:g:c", "urn:g:rel", "urn:g:b"),
        ("urn:g:e", "urn:g:rel", "urn:g:d"),
        ("urn:g:x", "urn:g:other", "urn:g:y"),
        ("urn:g:a", "urn:g:name", "literal label"),
    ]
    ds = _links_ds(links)
    out = weakly_connected_components(ds).to_pandas()
    comp = dict(zip(out.node, out.component))
    assert comp == {
        "urn:g:a": "urn:g:a", "urn:g:b": "urn:g:a", "urn:g:c": "urn:g:a",
        "urn:g:d": "urn:g:d", "urn:g:e": "urn:g:d",
        "urn:g:x": "urn:g:x", "urn:g:y": "urn:g:x",
    }
    # rel filter drops the other-rel edge; literal targets never edge
    out2 = weakly_connected_components(ds, rels=["urn:g:rel"]).to_pandas()
    assert set(out2.node) == {"urn:g:a", "urn:g:b", "urn:g:c",
                              "urn:g:d", "urn:g:e"}


def test_wcc_union_find_equivalence(ray_session):
    """Random graph vs a driver-side union-find ground truth."""
    import numpy as np

    from versa_ray.ops.graph import weakly_connected_components

    rng = np.random.RandomState(7)
    n = 200
    edges = [(f"urn:n:{a:03d}", f"urn:n:{b:03d}")
             for a, b in rng.randint(0, n, size=(300, 2)) if a != b]
    links = [(s, "urn:g:rel", t) for s, t in edges]
    ds = _links_ds(links)
    out = weakly_connected_components(ds).to_pandas()

    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in edges:
        parent[find(s)] = find(t)
    want = {}
    for s, t in edges:
        for v in (s, t):
            want.setdefault(find(v), []).append(v)
    truth = {}
    for members in want.values():
        m = min(set(members))
        for v in set(members):
            truth[v] = m
    got = dict(zip(out.node, out.component))
    assert got == truth


def test_wcc_raises_on_iteration_budget(ray_session):
    import pytest

    from versa_ray.ops.graph import weakly_connected_components

    # a chain deeper than the iteration budget
    links = [(f"urn:c:{i:02d}", "urn:g:rel", f"urn:c:{i + 1:02d}")
             for i in range(12)]
    with pytest.raises(RuntimeError, match="fixpoint"):
        weakly_connected_components(
            _links_ds(links), max_iters=4
        ).materialize()


def test_sameas_canonicalize(ray_session):
    import json

    import pyarrow as pa
    import ray.data as rd

    from versa_ray.ops.graph import OWL_SAMEAS, sameas_canonicalize

    SA = OWL_SAMEAS
    links = [
        # 3-hop alias chain: z -> y -> x -> canonical urn:e:a
        ("urn:x", SA, "urn:e:a"), ("urn:y", SA, "urn:x"),
        ("urn:z", SA, "urn:y"),
        # statements on aliases and on the canonical node
        ("urn:z", "urn:rel:name", "literal-zed"),
        ("urn:e:a", "urn:rel:name", "literal-ay"),
        # statement pointing AT an alias
        ("urn:ref", "urn:rel:mentions", "urn:y"),
        # untouched island
        ("urn:other", "urn:rel:name", "literal-other"),
    ]
    tbl = pa.table({
        "origin": [o for o, r, t in links],
        "rel": [r for o, r, t in links],
        "target": [t for o, r, t in links],
        "target_is_iri": [not t.startswith("literal") for o, r, t in links],
        # one attr whose VALUE names an alias — must be rewritten too
        # (on the literal-zed statement, NOT on a dropped sameAs link)
        "attrs": ["{}"] * 3 + [json.dumps({"seen-at": "urn:x"})]
        + ["{}"] * (len(links) - 4),
    })
    out = sameas_canonicalize(
        rd.from_arrow(tbl).repartition(3), num_buckets=5).to_pandas()
    # NB out["attrs"], not out.attrs — the latter is DataFrame metadata
    got = set(zip(out.origin, out.rel, out.target, out["attrs"]))
    # min IRI of {urn:e:a, urn:x, urn:y, urn:z} is urn:e:a
    assert got == {
        ("urn:e:a", "urn:rel:name", "literal-zed",
         json.dumps({"seen-at": "urn:e:a"}, separators=(",", ":"))),
        ("urn:e:a", "urn:rel:name", "literal-ay", "{}"),
        ("urn:ref", "urn:rel:mentions", "urn:e:a", "{}"),
        ("urn:other", "urn:rel:name", "literal-other", "{}"),
    }
    assert not out.duplicated(["origin", "rel", "target", "attrs"]).any()


def test_cooccurrence_edges(ray_session):
    import itertools
    import math
    from collections import Counter

    import pytest

    import pyarrow as pa
    import ray.data as rd

    from versa_ray.ops.graph import cooccurrence_edges

    # mentions with a duplicate (doc 1 mentions E twice) — must count once
    rows = [
        (1, "E"), (1, "F"), (1, "E"), (1, "G"),
        (2, "E"), (2, "F"),
        (3, "F"), (3, "G"),
        (4, "H"),              # lone mention: no pairs
    ]
    N = 10
    tbl = pa.table({
        "doc_id": [r[0] for r in rows],
        "entity": [r[1] for r in rows],
    })
    out = cooccurrence_edges(
        rd.from_arrow(tbl).repartition(3), total_docs=N, num_buckets=5,
    ).to_pandas()

    docs = {}
    for d, e in rows:
        docs.setdefault(d, set()).add(e)
    want = Counter()
    for ents in docs.values():
        for a, b in itertools.combinations(sorted(ents), 2):
            want[(a, b)] += 1
    df_e = Counter()
    for ents in docs.values():
        for e in ents:
            df_e[e] += 1
    got = {(r.entity_a, r.entity_b): (r.n_docs, r.pmi)
           for r in out.itertuples()}
    assert set(got) == set(want)
    for (a, b), (n, pmi) in got.items():
        assert n == want[(a, b)]
        assert pmi == pytest.approx(
            math.log(want[(a, b)] * N / (df_e[a] * df_e[b])))



def test_bfs_depths(ray_session):
    import pytest

    from versa_ray.ops.graph import bfs_depths

    # diamond + chain + cycle + unreachable island; two seeds where
    # one node is reachable at different depths (min must win)
    edges = [
        ("urn:s", "urn:a"), ("urn:s", "urn:b"),
        ("urn:a", "urn:c"), ("urn:b", "urn:c"),      # diamond -> c depth 2
        ("urn:c", "urn:d"), ("urn:d", "urn:s"),      # cycle back to seed
        ("urn:t", "urn:d"),                          # second seed: d at 1
        ("urn:i1", "urn:i2"),                        # island, unreachable
    ]
    links = [(a, "urn:g:rel", b) for a, b in edges]
    out = bfs_depths(_links_ds(links), seeds=["urn:s", "urn:t"],
                     num_buckets=5).to_pandas()
    got = dict(zip(out.node, out.depth))
    assert got == {"urn:s": 0, "urn:t": 0, "urn:a": 1, "urn:b": 1,
                   "urn:d": 1, "urn:c": 2}

    # max_depth prunes
    out2 = bfs_depths(_links_ds(links), seeds=["urn:s"], max_depth=1,
                      num_buckets=5).to_pandas()
    assert dict(zip(out2.node, out2.depth)) == {
        "urn:s": 0, "urn:a": 1, "urn:b": 1}

    # non-convergence raises rather than silently truncating
    chain = [(f"urn:c:{i:02d}", "urn:g:rel", f"urn:c:{i + 1:02d}")
             for i in range(12)]
    with pytest.raises(RuntimeError, match="converge"):
        bfs_depths(_links_ds(chain), seeds=["urn:c:00"],
                   max_iters=4, num_buckets=5).materialize()


def test_negative_samples(ray_session):
    import hashlib

    from versa_ray.ops.graph import negative_samples

    links = [(f"urn:s:{i}", "urn:rel:x", f"urn:s:{(i + 1) % 8}")
             for i in range(8)]
    links.append(("urn:s:0", "urn:rel:name", "literal-l"))  # non-IRI
    ds = _links_ds(links)
    out = negative_samples(ds, n_neg=3, num_buckets=5).to_pandas()

    ents = sorted({f"urn:s:{i}" for i in range(8)})
    n = len(ents)
    # brute-force replay of the contract
    want = []
    for o, r, t in links:
        if t.startswith("literal"):
            continue
        for i in range(1, 4):
            raw = int(hashlib.md5(f"{o}|{r}|{t}|{i}".encode())
                      .hexdigest()[:15], 16)
            e = ents[raw % n]
            if e == t:
                e = ents[(raw + 1) % n]
            want.append((o, r, t, i, e))
    got = sorted(zip(out.origin, out.rel, out.target,
                     out.neg_i.astype(int), out.neg_entity))
    assert got == sorted(want)
    assert (out.neg_entity != out.target).all()


def test_clustering_coefficients(ray_session):
    import itertools

    import pyarrow as pa
    import ray.data as rd

    from versa_ray.ops.graph import clustering_coefficients

    rng = np.random.RandomState(19)
    n = 40
    edges = sorted({(int(a), int(b)) if a < b else (int(b), int(a))
                    for a, b in rng.randint(0, n, size=(160, 2))
                    if a != b})
    tbl = pa.table({"u": [e[0] for e in edges],
                    "v": [e[1] for e in edges]})
    out = clustering_coefficients(
        rd.from_arrow(tbl).repartition(5), num_buckets=6).to_pandas()

    eset = set(edges)
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    got = {int(r.node): (int(r.degree), int(r.triangles), r.cc)
           for r in out.itertuples()}
    assert set(got) == set(adj)
    for x, nbrs in adj.items():
        t = sum(1 for a, b in itertools.combinations(sorted(nbrs), 2)
                if (a, b) in eset)
        d = len(nbrs)
        cc = 2.0 * t / (d * (d - 1)) if d >= 2 else 0.0
        assert got[x][0] == d and got[x][1] == t, x
        assert abs(got[x][2] - cc) < 1e-12, x


def test_personalized_pagerank(ray_session):
    import pytest

    from versa_ray.ops.graph import pagerank

    links, edges = _graph_links()
    ds = _links_ds(links)
    seeds = ["urn:g:a"]
    got = {r["node"]: r["rank"]
           for r in pagerank(ds, n_iters=15,
                             personalize=seeds).take_all()}

    # dense reference with the same recurrence, personalized
    nodes = sorted({s for s, t in edges} | {t for s, t in edges})
    ix = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    sv = np.zeros(n)
    for sd in seeds:
        sv[ix[sd]] = 1.0 / len(seeds)
    out_deg = np.zeros(n)
    for s, t in edges:
        out_deg[ix[s]] += 1
    r = sv.copy()
    for _ in range(14):
        inflow = np.zeros(n)
        for s, t in edges:
            inflow[ix[t]] += r[ix[s]] / out_deg[ix[s]]
        dangling = r[out_deg == 0].sum()
        r = 0.15 * sv + 0.85 * (inflow + dangling * sv)
    want = dict(zip(nodes, r))
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 1e-12, k
    assert abs(sum(got.values()) - 1.0) < 1e-9

    with pytest.raises(ValueError, match="not nodes"):
        pagerank(ds, n_iters=3,
                 personalize=["urn:g:a", "urn:not-there"]).take_all()


def test_k_core(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from versa_ray.ops.graph import k_core

    rng = np.random.RandomState(23)
    n = 60
    edges = sorted({(int(a), int(b)) if a < b else (int(b), int(a))
                    for a, b in rng.randint(0, n, size=(220, 2))
                    if a != b})
    tbl = pa.table({"u": [e[0] for e in edges],
                    "v": [e[1] for e in edges]})
    ds = rd.from_arrow(tbl).repartition(5)

    def ref_core(edges, k):
        es = set(edges)
        while True:
            deg = {}
            for a, b in es:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            bad = {x for x, d in deg.items() if d < k}
            if not bad:
                return set(deg)
            es = {(a, b) for a, b in es if a not in bad and b not in bad}

    for k in (2, 3, 5):
        got = set(k_core(ds, k=k, num_buckets=4).to_pandas()["node"])
        assert got == ref_core(edges, k), k

    # k high enough to empty the graph: result is empty, not an error
    assert k_core(ds, k=50, num_buckets=4).count() == 0

    # a triangle fan that needs several peel rounds but hits the budget
    chain = pa.table({"u": list(range(0, 9)), "v": list(range(1, 10))})
    with pytest.raises(RuntimeError, match="did not converge"):
        k_core(rd.from_arrow(chain), k=2, max_rounds=1).count()


def test_neighborhood_jaccard(ray_session):
    import itertools

    import pyarrow as pa
    import ray.data as rd

    from versa_ray.ops.graph import neighborhood_jaccard

    rng = np.random.RandomState(31)
    n = 50
    edges = sorted({(int(a), int(b)) if a < b else (int(b), int(a))
                    for a, b in rng.randint(0, n, size=(180, 2))
                    if a != b})
    tbl = pa.table({"u": [e[0] for e in edges],
                    "v": [e[1] for e in edges]})
    ds = rd.from_arrow(tbl).repartition(5)

    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for min_sim in (0.0 + 1e-12, 0.3, 0.6):
        out = neighborhood_jaccard(ds, min_sim=min_sim,
                                   num_buckets=4).to_pandas()
        got = {(int(r.u), int(r.v)): (int(r.common), r.jaccard)
               for r in out.itertuples()}
        want = {}
        for a, b in itertools.combinations(sorted(adj), 2):
            c = len(adj[a] & adj[b])
            if not c:
                continue
            j = c / len(adj[a] | adj[b])
            if j >= min_sim:
                want[(a, b)] = (c, j)
        assert set(got) == set(want), min_sim
        for k in want:
            assert got[k][0] == want[k][0]
            assert abs(got[k][1] - want[k][1]) < 1e-12

    # max_degree skips hub centers (undercount documented)
    full = neighborhood_jaccard(ds, min_sim=1e-12).to_pandas()
    capped = neighborhood_jaccard(ds, min_sim=1e-12,
                                  max_degree=4).to_pandas()
    assert len(capped) <= len(full)


def test_degree_assortativity(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versa_ray.ops.graph import degree_assortativity

    rng = np.random.RandomState(37)
    n = 45
    edges = sorted({(int(a), int(b)) if a < b else (int(b), int(a))
                    for a, b in rng.randint(0, n, size=(150, 2))
                    if a != b})
    tbl = pa.table({"u": [e[0] for e in edges],
                    "v": [e[1] for e in edges]})
    got = degree_assortativity(
        rd.from_arrow(tbl).repartition(4)).to_pandas()
    assert list(got.columns) == ["assortativity"] and len(got) == 1

    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    xs = np.array([deg[a] for a, b in edges] + [deg[b] for a, b in edges],
                  dtype=float)
    ys = np.array([deg[b] for a, b in edges] + [deg[a] for a, b in edges],
                  dtype=float)
    want = np.corrcoef(xs, ys)[0, 1]
    assert abs(got["assortativity"].iloc[0] - want) < 1e-12

    # regular graph (a cycle): degenerate -> NaN
    cyc = pa.table({"u": list(range(9)) ,
                    "v": [i + 1 for i in range(8)] + [0]})
    # canonicalize u<v
    cu = [min(a, b) for a, b in zip(cyc["u"].to_pylist(), cyc["v"].to_pylist())]
    cv = [max(a, b) for a, b in zip(cyc["u"].to_pylist(), cyc["v"].to_pylist())]
    r = degree_assortativity(
        rd.from_arrow(pa.table({"u": cu, "v": cv}))).to_pandas()
    assert np.isnan(r["assortativity"].iloc[0])


def test_label_propagation(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versa_ray.ops.graph import label_propagation

    rng = np.random.RandomState(41)
    # two planted communities plus random noise edges
    edges = set()
    for base in (0, 30):
        for _ in range(80):
            a, b = rng.randint(base, base + 30, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
    for _ in range(6):
        a = int(rng.randint(0, 30)); b = int(rng.randint(30, 60))
        edges.add((a, b))
    edges = sorted(edges)
    tbl = pa.table({"u": [e[0] for e in edges],
                    "v": [e[1] for e in edges]})
    ds = rd.from_arrow(tbl).repartition(5)

    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def ref_lpa(rounds):
        lab = {x: x for x in adj}
        for _ in range(rounds):
            new = {}
            for x, nbrs in adj.items():
                counts = {}
                for nb in nbrs:
                    counts[lab[nb]] = counts.get(lab[nb], 0) + 1
                best = sorted(counts.items(),
                              key=lambda kv: (-kv[1], kv[0]))[0][0]
                new[x] = best
            lab = new
        return lab

    for rounds in (1, 3, 4):
        got = {int(r["node"]): int(r["label"])
               for r in label_propagation(
                   ds, n_rounds=rounds, num_buckets=4).take_all()}
        assert got == ref_lpa(rounds), rounds


def test_hits_scores(ray_session):
    """Integer HITS vs a dense numpy replay of the same rounds,
    including nodes with no in- or out-edges."""
    import ray.data as rd

    from versa_ray.ops.graph import hits_scores

    rng = np.random.default_rng(11)
    n = 40
    src = rng.integers(0, n, 260)
    dst = rng.integers(0, n, 260)
    keep = src != dst
    edges = sorted({(int(a), int(b)) for a, b in
                    zip(src[keep], dst[keep])})
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["u", "v"]))

    for n_rounds in (1, 2, 3):
        out = (hits_scores(ds, n_rounds=n_rounds)
               .to_pandas().sort_values("node").reset_index(drop=True))

        nodes = sorted({a for a, b in edges} | {b for a, b in edges})
        idx = {x: i for i, x in enumerate(nodes)}
        A = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
        for a, b in edges:
            A[idx[a], idx[b]] = 1
        h = np.ones(len(nodes), dtype=np.int64)
        for _ in range(n_rounds):
            a_vec = A.T @ h
            h = A @ a_vec
        assert list(out["node"]) == nodes
        assert list(out["hub"]) == list(h)
        assert list(out["auth"]) == list(a_vec)

    # partition invariance
    out8 = (hits_scores(ds.repartition(8), n_rounds=2)
            .to_pandas().sort_values("node").reset_index(drop=True))
    out1 = (hits_scores(ds.repartition(1), n_rounds=2)
            .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(out8, out1)


def test_schema_profile(ray_session):
    """Schema induction: multi-typed entities contribute one count
    per type combination; untyped entities and literal targets get
    the sentinel types."""
    import ray.data as rd

    from versa_ray.core import VTYPE_REL
    from versa_ray.ops.graph import schema_profile

    T = str(VTYPE_REL)
    links = [
        # a is BOTH Person and Agent; b is Org; c untyped
        ("urn:x:a", T, "urn:x:Person", True),
        ("urn:x:a", T, "urn:x:Agent", True),
        ("urn:x:b", T, "urn:x:Org", True),
        ("urn:x:a", "urn:x:works_for", "urn:x:b", True),
        ("urn:x:a", "urn:x:knows", "urn:x:c", True),   # untyped target
        ("urn:x:c", "urn:x:knows", "urn:x:a", True),   # untyped origin
        ("urn:x:a", "urn:x:name", "Alice", False),     # literal
        ("urn:x:b", "urn:x:name", "Beta Corp", False),
    ]
    ds = rd.from_pandas(pd.DataFrame(
        links, columns=["origin", "rel", "target", "target_is_iri"]
    ).assign(attrs="{}"))

    out = (schema_profile(ds, num_buckets=8).to_pandas()
           .sort_values(["rel", "origin_type", "target_type"])
           .reset_index(drop=True))
    got = {tuple(r[:3]): r[3] for r in out.itertuples(index=False)}
    exp = {
        # works_for: a has two types -> two combination rows
        ("urn:x:works_for", "urn:x:Person", "urn:x:Org"): 1,
        ("urn:x:works_for", "urn:x:Agent", "urn:x:Org"): 1,
        ("urn:x:knows", "urn:x:Person", "urn:versa:Untyped"): 1,
        ("urn:x:knows", "urn:x:Agent", "urn:versa:Untyped"): 1,
        ("urn:x:knows", "urn:versa:Untyped", "urn:x:Person"): 1,
        ("urn:x:knows", "urn:versa:Untyped", "urn:x:Agent"): 1,
        ("urn:x:name", "urn:x:Person", "urn:versa:Literal"): 1,
        ("urn:x:name", "urn:x:Agent", "urn:versa:Literal"): 1,
        ("urn:x:name", "urn:x:Org", "urn:versa:Literal"): 1,
    }
    assert got == exp

    # partition invariance
    out8 = (schema_profile(ds.repartition(8), num_buckets=4).to_pandas()
            .sort_values(["rel", "origin_type", "target_type"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out8)


def test_link_prediction(ray_session):
    import itertools
    import random

    import ray.data as rd

    from versa_ray.ops.graph import link_prediction

    rng = random.Random(11)
    nodes = list(range(24))
    edges = sorted({tuple(sorted(rng.sample(nodes, 2))) for _ in range(60)})
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["u", "v"]))

    # brute-force reference: CN + integer RA over the full pair space
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    eset = set(edges)
    want = {}
    for a, b in itertools.combinations(nodes, 2):
        if (a, b) in eset:
            continue
        common = adj[a] & adj[b]
        if not common:
            continue
        want[(a, b)] = (len(common),
                        sum(10**9 // len(adj[z]) for z in common))

    out = link_prediction(ds, min_cn=1, num_buckets=5).to_pandas()
    got = {(int(r.u), int(r.v)): (int(r.cn), int(r.ra_e9))
           for r in out.itertuples()}
    assert got == want

    # min_cn filters; scores of survivors unchanged
    out2 = link_prediction(ds, min_cn=3, num_buckets=5).to_pandas()
    got2 = {(int(r.u), int(r.v)): (int(r.cn), int(r.ra_e9))
            for r in out2.itertuples()}
    assert got2 == {k: v for k, v in want.items() if v[0] >= 3}

    # max_degree drops wedges centered at hubs (documented undercount):
    # every surviving pair's scores count only sub-cap common neighbors
    cap = 5
    out3 = link_prediction(ds, min_cn=1, max_degree=cap,
                           num_buckets=5).to_pandas()
    got3 = {(int(r.u), int(r.v)): (int(r.cn), int(r.ra_e9))
            for r in out3.itertuples()}
    want3 = {}
    for a, b in itertools.combinations(nodes, 2):
        if (a, b) in eset:
            continue
        common = [z for z in adj[a] & adj[b] if len(adj[z]) <= cap]
        if common:
            want3[(a, b)] = (len(common),
                             sum(10**9 // len(adj[z]) for z in common))
    assert got3 == want3


def test_shortest_paths(ray_session):
    import pytest
    import ray.data as rd

    from versa_ray.ops.graph import shortest_paths

    # the heavy direct edge s->c (w=10) must be IMPROVED two rounds
    # later by the lighter 3-hop path s->a->b->c (1+1+1) — true
    # relaxation, not first-visit-wins; plus a cycle, a second seed
    # and an unreachable island
    edges = [
        ("urn:s", "urn:c", 10),
        ("urn:s", "urn:a", 1), ("urn:a", "urn:b", 1), ("urn:b", "urn:c", 1),
        ("urn:c", "urn:s", 2),                      # cycle back (no effect)
        ("urn:t", "urn:b", 4),                      # seed 2: b stays at 2
        ("urn:i1", "urn:i2", 1),                    # unreachable island
    ]
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst", "w"]))
    out = shortest_paths(ds, seeds=["urn:s", "urn:t"],
                         num_buckets=5).to_pandas()
    got = dict(zip(out.node, out.dist.astype(int)))
    assert got == {"urn:s": 0, "urn:t": 0, "urn:a": 1, "urn:b": 2,
                   "urn:c": 3}

    # zero-weight edges are legal (and must not loop forever)
    z = rd.from_pandas(pd.DataFrame(
        [("urn:x", "urn:y", 0), ("urn:y", "urn:x", 0)],
        columns=["src", "dst", "w"]))
    outz = shortest_paths(z, seeds=["urn:x"], num_buckets=3).to_pandas()
    assert dict(zip(outz.node, outz.dist.astype(int))) == {
        "urn:x": 0, "urn:y": 0}

    # hitting the round budget raises rather than returning stale dists
    chain = [(f"urn:c:{i:02d}", f"urn:c:{i + 1:02d}", 1) for i in range(12)]
    cds = rd.from_pandas(pd.DataFrame(chain, columns=["src", "dst", "w"]))
    with pytest.raises(RuntimeError, match="converge"):
        shortest_paths(cds, seeds=["urn:c:00"], max_rounds=4,
                       num_buckets=3).materialize()


def test_functional_conflicts(ray_session):
    from versa_ray.ops.validate import functional_conflicts

    links = [
        # o1 asserts two DIFFERENT nations -> conflict (n_values=2)
        ("urn:o1", "urn:r:inNation", "urn:n:1"),
        ("urn:o1", "urn:r:inNation", "urn:n:2"),
        # o2 re-asserts the SAME nation twice -> dedups, NOT a conflict
        ("urn:o2", "urn:r:inNation", "urn:n:1"),
        ("urn:o2", "urn:r:inNation", "urn:n:1"),
        # o3 conflicts on a literal-valued functional rel (3 values)
        ("urn:o3", "urn:r:isbn", "literal-a"),
        ("urn:o3", "urn:r:isbn", "literal-b"),
        ("urn:o3", "urn:r:isbn", "literal-c"),
        # o1's multi-valued NON-functional rel is ignored entirely
        ("urn:o1", "urn:r:tag", "literal-x"),
        ("urn:o1", "urn:r:tag", "literal-y"),
    ]
    out = functional_conflicts(
        _links_ds(links), ["urn:r:inNation", "urn:r:isbn"],
        num_buckets=5).to_pandas()
    got = {(r.origin, r.rel): int(r.n_values) for r in out.itertuples()}
    assert got == {("urn:o1", "urn:r:inNation"): 2,
                   ("urn:o3", "urn:r:isbn"): 3}

    # the SAME target string once as IRI and once as literal = two
    # DISTINCT values (target_is_iri participates in identity)
    import pyarrow as pa
    import ray.data as rd

    tbl2 = pa.table({
        "origin": ["urn:o4", "urn:o4"],
        "rel": ["urn:r:ref", "urn:r:ref"],
        "target": ["urn:n:1", "urn:n:1"],
        "target_is_iri": [True, False],
        "attrs": ["{}", "{}"],
    })
    out2 = functional_conflicts(
        rd.from_arrow(tbl2), ["urn:r:ref"], num_buckets=3).to_pandas()
    assert len(out2) == 1 and int(out2.n_values.iloc[0]) == 2


def test_entail_domain_range(ray_session):
    from versa_ray.ops.graph import entail_domain_range

    links = [
        ("urn:a", "urn:r:type", "urn:C"),            # direct type
        ("urn:a", "urn:r:in", "urn:b"),              # dom+range rel
        ("urn:b", "urn:r:in", "urn:c"),
        ("urn:a", "urn:r:name", "literal-x"),        # unruled rel
        ("urn:d", "urn:r:tag", "literal-y"),         # range rel, literal
        ("urn:d", "urn:r:tag", "urn:e"),             # range-only rel, IRI
        ("urn:f", "urn:r:src", "urn:g"),             # domain-only rel
    ]
    rules = {
        "urn:r:in": ("urn:Place", "urn:Container"),
        "urn:r:tag": (None, "urn:Tag"),              # no domain
        "urn:r:src": ("urn:Sourced", None),          # no range
    }
    out = entail_domain_range(
        _links_ds(links), rules, type_rel="urn:r:type",
        num_buckets=5).to_pandas()
    got = set(zip(out.node, out.cls))
    assert got == {
        ("urn:a", "urn:C"),                          # direct
        ("urn:a", "urn:Place"), ("urn:b", "urn:Place"),   # rdfs2 (domain)
        ("urn:b", "urn:Container"), ("urn:c", "urn:Container"),  # rdfs3
        ("urn:e", "urn:Tag"),                        # IRI target only
        ("urn:f", "urn:Sourced"),
    }
    assert len(out) == len(got)  # distinct


def test_latest_statements(ray_session):
    import pandas as pd
    import ray.data as rd

    from versa_ray.model.linkset import latest_statements

    rows = pd.DataFrame({
        "origin": ["urn:a", "urn:a", "urn:a", "urn:b", "urn:b", "urn:c"],
        "rel":    ["urn:r", "urn:r", "urn:s", "urn:r", "urn:r", "urn:r"],
        "target": ["v1", "v2", "w1", "x2", "x1", "y1"],
        "target_is_iri": [False] * 6,
        "attrs": ["{}"] * 6,
        # urn:b has a TS TIE -> smallest target (x1) must win
        "ts": [10, 20, 5, 7, 7, 1],
    })
    out = latest_statements(
        rd.from_pandas(rows, override_num_blocks=3), num_buckets=5
    ).to_pandas()
    got = {(r.origin, r.rel): (r.target, int(r.ts))
           for r in out.itertuples()}
    assert got == {
        ("urn:a", "urn:r"): ("v2", 20),   # latest wins
        ("urn:a", "urn:s"): ("w1", 5),    # singleton passes through
        ("urn:b", "urn:r"): ("x1", 7),    # tie -> smallest target
        ("urn:c", "urn:r"): ("y1", 1),
    }
    assert "rank" not in out.columns


def test_multi_source_bfs_and_closeness(ray_session):
    import collections
    import random

    import pytest
    import ray.data as rd

    from versa_ray.ops.graph import closeness_from_seeds, multi_source_bfs

    rng = random.Random(5)
    nodes = list(range(30))
    edges = sorted({tuple(sorted(rng.sample(nodes, 2))) for _ in range(45)})
    bidir = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
    ds = rd.from_pandas(pd.DataFrame(bidir, columns=["src", "dst"]))
    seeds = [0, 7, 29]

    # reference: per-seed python BFS
    adj = collections.defaultdict(list)
    for a, b in bidir:
        adj[a].append(b)
    want = {}
    for s in seeds:
        dist = {s: 0}
        q = [s]
        while q:
            nxt = []
            for u in q:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            q = nxt
        for n, d in dist.items():
            want[(n, s)] = d

    out = multi_source_bfs(ds, seeds, num_buckets=5).to_pandas()
    got = {(int(r.node), int(r.seed)): int(r.depth)
           for r in out.itertuples()}
    assert got == want

    # closeness rollup = exact integer aggregation of the same depths
    cl = closeness_from_seeds(ds, seeds, num_buckets=5).to_pandas()
    agg = collections.defaultdict(lambda: [0, 0])
    for (n, _), d in want.items():
        agg[n][0] += 1
        agg[n][1] += d
    got_cl = {int(r.node): (int(r.n_reached), int(r.sum_depth))
              for r in cl.itertuples()}
    assert got_cl == {n: tuple(v) for n, v in agg.items()}

    # round-budget exhaustion raises
    chain = [(i, i + 1) for i in range(12)]
    cds = rd.from_pandas(pd.DataFrame(chain, columns=["src", "dst"]))
    with pytest.raises(RuntimeError, match="converge"):
        multi_source_bfs(cds, [0], max_iters=4, num_buckets=3).materialize()


def test_strongly_connected_components(ray_session):
    import random

    import ray.data as rd

    from versa_ray.ops.graph import strongly_connected_components

    def brute_scc(edges, nodes):
        reach = {n: {n} for n in nodes}
        changed = True
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
        while changed:
            changed = False
            for n in nodes:
                new = set()
                for m in reach[n]:
                    new |= adj.get(m, set())
                if not new <= reach[n]:
                    reach[n] |= new
                    changed = True
        return {n: min(m for m in nodes
                       if m in reach[n] and n in reach[m])
                for n in nodes}

    def run(edges):
        nodes = sorted({a for a, b in edges} | {b for a, b in edges})
        ds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
        out = strongly_connected_components(ds, num_buckets=5).to_pandas()
        got = dict(zip(out.node.astype(int), out.comp.astype(int)))
        assert got == brute_scc(edges, nodes)
        assert len(out) == len(nodes)  # exactly one row per node

    # two cycles bridged by DAG edges, a tail into a cycle (the tail
    # is a singleton that becomes ISOLATED after its cycle peels), a
    # self-loop, and a pure DAG diamond
    run([(1, 2), (2, 3), (3, 1),          # cycle {1,2,3}
         (3, 10), (10, 11), (11, 12), (12, 10),  # DAG edge into cycle {10..12}
         (20, 1),                          # tail -> isolated singleton later
         (30, 30),                         # self-loop
         (40, 41), (40, 42), (41, 43), (42, 43)])  # diamond, all singletons

    # one DENSE random graph vs brute force (dense -> a giant SCC and
    # a shallow condensation, so the peel stays at a few outer rounds;
    # sparse random digraphs have O(n)-deep singleton chains, which
    # the op handles but each chain level costs a full FB round — the
    # docstring documents rounds as graph-shaped)
    rng = random.Random(3)
    n = 18
    edges = sorted({(rng.randrange(n), rng.randrange(n))
                    for _ in range(60)})
    edges = [(a, b) for a, b in edges if a != b] + [(0, 0)]
    run(edges)


def test_bipartite_check_brute_force(ray_session):
    """bipartite_check equals a BFS-parity reference on a mix of even
    cycle, odd cycle, random component, single edge, plus dup/reversed
    edges and a self loop (dropped)."""
    import random
    from collections import deque

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.graph import bipartite_check

    rng = random.Random(5)
    edges = []
    edges += [(i, (i + 1) % 6) for i in range(6)]                # even cycle
    edges += [(10 + i, 10 + (i + 1) % 5) for i in range(5)]      # odd cycle
    C = list(range(20, 36))
    for _ in range(30):
        a, b = rng.sample(C, 2)
        edges.append((a, b))
    edges.append((50, 51))                                       # single edge
    edges += [(1, 0), (0, 1), (7, 7)]              # dup + reversed + self loop
    df = pd.DataFrame(edges, columns=["src", "dst"])

    adj = {}
    for a, b in edges:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen, want = set(), {}
    for n in sorted(adj):
        if n in seen:
            continue
        depth = {n: 0}
        q = deque([n])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    q.append(v)
        comp_edges = {(min(u, v), max(u, v)) for u in depth for v in adj[u]}
        odd = sum(1 for u, v in comp_edges if depth[u] % 2 == depth[v] % 2)
        want[n] = (len(depth), len(comp_edges), odd, odd == 0)
        seen.update(depth)

    out = bipartite_check(
        rd.from_pandas(df).repartition(4), num_buckets=6).to_pandas()
    got = {int(r.component): (int(r.n_nodes), int(r.n_edges),
                              int(r.odd_edges), bool(r.is_bipartite))
           for r in out.itertuples()}
    assert got == want
    assert not got[10][3] and got[10][2] == 1   # odd cycle: one odd edge
    assert got[0][3] and got[50][3]             # even cycle + single edge


def test_k_truss_brute_force(ray_session):
    """k_truss equals an iterative brute-force peel at k=3/4/5 on a
    random graph with a planted 5-clique, and raises below k=3."""
    import itertools
    import random

    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from versa_ray.ops.graph import k_truss

    rng = random.Random(3)
    edges = set()
    for _ in range(70):
        a, b = rng.sample(range(20), 2)
        edges.add((min(a, b), max(a, b)))
    for a, b in itertools.combinations([30, 31, 32, 33, 34], 2):
        edges.add((a, b))                 # clique: survives k=5
    df = pd.DataFrame(sorted(edges), columns=["u", "v"])

    def brute(es, k):
        es = set(es)
        while True:
            adj = {}
            for a, b in es:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            nxt = {(a, b) for a, b in es if len(adj[a] & adj[b]) >= k - 2}
            if nxt == es:
                return es
            es = nxt

    for k in (3, 4, 5):
        want = brute(set(zip(df.u, df.v)), k)
        got = k_truss(rd.from_pandas(df).repartition(4), k=k,
                      num_buckets=5).to_pandas()
        assert set(zip(got.u.astype(int), got.v.astype(int))) == want
    assert brute(set(zip(df.u, df.v)), 5) >= {
        (a, b) for a, b in itertools.combinations([30, 31, 32, 33, 34], 2)}
    with pytest.raises(ValueError):
        k_truss(rd.from_pandas(df), k=2)


def test_maximal_independent_set_brute_force(ray_session):
    """maximal_independent_set equals a sequential deterministic-Luby
    reference (md5 priorities, ties by id), and the result is both
    independent and maximal."""
    import hashlib
    import random

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.graph import maximal_independent_set

    def pri(n):
        return int.from_bytes(
            hashlib.md5(str(n).encode()).digest()[:8], "little")

    rng = random.Random(8)
    edges = set()
    for _ in range(60):
        a, b = rng.sample(range(25), 2)
        edges.add((min(a, b), max(a, b)))
    df = pd.DataFrame(sorted(edges), columns=["u", "v"])

    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    live, want = set(adj), set()
    while live:
        win = {x for x in live
               if all((pri(w), w) > (pri(x), x)
                      for w in adj[x] if w in live)}
        want |= win
        rm = set(win)
        for x in win:
            rm |= adj[x] & live
        live -= rm

    got = maximal_independent_set(
        rd.from_pandas(df).repartition(4), num_buckets=5).to_pandas()
    gset = set(got.node.astype(int))
    assert gset == want
    assert all(not (adj[a] & gset) for a in gset)          # independent
    assert all(adj[x] & gset for x in set(adj) - gset)     # maximal


def test_maximal_independent_set_empty_graph(ray_session):
    """An empty edge set yields a typed, empty MIS (no IndexError)."""
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.graph import maximal_independent_set

    empty = pd.DataFrame({"u": pd.Series([], dtype="int64"),
                          "v": pd.Series([], dtype="int64")})
    got = maximal_independent_set(rd.from_pandas(empty))
    assert got.count() == 0
    assert got.schema().names == ["node"]
