"""Graph analytics over link-sets: degrees and PageRank.

Both reuse the engine's shuffle discipline: degrees are a per-batch
partial count + small-bucket merge; PageRank is the same tagged
working-set pattern as ops.dedup.cluster_pairs_ds — node rows and edge
rows co-bucketed by node key, one fused shuffle per iteration
(contributions are emitted with the just-updated ranks), scalar-only
convergence signals on the driver.

PageRank semantics (fixed, deterministic): damping d, uniform
teleport, dangling mass redistributed uniformly each iteration —
identical to the dense reference iteration in tests/test_graph.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def out_degrees(links_ds, num_buckets=64):
    """(origin, out_degree) for every origin — per-batch partial
    counts merged in a coarse-bucket shuffle (origins are near-unique
    keys)."""
    import pyarrow as pa

    def _partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("origin", as_index=False).agg(out_degree=("rel", "size"))
        g["_cbucket"] = (
            pd.util.hash_pandas_object(g["origin"], index=False) % num_buckets
        ).astype("int32")
        return pa.Table.from_pandas(g, preserve_index=False)

    def _merge(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.groupby("origin", as_index=False).agg(
            out_degree=("out_degree", "sum")
        )

    return (
        links_ds.map_batches(_partial, batch_format="pandas")
        .groupby("_cbucket")
        .map_groups(_merge, batch_format="pandas")
    )


def _iri_edges(links_ds):
    """Directed (src, dst) pairs from links whose target is an IRI —
    the entity graph underneath a link-set."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def _edges(tbl: pa.Table) -> pa.Table:
        mask = pc.and_(
            tbl["target_is_iri"], pc.is_valid(tbl["target"])
        )
        sub = tbl.filter(mask)
        return pa.table({"src": sub["origin"], "dst": sub["target"]})

    return links_ds.map_batches(_edges, batch_format="pyarrow")


def pagerank(links_ds, damping=0.85, n_iters=20, num_buckets=None,
             personalize=None):
    """Distributed PageRank over the IRI-target entity graph.

    Working-set rows (all string-keyed): kind 0 = node state
    (key=node, rank, out_deg), kind 1 = edge (key=src, dst), kind 2 =
    in-flight contribution (key=dst, rank share). One fused
    coarse-bucket shuffle per iteration: apply incoming contributions
    to this node's rank AND emit outgoing shares with the new rank.
    Dangling-node mass is summed per bucket, aggregated driver-side
    (one scalar per iteration), and re-injected next round.
    Returns a Dataset (node, rank); ranks sum to 1.

    ``personalize``: optional iterable of seed nodes — teleport and
    dangling mass then flow to the UNIFORM-OVER-SEEDS distribution
    s(x) instead of 1/N (personalized PageRank, the entity-relatedness
    primitive): r = (1-d)*s + d*(inflow + dangling*s), r0 = s. The
    seed set is schema-sized by definition and broadcasts in the
    step closure; raises if any seed is not in the graph (its teleport
    mass would silently vanish)."""
    import ray
    import pyarrow as pa

    if num_buckets is None:
        try:
            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_buckets = 16

    edges = _iri_edges(links_ds)

    def _init(tbl: pa.Table) -> pa.Table:
        src = tbl["src"].to_pylist()
        dst = tbl["dst"].to_pylist()
        nodes = sorted(set(src) | set(dst))
        n_e, n_n = len(src), len(nodes)
        return pa.table(
            {
                "key": pa.array(src + nodes, type=pa.string()),
                "kind": pa.array([1] * n_e + [0] * n_n, type=pa.int8()),
                "other": pa.array(dst + [None] * n_n, type=pa.string()),
                "val": pa.array([0.0] * (n_e + n_n), type=pa.float64()),
            }
        )

    work = edges.map_batches(_init, batch_format="pyarrow").materialize()

    # node count + duplicate-node-seed collapse need one pre-pass
    def _bucketize(df: pd.DataFrame) -> "pa.Table":
        df = df.copy()
        df["_cbucket"] = (
            pd.util.hash_pandas_object(df["key"], index=False) % num_buckets
        ).astype("int32")
        return pa.Table.from_pandas(df, preserve_index=False)

    def _collapse(bucket: pd.DataFrame) -> pd.DataFrame:
        edg = bucket[bucket["kind"] == 1]
        nodes = bucket[bucket["kind"] == 0].drop_duplicates("key")
        deg = edg.groupby("key").size()
        out = pd.concat(
            [
                pd.DataFrame(
                    {"key": nodes["key"].to_numpy(), "kind": np.int8(0),
                     "other": None,
                     "val": nodes["key"].map(deg).fillna(0.0).to_numpy()}
                ),
                edg[["key", "kind", "other", "val"]],
            ],
            ignore_index=True,
        )
        return out

    work = (
        work.map_batches(_bucketize, batch_format="pandas")
        .groupby("_cbucket")
        .map_groups(_collapse, batch_format="pandas")
        .materialize()
    )
    n_nodes = work.map_batches(
        lambda df: pd.DataFrame({"n": [int((df["kind"] == 0).sum())]}),
        batch_format="pandas",
    ).sum("n")
    if not n_nodes:
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"node": pa.array([], type=pa.string()),
                      "rank": pa.array([], type=pa.float64())})
        )

    seeds = None
    if personalize is not None:
        seeds = sorted({str(x) for x in personalize})
        if not seeds:
            raise ValueError("personalize must be a non-empty seed set")
        seed_set = set(seeds)
        found = work.map_batches(
            lambda df, _ss=seed_set: pd.DataFrame({"n": [int(
                df.loc[df["kind"] == 0, "key"].isin(_ss).sum())]}),
            batch_format="pandas",
        ).sum("n") or 0
        if int(found) != len(seeds):
            raise ValueError(
                f"{len(seeds) - int(found)} personalization seeds are "
                "not nodes of the graph")
        s_mass = 1.0 / len(seeds)

    init_rank = 1.0 / n_nodes
    state = {"dangling": 0.0}

    for it in range(n_iters):
        first = it == 0
        dangling_in = state["dangling"]

        def _step(bucket: pd.DataFrame, first=first, dangling_in=dangling_in):
            nodes = bucket[bucket["kind"] == 0]
            edg = bucket[bucket["kind"] == 1]
            msgs = bucket[bucket["kind"] == 2]
            # node "val" holds out_degree; the round's ranks are
            # emitted as fresh kind-3 rows (stale ones are consumed
            # and dropped here each round)
            if first:
                if seeds is None:
                    r0 = np.full(len(nodes), init_rank)
                else:
                    r0 = np.where(
                        nodes["key"].isin(seed_set).to_numpy(),
                        s_mass, 0.0)
                rank_map = pd.DataFrame(
                    {"key": nodes["key"].to_numpy(), "_r": r0}
                )
            else:
                contrib = (
                    msgs.groupby("key", as_index=False)["val"].sum()
                    .rename(columns={"val": "_c"})
                )
                base = pd.DataFrame({"key": nodes["key"].to_numpy()})
                base = base.merge(contrib, on="key", how="left")
                inflow = base["_c"].fillna(0.0).to_numpy()
                if seeds is None:
                    new_rank = (
                        (1.0 - damping) / n_nodes
                        + damping * (inflow + dangling_in / n_nodes)
                    )
                else:
                    sv = np.where(
                        base["key"].isin(seed_set).to_numpy(),
                        s_mass, 0.0)
                    new_rank = (
                        (1.0 - damping) * sv
                        + damping * (inflow + dangling_in * sv)
                    )
                rank_map = pd.DataFrame(
                    {"key": base["key"].to_numpy(), "_r": new_rank}
                )
            deg = pd.DataFrame(
                {"key": nodes["key"].to_numpy(),
                 "_d": nodes["val"].to_numpy()}
            )
            rm = rank_map.merge(deg, on="key")
            # outgoing shares along edges
            shares = edg[["key", "other"]].merge(rm, on="key", how="inner")
            share_val = np.where(
                shares["_d"].to_numpy() > 0,
                shares["_r"].to_numpy() / np.maximum(shares["_d"].to_numpy(), 1),
                0.0,
            )
            # dangling mass in this bucket (nodes with no out-edges)
            dang = float(rm.loc[rm["_d"] == 0, "_r"].sum())
            out_parts = [
                nodes[["key", "kind", "other", "val"]],
                edg[["key", "kind", "other", "val"]],
                pd.DataFrame(
                    {"key": rm["key"].to_numpy(), "kind": np.int8(3),
                     "other": None, "val": rm["_r"].to_numpy()}
                ),
                pd.DataFrame(
                    {"key": shares["other"].to_numpy(), "kind": np.int8(2),
                     "other": None, "val": share_val}
                ),
            ]
            if dang:
                out_parts.append(
                    pd.DataFrame(
                        {"key": ["__dangling__"], "kind": np.int8(4),
                         "other": None, "val": [dang]}
                    )
                )
            return pd.concat(out_parts, ignore_index=True)

        work = (
            work.map_batches(_bucketize, batch_format="pandas")
            .groupby("_cbucket")
            .map_groups(_step, batch_format="pandas")
            .materialize()
        )
        # collect this round's dangling mass (one scalar), then drop
        # the marker rows and stale contributions for the next round
        state["dangling"] = work.map_batches(
            lambda df: pd.DataFrame(
                {"d": [float(df.loc[df["kind"] == 4, "val"].sum())]}
            ),
            batch_format="pandas",
        ).sum("d") or 0.0

        def _carry(df: pd.DataFrame, last=(it == n_iters - 1)) -> pd.DataFrame:
            # bound at definition: this map executes lazily, after the
            # loop variable has moved on
            keep = (df["kind"] == 3) if last else df["kind"].isin([0, 1, 2, 3])
            return df[keep]

        work = work.map_batches(_carry, batch_format="pandas")

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        lab = df[df["kind"] == 3]
        return pd.DataFrame(
            {"node": lab["key"].to_numpy(), "rank": lab["val"].to_numpy()}
        )

    return work.map_batches(_final, batch_format="pandas")


def weakly_connected_components(links_ds, rels=None, max_iters=50,
                                num_buckets=None):
    """(node, component) over the undirected entity graph: component =
    lexicographic-min node IRI, via distributed min-label propagation
    (the string-keyed sibling of ops.dedup.cluster_pairs_ds).

    ``rels`` optionally restricts which link relations contribute
    edges; only IRI-target links ever do. One fused bucket shuffle per
    iteration (labels update from incoming messages AND re-emit along
    edges in the same group pass); the driver sees only a scalar
    changed-count. Raises RuntimeError if the label fixpoint is not
    reached within ``max_iters`` — a silent partial labeling would be
    indistinguishable from a converged one downstream.

    Covers every node incident to at least one edge; isolated origins
    are their own components and can be unioned in by the caller if
    needed. Diameter-bound iterations: D shuffles for a diameter-D
    graph, so typical entity graphs (shallow hierarchies) converge in
    a handful of rounds regardless of corpus size."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    if num_buckets is None:
        try:
            num_buckets = max(32, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            num_buckets = 32

    rel_set = None if rels is None else set(rels)

    def _edges(tbl: pa.Table) -> pa.Table:
        mask = pc.and_(tbl["target_is_iri"], pc.is_valid(tbl["target"]))
        if rel_set is not None:
            mask = pc.and_(
                mask, pc.is_in(tbl["rel"], value_set=pa.array(sorted(rel_set)))
            )
        sub = tbl.filter(mask)
        return pa.table({"src": sub["origin"], "dst": sub["target"]})

    def _wf(key, kind, a, c=None):
        key = np.asarray(key, dtype=object)
        n = len(key)
        return pd.DataFrame(
            {
                "key": key,
                "kind": np.full(n, kind, dtype=np.int8),
                "a": np.asarray(a, dtype=object),
                "c": np.zeros(n, np.int8) if c is None
                else np.asarray(c, np.int8),
            }
        )

    def _init(df: pd.DataFrame) -> pd.DataFrame:
        if "src" not in df.columns or not len(df):
            return _wf([], 0, [])
        a = df["src"].to_numpy(dtype=object)
        b = df["dst"].to_numpy(dtype=object)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        nodes = np.unique(src.astype(str)).astype(object)
        return pd.concat(
            [_wf(src, 1, dst), _wf(nodes, 0, nodes)], ignore_index=True
        )

    def _step(bucket: pd.DataFrame) -> pd.DataFrame:
        if "key" not in bucket.columns or not len(bucket):
            return _wf([], 0, [])
        lab = bucket[bucket["kind"] == 0].groupby("key", as_index=False)["a"].min()
        edg = bucket[bucket["kind"] == 1]
        msgs = bucket[bucket["kind"] == 2]
        old = lab["a"].to_numpy(dtype=object)
        if len(msgs) and len(lab):
            nbr = msgs.groupby("key", as_index=False)["a"].min().rename(
                columns={"a": "_nbr"}
            )
            lab = lab.merge(nbr, on="key", how="left")
            nbr_vals = lab["_nbr"].fillna(lab["a"]).to_numpy(dtype=object)
            new = np.minimum(old, nbr_vals)
            changed = (new < old).astype(np.int8)
        else:
            new = old
            changed = np.zeros(len(lab), dtype=np.int8)
        newlab = pd.DataFrame({"key": lab["key"].to_numpy(object), "_label": new})
        out_msgs = edg.merge(newlab, on="key", how="inner")
        return pd.concat(
            [
                _wf(lab["key"].to_numpy(object), 0, new, changed),
                _wf(edg["key"].to_numpy(object), 1, edg["a"].to_numpy(object)),
                _wf(out_msgs["a"].to_numpy(object), 2,
                    out_msgs["_label"].to_numpy(object)),
            ],
            ignore_index=True,
        )

    def _bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_cbucket"] = (
            pd.util.hash_pandas_object(df["key"].astype(str), index=False)
            % num_buckets
        ).astype("int32")
        return df

    def _apply(bucket: pd.DataFrame) -> pd.DataFrame:
        if "key" not in bucket.columns or not len(bucket):
            return _wf([], 0, [])
        return _step(bucket.drop(columns=["_cbucket"]))

    work = links_ds.map_batches(_edges, batch_format="pyarrow").map_batches(
        _init, batch_format="pandas"
    )
    converged = False
    for it in range(max_iters):
        work = (
            work.map_batches(_bucketize, batch_format="pandas")
            .groupby("_cbucket")
            .map_groups(_apply, batch_format="pandas")
            .materialize()
        )
        if it == 0:
            if work.count() == 0:
                return rd.from_arrow(
                    pa.table({"node": pa.array([], type=pa.string()),
                              "component": pa.array([], type=pa.string())})
                )
            continue  # round 0 only seeds messages
        if not work.sum("c"):
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"weakly_connected_components: no fixpoint in {max_iters} "
            "iterations (graph diameter exceeds the budget)"
        )

    def _labels_only(df: pd.DataFrame) -> pd.DataFrame:
        lab = df[df["kind"] == 0]
        return pd.DataFrame(
            {"node": lab["key"].to_numpy(object),
             "component": lab["a"].to_numpy(object)}
        )

    return work.map_batches(_labels_only, batch_format="pandas")


def entail_types(links_ds, subclass_pairs, type_rel=None, num_buckets=64):
    """RDFS-style type entailment: every entity typed ``C`` is also
    typed with every (transitive) superclass of ``C``.

    The class hierarchy is schema-sized — orders of magnitude smaller
    than the instance data — so its transitive closure is computed
    driver-side (cycle-safe DFS) and broadcast once via ``ray.put``;
    the corpus-sized type links stream through one ``map_batches``
    (vectorized map + explode) and a coarse-bucket distinct. No
    corpus-cardinality shuffle keys on class membership (hot classes
    like urn:versa:Customer would be maximally skewed keys).

    ``subclass_pairs``: iterable of ``(child_class, parent_class)``.
    Returns a Dataset of distinct ``(origin, cls)`` rows covering the
    direct type and all entailed supertypes.
    """
    import ray

    from ..core import VTYPE_REL
    from .dedup import dedup_rows

    type_rel = str(type_rel or VTYPE_REL)

    parents: dict[str, set] = {}
    for c, p in subclass_pairs:
        parents.setdefault(str(c), set()).add(str(p))

    def _ancestors(c, seen):
        out = set()
        for p in parents.get(c, ()):
            if p in seen:
                continue  # cycle guard
            out.add(p)
            out |= _ancestors(p, seen | {p})
        return out

    closure = {c: sorted(_ancestors(c, {c})) for c in parents}
    cref = ray.put(closure)

    def _entail(df: pd.DataFrame) -> pd.DataFrame:
        cl = ray.get(cref)
        t = df[df["rel"] == type_rel]
        if not len(t):
            return pd.DataFrame(
                {"origin": pd.Series([], dtype=object),
                 "cls": pd.Series([], dtype=object)})
        origin = t["origin"].to_numpy(object)
        cls = t["target"].to_numpy(object)
        sup = pd.Series(cls).map(lambda c: cl.get(c, ()))
        e = sup.explode().dropna()
        return pd.DataFrame(
            {"origin": np.concatenate([origin, origin[e.index.to_numpy()]]),
             "cls": np.concatenate([cls, e.to_numpy(object)])})

    out = links_ds.map_batches(_entail, batch_format="pandas")
    return dedup_rows(out, ["origin", "cls"], num_buckets=num_buckets)


def triangle_count(edges_ds, u="u", v="v", num_buckets=64):
    """EXACT triangle count of an undirected simple graph given as
    canonical edges (``u < v``, distinct). Node-iterator algorithm,
    fully distributed:

    1. edges group by their smaller endpoint; each group emits the
       wedges (x, y), x < y, over its neighbor set — every triangle
       a < b < c is generated exactly once (center a);
    2. wedges semi-join the edge set on (x, y) via one coarse-bucket
       shuffle; the match count is the triangle count.

    Wedge volume is sum-over-centers C(deg_min, 2) where deg_min
    counts only HIGHER-numbered neighbors — the canonical u < v
    orientation is the standard degree-splitting trick that keeps hub
    nodes from exploding (a hub's wedges are spread across the nodes
    below it). For adversarial skew, pre-renumber nodes by ascending
    degree so hubs sit highest and generate no wedges.

    Returns a one-row pandas DataFrame ``(n_triangles,)`` — the
    per-bucket match counts (<= ``num_buckets`` rows) merge on the
    driver."""
    from .dedup import bucketed_group_apply, coarse_bucket

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        if not len(group):
            return pd.DataFrame(
                {u: pd.Series([], dtype="int64"),
                 v: pd.Series([], dtype="int64")}
            )
        nb = np.sort(group[v].to_numpy())
        n = len(nb)
        if n < 2:
            return pd.DataFrame({u: nb[:0], v: nb[:0]})
        ia, ib = np.triu_indices(n, k=1)
        return pd.DataFrame({u: nb[ia], v: nb[ib]})

    wedges = bucketed_group_apply(
        edges_ds, [u], _wedges, num_buckets=num_buckets, min_group_size=2
    )

    # count wedges that are themselves edges: tagged union bucketed on
    # the (u, v) pair, per-bucket set membership, small-sum finish
    def _tag(kind):
        def _t(df: pd.DataFrame) -> pd.DataFrame:
            df = df[[u, v]].copy()
            df["_kind"] = np.int8(kind)
            df["_cbucket"] = coarse_bucket(df, [u, v], num_buckets)
            return df

        return _t

    def _match(bucket: pd.DataFrame) -> pd.DataFrame:
        if "_kind" not in bucket.columns or not len(bucket):
            return pd.DataFrame({"n": pd.Series([], dtype="int64")})
        e = bucket[bucket["_kind"] == 0]
        w = bucket[bucket["_kind"] == 1]
        if not len(e) or not len(w):
            return pd.DataFrame({"n": pd.Series([], dtype="int64")})
        ekeys = pd.MultiIndex.from_frame(e[[u, v]])
        wkeys = pd.MultiIndex.from_frame(w[[u, v]])
        return pd.DataFrame({"n": [int(wkeys.isin(ekeys).sum())]})

    matched = (
        edges_ds.map_batches(_tag(0), batch_format="pandas")
        .union(wedges.map_batches(_tag(1), batch_format="pandas"))
        .groupby("_cbucket")
        .map_groups(_match, batch_format="pandas")
    )

    # final merge is driver-side on purpose: <= num_buckets count rows,
    # and a triangle-free graph leaves EVERY block empty — a
    # repartition(1) + map_batches finisher would then see zero input
    # blocks and emit nothing instead of the required single 0 row
    counts = matched.to_pandas()
    total = int(counts["n"].sum()) if "n" in counts.columns else 0
    return pd.DataFrame({"n_triangles": [np.int64(total)]})


OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"


def sameas_canonicalize(links_ds, sameas_rel=OWL_SAMEAS, num_buckets=64):
    """Entity canonicalization over an ``owl:sameAs``-style equivalence
    relation — the KG-construction step that collapses aliased
    entities after record linkage. Components of the (undirected)
    sameAs graph are computed with distributed min-label propagation
    (:func:`weakly_connected_components`); every statement is then
    rewritten so that both ``origin`` and ``target`` (and attr
    VALUES) refer to the component's lexicographic-min IRI, the
    sameAs statements themselves are dropped, and the rewritten
    statements are globally de-duplicated.

    Scale shape: the equivalence mapping is corpus-proportional, so it
    stays a Dataset end-to-end and the rewrite uses the distributed
    bucket-join form (``replace_values_ds``), never a broadcast.
    Reference parity: the reference has no distributed counterpart —
    its closest surface is the driver-side lookup/toiri pipeline
    actions (see /root/reference/tools/py/pipeline/core_actions.py),
    which this op generalizes to transitive alias chains.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..model.linkset import distinct_links, replace_values_ds

    wcc = weakly_connected_components(
        links_ds, rels=[sameas_rel], num_buckets=num_buckets)

    def _mapping(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["node"] != df["component"]]
        return pd.DataFrame({
            "entity": sub["node"].astype(object).to_numpy(),
            "authority": sub["component"].astype(object).to_numpy(),
        })

    mapping = wcc.map_batches(_mapping, batch_format="pandas")

    def _drop_sameas(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.not_equal(tbl["rel"], sameas_rel))

    rest = links_ds.map_batches(_drop_sameas, batch_format="pyarrow")
    return distinct_links(
        replace_values_ds(rest, mapping, num_buckets=num_buckets))


def cooccurrence_edges(mentions_ds, total_docs, id_col="doc_id",
                       entity_col="entity", min_count=1, num_buckets=64):
    """Entity co-occurrence graph construction from a (doc, entity)
    mention stream — the edge-building step of KG-from-text: two
    entities are linked when they are mentioned in the same document,
    weighted by document co-occurrence count and document-level PMI
    ``ln(n_ab * N / (n_a * n_b))``.

    Scale shape: mentions dedup to distinct (doc, entity) via a
    coarse-bucket shuffle; a doc-keyed bucket pass emits each
    document's entity pairs (bounded by the schema-sized entity vocab
    squared, NOT corpus-sized) with per-bucket partial counts; a
    pair-keyed bucket pass finalizes counts. Per-entity document
    frequencies have entity-vocab cardinality, so they ride the small
    two-phase combiner (``grouped_agg_small``) and broadcast into the
    final PMI map — the corpus itself never lands driver-side.

    ``total_docs`` is the corpus document count N (callers know it
    from read metadata; counting here would force an extra pass).
    Returns ``(entity_a, entity_b, n_docs, pmi)`` with
    ``entity_a < entity_b`` and ``n_docs >= min_count``.
    """
    import ray

    from .agg import grouped_agg_small
    from .dedup import dedup_rows

    m = dedup_rows(
        mentions_ds.map_batches(
            lambda df: df[[id_col, entity_col]], batch_format="pandas"),
        [id_col, entity_col], num_buckets=num_buckets)

    ent_df = grouped_agg_small(
        m, [entity_col], {"n_docs": (id_col, "size")}).to_pandas()
    ent_ref = ray.put(dict(zip(ent_df[entity_col], ent_df["n_docs"])))

    def _doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[id_col, entity_col]].copy()
        out["_dbucket"] = (
            pd.util.hash_pandas_object(out[id_col], index=False)
            % num_buckets
        ).astype("int32")
        return out

    def _pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "entity_a": pd.Series([], dtype=object),
            "entity_b": pd.Series([], dtype=object),
            "n": pd.Series([], dtype="int64"),
            "_pbucket": pd.Series([], dtype="int32"),
        })
        if not len(bucket):
            return empty
        a_out, b_out = [], []
        for _, g in bucket.groupby(id_col):
            ents = sorted(g[entity_col].unique())
            for i in range(len(ents)):
                for j in range(i + 1, len(ents)):
                    a_out.append(ents[i])
                    b_out.append(ents[j])
        if not a_out:
            return empty
        out = pd.DataFrame({
            "entity_a": pd.Series(a_out, dtype=object),
            "entity_b": pd.Series(b_out, dtype=object),
        })
        # partial count within this doc bucket (combiner)
        out = out.groupby(["entity_a", "entity_b"], as_index=False).agg(
            n=("entity_a", "size"))
        out["n"] = out["n"].astype("int64")
        out["_pbucket"] = (
            pd.util.hash_pandas_object(
                out[["entity_a", "entity_b"]], index=False)
            % num_buckets
        ).astype("int32")
        return out

    def _finalize(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "entity_a": pd.Series([], dtype=object),
            "entity_b": pd.Series([], dtype=object),
            "n_docs": pd.Series([], dtype="int64"),
            "pmi": pd.Series([], dtype="float64"),
        })
        if not len(bucket):
            return empty
        out = bucket.groupby(["entity_a", "entity_b"], as_index=False).agg(
            n_docs=("n", "sum"))
        out = out[out["n_docs"] >= min_count]
        if not len(out):
            return empty
        ent = ray.get(ent_ref)
        na = out["entity_a"].map(ent).to_numpy(dtype=np.float64)
        nb = out["entity_b"].map(ent).to_numpy(dtype=np.float64)
        out["n_docs"] = out["n_docs"].astype("int64")
        out["pmi"] = np.log(
            out["n_docs"].to_numpy(dtype=np.float64)
            * float(total_docs) / (na * nb))
        return out

    return (
        m.map_batches(_doc_bucket, batch_format="pandas")
        .groupby("_dbucket")
        .map_groups(_pairs, batch_format="pandas")
        .groupby("_pbucket")
        .map_groups(_finalize, batch_format="pandas")
    )


def bfs_depths(links_ds, seeds, rels=None, max_depth=None, max_iters=50,
               num_buckets=None):
    """Minimum hop distance from any seed along directed IRI edges —
    ``(node, depth)`` with seeds at depth 0, unreachable nodes absent.
    The breadth-first sibling of ``transitive_closure_ds``: the
    frontier lives in the Dataset (never driver-side), one fused
    coarse-bucket shuffle per hop over a tagged working set (visited
    marker carrying the settled depth / edge keyed by src / traversal
    token carrying the candidate depth), convergence signalled by a
    per-round emitted-token scalar. Because every round-r token
    carries depth r, the first visit IS the minimum — no relaxation
    rounds. Raises rather than returning a silently truncated result
    when ``max_iters`` hops don't quiesce; ``max_depth`` bounds
    exploration (tokens past it are never emitted, so the loop
    terminates early and nodes beyond it are absent)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    if num_buckets is None:
        try:
            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_buckets = 16

    rel_set = None if rels is None else sorted({str(r) for r in rels})

    def _init(tbl: pa.Table) -> pa.Table:
        mask = pc.and_(tbl["target_is_iri"], pc.is_valid(tbl["target"]))
        if rel_set is not None:
            mask = pc.and_(
                mask, pc.is_in(tbl["rel"], value_set=pa.array(rel_set)))
        sub = tbl.filter(mask)
        n = len(sub)
        return pa.table({
            "key": sub["origin"],
            "kind": pa.array([1] * n, type=pa.int8()),
            "other": sub["target"],
            "d": pa.array([0] * n, type=pa.int32()),
        })

    seed_list = sorted({str(s) for s in seeds})
    seed_tbl = pa.table({
        "key": pa.array(seed_list, type=pa.string()),
        "kind": pa.array([2] * len(seed_list), type=pa.int8()),
        "other": pa.array([None] * len(seed_list), type=pa.string()),
        "d": pa.array([0] * len(seed_list), type=pa.int32()),
    })
    work = links_ds.map_batches(_init, batch_format="pyarrow").union(
        rd.from_arrow(seed_tbl))

    def _bucketize(df: pd.DataFrame) -> "pa.Table":
        df = df.copy()
        df["_cbucket"] = (
            pd.util.hash_pandas_object(df["key"], index=False) % num_buckets
        ).astype("int32")
        return pa.Table.from_pandas(df, preserve_index=False)

    def _hop(bucket: pd.DataFrame) -> pd.DataFrame:
        visited = bucket[bucket["kind"] == 0]
        edg = bucket[bucket["kind"] == 1]
        toks = bucket[bucket["kind"] == 2]
        depth = dict(zip(visited["key"], visited["d"]))
        newly = {}
        for key, d in zip(toks["key"], toks["d"]):
            d = int(d)
            if key not in depth and (key not in newly or d < newly[key]):
                newly[key] = d
        depth.update(newly)
        out = [
            pd.DataFrame({
                "key": list(depth), "kind": np.int8(0), "other": None,
                "d": np.array(list(depth.values()), dtype=np.int32),
            }),
            edg[["key", "kind", "other", "d"]],
        ]
        if newly:
            hits = edg[edg["key"].isin(newly)].copy()
            nd = hits["key"].map(newly).to_numpy(dtype=np.int64) + 1
            if max_depth is not None:
                keep = nd <= int(max_depth)
                hits, nd = hits[keep], nd[keep]
            if len(hits):
                out.append(pd.DataFrame({
                    "key": hits["other"].to_numpy(), "kind": np.int8(2),
                    "other": None, "d": nd.astype(np.int32),
                }))
                out.append(pd.DataFrame({
                    "key": ["__new__"], "kind": np.int8(4), "other": None,
                    "d": np.array([len(hits)], dtype=np.int32),
                }))
        return pd.concat(out, ignore_index=True)

    pending = 0
    for _ in range(max_iters):
        work = (
            work.map_batches(_bucketize, batch_format="pandas")
            .groupby("_cbucket")
            .map_groups(_hop, batch_format="pandas")
            .materialize()
        )
        pending = work.map_batches(
            lambda df: pd.DataFrame(
                {"n": [int(df.loc[df["kind"] == 4, "d"].sum())]}),
            batch_format="pandas",
        ).sum("n")
        work = work.map_batches(
            lambda df: df[df["kind"] != 4], batch_format="pandas")
        if not pending:
            break
    if pending:
        raise RuntimeError(
            f"bfs_depths did not converge in {max_iters} hops "
            f"({pending} traversal tokens still pending); raise max_iters")

    def _out(df: pd.DataFrame) -> pd.DataFrame:
        hit = df[df["kind"] == 0]
        return pd.DataFrame({
            "node": hit["key"].to_numpy(),
            "depth": hit["d"].to_numpy().astype("int64"),
        })

    return work.map_batches(_out, batch_format="pandas")


def negative_samples(links_ds, n_neg=2, rels=None, num_buckets=64):
    """TransE-style corrupted-triple generation for KG-embedding
    training: every (origin, rel, IRI-target) statement yields
    ``n_neg`` deterministic negatives, the corrupted target drawn
    from the entity vocabulary (distinct origins, rank-ordered) by an
    md5 of the triple and the sample index — reproducible across runs
    and replayable in SQL. The TRUE target is excluded: a draw that
    lands on it deterministically shifts to the next entity (mod n),
    which never re-collides for n >= 2.

    Scale shape: the entity vocabulary gets global ranks via
    :func:`versa_ray.ops.agg.zip_with_index` (three bounded passes,
    no driver materialization); sampled ranks resolve to entities
    with ONE tagged-union coarse-bucket join per resolution round
    (two rounds: initial draw, then only the collision rows).
    Returns ``(origin, rel, target, neg_i, neg_entity)``.
    """
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from .agg import zip_with_index

    rel_set = None if rels is None else sorted({str(r) for r in rels})

    def _ents(tbl: pa.Table) -> pa.Table:
        return pa.table({"entity": tbl["origin"]})

    from .dedup import dedup_rows

    ents = dedup_rows(
        links_ds.map_batches(_ents, batch_format="pyarrow"),
        ["entity"], num_buckets=num_buckets)
    indexed = zip_with_index(ents, "entity", num_buckets=num_buckets)
    n = int(indexed.count())
    if n < 2:
        raise ValueError("negative_samples needs >= 2 distinct entities")

    def _pos(tbl: pa.Table) -> pa.Table:
        mask = pc.and_(tbl["target_is_iri"], pc.is_valid(tbl["target"]))
        if rel_set is not None:
            mask = pc.and_(
                mask, pc.is_in(tbl["rel"], value_set=pa.array(rel_set)))
        sub = tbl.filter(mask)
        return pa.table({"origin": sub["origin"], "rel": sub["rel"],
                         "target": sub["target"]})

    def _expand(df: pd.DataFrame) -> pd.DataFrame:
        rows_o, rows_r, rows_t, rows_i, rows_raw = [], [], [], [], []
        for o, r, t in zip(df["origin"], df["rel"], df["target"]):
            for i in range(1, n_neg + 1):
                raw = int(hashlib.md5(
                    f"{o}|{r}|{t}|{i}".encode()).hexdigest()[:15], 16)
                rows_o.append(o)
                rows_r.append(r)
                rows_t.append(t)
                rows_i.append(i)
                rows_raw.append(raw)
        return pd.DataFrame({
            "origin": pd.Series(rows_o, dtype=object),
            "rel": pd.Series(rows_r, dtype=object),
            "target": pd.Series(rows_t, dtype=object),
            "neg_i": pd.Series(rows_i, dtype="int64"),
            "raw": pd.Series(rows_raw, dtype="int64"),
            "ix": pd.Series(np.asarray(rows_raw, dtype=np.int64) % n,
                            dtype="int64"),
        })

    def _resolve(samples):
        """Attach indexed.entity at samples.ix via one tagged-union
        coarse-bucket join keyed on the rank."""
        cols = ["origin", "rel", "target", "neg_i", "raw", "ix"]

        def _s_rows(df: pd.DataFrame) -> pd.DataFrame:
            out = df[cols].copy()
            out["_kind"] = np.int8(1)
            out["_ent"] = ""
            out["_jb"] = (out["ix"].to_numpy() % num_buckets).astype(
                "int32")
            return out

        def _e_rows(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {c: pd.Series([""] * len(df), dtype=object) for c in
                 ["origin", "rel", "target"]})
            out["neg_i"] = np.int64(0)
            out["raw"] = np.int64(0)
            out["ix"] = df["_index"].to_numpy(dtype=np.int64)
            out["_kind"] = np.int8(0)
            out["_ent"] = df["entity"].astype(object).to_numpy()
            out["_jb"] = (out["ix"].to_numpy() % num_buckets).astype(
                "int32")
            return out

        def _join(bucket: pd.DataFrame) -> pd.DataFrame:
            out_cols = cols + ["_ent"]
            if "_kind" not in bucket.columns or not len(bucket):
                return pd.DataFrame(
                    {c: pd.Series([], dtype=object) for c in out_cols})
            ent = bucket[bucket["_kind"] == 0][["ix", "_ent"]]
            smp = bucket[bucket["_kind"] == 1][cols]
            m = smp.merge(ent, on="ix", how="left")
            return m[out_cols]

        both = samples.map_batches(_s_rows, batch_format="pandas").union(
            indexed.map_batches(_e_rows, batch_format="pandas"))
        return both.groupby("_jb").map_groups(_join, batch_format="pandas")

    pos = links_ds.map_batches(_pos, batch_format="pyarrow")
    first = _resolve(pos.map_batches(_expand, batch_format="pandas"))

    def _split_ok(df: pd.DataFrame) -> pd.DataFrame:
        ok = df[df["_ent"] != df["target"]]
        return pd.DataFrame({
            "origin": ok["origin"].astype(object).to_numpy(),
            "rel": ok["rel"].astype(object).to_numpy(),
            "target": ok["target"].astype(object).to_numpy(),
            "neg_i": ok["neg_i"].to_numpy(dtype=np.int64),
            "neg_entity": ok["_ent"].astype(object).to_numpy(),
        })

    def _split_collide(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["_ent"] == df["target"]].copy()
        c["ix"] = (c["raw"].to_numpy(dtype=np.int64) + 1) % n
        return c[["origin", "rel", "target", "neg_i", "raw", "ix"]]

    ok = first.map_batches(_split_ok, batch_format="pandas")
    fixed = _resolve(
        first.map_batches(_split_collide, batch_format="pandas")
    ).map_batches(
        lambda df: pd.DataFrame({
            "origin": df["origin"].astype(object).to_numpy(),
            "rel": df["rel"].astype(object).to_numpy(),
            "target": df["target"].astype(object).to_numpy(),
            "neg_i": df["neg_i"].to_numpy(dtype=np.int64),
            "neg_entity": df["_ent"].astype(object).to_numpy(),
        }),
        batch_format="pandas",
    )
    return ok.union(fixed)


def clustering_coefficients(edges_ds, u="u", v="v", num_buckets=64):
    """EXACT per-node local clustering coefficient of an undirected
    simple graph given as canonical edges (``u < v``, distinct):
    ``cc(x) = 2 * T(x) / (deg(x) * (deg(x) - 1))`` with ``T(x)`` the
    triangles through x; nodes with degree < 2 report 0.0.

    Extends the :func:`triangle_count` node-iterator shape: wedges
    carry their CENTER through the edge semi-join, every matched
    wedge credits all three corners, per-node triangle counts and
    degrees merge on node-keyed coarse-bucket shuffles, and one final
    tagged-union join divides. Returns ``(node, degree, triangles,
    cc)`` rows — every node incident to an edge appears."""
    from .dedup import bucketed_group_apply, coarse_bucket

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"c": pd.Series([], dtype="int64"),
                              u: pd.Series([], dtype="int64"),
                              v: pd.Series([], dtype="int64")})
        if not len(group):
            return empty
        nb = np.sort(group[v].to_numpy())
        n = len(nb)
        if n < 2:
            return empty
        ia, ib = np.triu_indices(n, k=1)
        return pd.DataFrame({
            "c": np.full(len(ia), group[u].iloc[0], dtype=np.int64),
            u: nb[ia], v: nb[ib]})

    wedges = bucketed_group_apply(
        edges_ds, [u], _wedges, num_buckets=num_buckets, min_group_size=2)

    def _tag_e(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[u, v]].copy()
        out["c"] = np.int64(-1)
        out["_kind"] = np.int8(0)
        out["_cbucket"] = coarse_bucket(out, [u, v], num_buckets)
        return out[["c", u, v, "_kind", "_cbucket"]]

    def _tag_w(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["c", u, v]].copy()
        out["_kind"] = np.int8(1)
        out["_cbucket"] = coarse_bucket(out, [u, v], num_buckets)
        return out

    def _match(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                              "t": pd.Series([], dtype="int64")})
        if "_kind" not in bucket.columns or not len(bucket):
            return empty
        e = bucket[bucket["_kind"] == 0]
        w = bucket[bucket["_kind"] == 1]
        if not len(e) or not len(w):
            return empty
        ekeys = pd.MultiIndex.from_frame(e[[u, v]])
        wkeys = pd.MultiIndex.from_frame(w[[u, v]])
        hit = w[wkeys.isin(ekeys)]
        if not len(hit):
            return empty
        # each matched wedge (c, x, y) is the triangle {c, x, y}:
        # credit all three corners
        nodes = np.concatenate([hit["c"].to_numpy(),
                                hit[u].to_numpy(), hit[v].to_numpy()])
        un, cn = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "t": cn.astype(np.int64)})

    tri_partial = (
        edges_ds.map_batches(_tag_e, batch_format="pandas")
        .union(wedges.map_batches(_tag_w, batch_format="pandas"))
        .groupby("_cbucket")
        .map_groups(_match, batch_format="pandas")
    )

    def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate([df[u].to_numpy(), df[v].to_numpy()]) \
            if len(df) else np.empty(0, dtype=np.int64)
        un, cn = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "d": cn.astype(np.int64)})

    def _tag(kind, val_col):
        def _t(df: pd.DataFrame) -> pd.DataFrame:
            if "node" not in df.columns or not len(df):
                return pd.DataFrame({
                    "node": pd.Series([], dtype="int64"),
                    "t": pd.Series([], dtype="int64"),
                    "d": pd.Series([], dtype="int64"),
                    "_nbucket": pd.Series([], dtype="int32")})
            out = pd.DataFrame({"node": df["node"].to_numpy(dtype=np.int64)})
            out["t"] = (df[val_col].to_numpy(dtype=np.int64)
                        if kind == 1 else np.int64(0))
            out["d"] = (df[val_col].to_numpy(dtype=np.int64)
                        if kind == 0 else np.int64(0))
            out["_nbucket"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        return _t

    def _finalize(bucket: pd.DataFrame) -> pd.DataFrame:
        if "node" not in bucket.columns or not len(bucket):
            return pd.DataFrame({
                "node": pd.Series([], dtype="int64"),
                "degree": pd.Series([], dtype="int64"),
                "triangles": pd.Series([], dtype="int64"),
                "cc": pd.Series([], dtype="float64")})
        g = bucket.groupby("node", as_index=False, sort=False).agg(
            triangles=("t", "sum"), degree=("d", "sum"))
        d = g["degree"].to_numpy(dtype=np.float64)
        t = g["triangles"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            cc = np.where(d >= 2, 2.0 * t / (d * np.maximum(d - 1, 1)), 0.0)
        return pd.DataFrame({
            "node": g["node"].to_numpy(dtype=np.int64),
            "degree": g["degree"].astype("int64"),
            "triangles": g["triangles"].astype("int64"),
            "cc": cc.astype("float64")})

    deg_partial = edges_ds.map_batches(_deg_partial, batch_format="pandas")
    both = deg_partial.map_batches(_tag(0, "d"), batch_format="pandas").union(
        tri_partial.map_batches(_tag(1, "t"), batch_format="pandas"))
    return both.groupby("_nbucket").map_groups(
        _finalize, batch_format="pandas")


def k_core(edges_ds, k, max_rounds=50, num_buckets=64):
    """Nodes of the ``k``-core: the maximal subgraph where every node
    has degree >= k (undirected simple graph as canonical ``u < v``
    distinct edges). Iterative peeling, fully distributed: each round
    recomputes degrees of the SURVIVING subgraph (one node-keyed
    coarse-bucket shuffle over edge endpoints), drops nodes below k,
    and filters edges incident to dropped nodes (a second bucket pass
    keyed on each endpoint). The driver sees one dropped-count scalar
    per round; converged = a round that drops nothing. Raises if
    ``max_rounds`` rounds still dropped nodes — a silently truncated
    peel is NOT the k-core (it may keep nodes the next round would
    drop). Returns a Dataset of ``(node,)`` rows."""
    import ray.data as rd

    from .dedup import coarse_bucket

    # materialize once: every peel round reads `edges` 2-3x, and a lazy
    # input would re-execute its whole upstream (edge projection,
    # m>=N reductions) each time
    edges = edges_ds.materialize()
    for _ in range(max_rounds):
        def _ends(df: pd.DataFrame) -> pd.DataFrame:
            nodes = (np.concatenate([df["u"].to_numpy(),
                                     df["v"].to_numpy()])
                     if len(df) else np.empty(0, dtype=np.int64))
            un, cn = np.unique(nodes, return_counts=True)
            out = pd.DataFrame({"node": un.astype(np.int64),
                                "d": cn.astype(np.int64)})
            out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _drop(group: pd.DataFrame) -> pd.DataFrame:
            if "node" not in group.columns or not len(group):
                return pd.DataFrame({"node": pd.Series([], dtype="int64")})
            g = group.groupby("node", as_index=False, sort=False)["d"].sum()
            return g.loc[g["d"] < k, ["node"]]

        dropped = (
            edges.map_batches(_ends, batch_format="pandas")
            .groupby("_nb")
            .map_groups(_drop, batch_format="pandas")
            .repartition(8)
            .materialize()
        )
        n_dropped = int(dropped.count())
        if n_dropped == 0:
            break

        # filter edges touching a dropped node: tagged union bucketed
        # on each endpoint; an edge survives only if BOTH endpoint
        # checks pass, so it is emitted from the u-keyed row only when
        # the v-keyed row also survived — implemented as two chained
        # semi-filters (each one bucket pass)
        for end in ("u", "v"):
            def _tag_e(df: pd.DataFrame, end=end) -> pd.DataFrame:
                out = df[["u", "v"]].copy()
                out["node"] = out[end].to_numpy()
                out["_kind"] = np.int8(1)
                out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
                return out

            def _tag_d(df: pd.DataFrame) -> pd.DataFrame:
                if "node" not in df.columns or not len(df):
                    return pd.DataFrame({
                        "u": pd.Series([], dtype="int64"),
                        "v": pd.Series([], dtype="int64"),
                        "node": pd.Series([], dtype="int64"),
                        "_kind": pd.Series([], dtype="int8"),
                        "_nb": pd.Series([], dtype="int32")})
                out = pd.DataFrame({
                    "u": np.zeros(len(df), dtype=np.int64),
                    "v": np.zeros(len(df), dtype=np.int64),
                    "node": df["node"].to_numpy(dtype=np.int64)})
                out["_kind"] = np.int8(0)
                out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
                return out

            def _keep(bucket: pd.DataFrame) -> pd.DataFrame:
                empty = pd.DataFrame({"u": pd.Series([], dtype="int64"),
                                      "v": pd.Series([], dtype="int64")})
                if "_kind" not in bucket.columns or not len(bucket):
                    return empty
                bad = set(bucket.loc[bucket["_kind"] == 0, "node"])
                e = bucket[bucket["_kind"] == 1]
                if not len(e):
                    return empty
                keep = ~e["node"].isin(bad)
                return e.loc[keep, ["u", "v"]]

            edges = (
                edges.map_batches(_tag_e, batch_format="pandas")
                .union(dropped.map_batches(_tag_d, batch_format="pandas"))
                .groupby("_nb")
                .map_groups(_keep, batch_format="pandas")
            )
        # repartition BEFORE materializing: each union+groupby grows the
        # block count (sort output blocks ~ input blocks), and ten rounds
        # of compounding leaves hundreds of near-empty blocks whose sort
        # overhead dwarfs the actual data (measured 0.4s -> ~40s/round at
        # sf0.01 without this)
        edges = edges.repartition(num_buckets).materialize()
    else:
        raise RuntimeError(
            f"k_core did not converge in {max_rounds} peel rounds; "
            "raise max_rounds")

    def _nodes(df: pd.DataFrame) -> pd.DataFrame:
        nodes = (np.unique(np.concatenate([df["u"].to_numpy(),
                                           df["v"].to_numpy()]))
                 if len(df) else np.empty(0, dtype=np.int64))
        out = pd.DataFrame({"node": nodes.astype(np.int64)})
        out["_nb"] = (out["node"].to_numpy() % num_buckets).astype("int32")
        return out

    def _dedup(group: pd.DataFrame) -> pd.DataFrame:
        if "node" not in group.columns or not len(group):
            return pd.DataFrame({"node": pd.Series([], dtype="int64")})
        return group[["node"]].drop_duplicates()

    return (
        edges.map_batches(_nodes, batch_format="pandas")
        .groupby("_nb")
        .map_groups(_dedup, batch_format="pandas")
    )


def neighborhood_jaccard(edges_ds, min_sim=0.5, u="u", v="v",
                         num_buckets=64, max_degree=None):
    """Node pairs whose neighborhoods overlap, with EXACT Jaccard
    similarity ``|N(a) & N(b)| / |N(a) | N(b)|`` — the classic
    structural entity-resolution signal over a KG (two entities whose
    link neighborhoods agree are merge candidates; reference
    pipelines do this per-pair in the driver, cf. demo dedup recipes).

    Input is an undirected simple graph as canonical distinct ``u <
    v`` edges. Candidates come from wedge enumeration at the shared
    neighbor (a pair with J > 0 shares at least one neighbor, so
    every such pair is emitted by at least one wedge center) — NEVER
    all-pairs. Common counts merge on a pair-keyed coarse-bucket
    shuffle, degrees on a node-keyed one, and two slim tagged-union
    bucket joins attach endpoint degrees (the pair table never ships
    whole-graph state). ``|N(a) | N(b)| = deg(a) + deg(b) - common``.

    Wedge fan-out is quadratic in the center's degree; ``max_degree``
    (optional) skips hub centers, which makes the result a documented
    UNDERCOUNT of common neighbors through skipped hubs — leave it
    None for exact. Returns ``(u, v, common, jaccard)`` for pairs
    with ``jaccard >= min_sim``."""
    from .dedup import bucketed_group_apply, coarse_bucket

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "a": np.concatenate([df[u].to_numpy(),
                                 df[v].to_numpy()]).astype(np.int64),
            "b": np.concatenate([df[v].to_numpy(),
                                 df[u].to_numpy()]).astype(np.int64)})

    # adj feeds both the wedge pass and the degree pass; deg feeds two
    # attach passes — materialize so the upstream edge projection runs
    # once, not four times
    adj = edges_ds.map_batches(_bidir, batch_format="pandas").materialize()

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"x": pd.Series([], dtype="int64"),
                              "y": pd.Series([], dtype="int64")})
        nb = np.unique(group["b"].to_numpy())
        if len(nb) < 2 or (max_degree is not None and len(nb) > max_degree):
            return empty
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({"x": nb[ia].astype(np.int64),
                             "y": nb[ib].astype(np.int64)})

    pairs = bucketed_group_apply(adj, ["a"], _wedges,
                                 num_buckets=num_buckets, min_group_size=2)

    def _pbucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_pb"] = coarse_bucket(df, ["x", "y"], num_buckets)
        return df

    def _pcount(g: pd.DataFrame) -> pd.DataFrame:
        if "x" not in g.columns or not len(g):
            return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64"),
                                 "common": pd.Series([], dtype="int64")})
        out = g.groupby(["x", "y"], as_index=False, sort=False).size()
        out.columns = ["x", "y", "common"]
        return out.astype({"common": "int64"})

    common = (pairs.map_batches(_pbucket, batch_format="pandas")
              .groupby("_pb").map_groups(_pcount, batch_format="pandas"))

    def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        un, cn = (np.unique(df["a"].to_numpy(), return_counts=True)
                  if len(df) else (np.empty(0, dtype=np.int64),) * 2)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "d": cn.astype(np.int64)})

    def _dsum(g: pd.DataFrame) -> pd.DataFrame:
        if "node" not in g.columns or not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "d": pd.Series([], dtype="int64")})
        return g.groupby("node", as_index=False, sort=False)["d"].sum()

    def _nbucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_nb"] = coarse_bucket(df, ["node"], num_buckets)
        return df

    deg = (adj.map_batches(_deg_partial, batch_format="pandas")
           .map_batches(_nbucket, batch_format="pandas")
           .groupby("_nb").map_groups(_dsum, batch_format="pandas")
           .materialize())

    def _attach(pair_ds, end_col, out_col):
        # tagged union bucketed on the endpoint: kind 0 = degree rows,
        # kind 1 = pair rows keyed by that endpoint
        pcols = [c for c in ("x", "y", "common", "dx") if c != out_col]

        def _tag_p(df: pd.DataFrame) -> pd.DataFrame:
            cols = [c for c in pcols if c in df.columns]
            if "x" not in df.columns or not len(df):
                out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                    for c in pcols})
            else:
                out = df[cols].copy()
            out["node"] = (out[end_col].to_numpy(dtype=np.int64)
                           if len(out) else
                           np.empty(0, dtype=np.int64))
            out["d"] = np.int64(-1)
            out["_kind"] = np.int8(1)
            out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _tag_d(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df) if "node" in df.columns else 0
            out = pd.DataFrame({c: np.zeros(n, dtype=np.int64)
                                for c in pcols})
            out["node"] = (df["node"].to_numpy(dtype=np.int64) if n
                           else np.empty(0, dtype=np.int64))
            out["d"] = (df["d"].to_numpy(dtype=np.int64) if n
                        else np.empty(0, dtype=np.int64))
            out["_kind"] = np.int8(0)
            out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _join(bucket: pd.DataFrame) -> pd.DataFrame:
            cols = pcols + [out_col]
            empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                                  for c in cols})
            if "_kind" not in bucket.columns or not len(bucket):
                return empty
            p = bucket[bucket["_kind"] == 1]
            d = bucket[bucket["_kind"] == 0]
            if not len(p):
                return empty
            m = pd.Series(d["d"].to_numpy(), index=d["node"].to_numpy())
            out = p[pcols].copy()
            # every pair endpoint has >= 1 edge, so the lookup always
            # hits; a miss would mean mis-bucketed keys — fail loud
            got = m.reindex(p["node"].to_numpy())
            if got.isna().any():
                raise AssertionError("degree lookup missed a node")
            out[out_col] = got.to_numpy(dtype=np.int64)
            return out

        return (pair_ds.map_batches(_tag_p, batch_format="pandas")
                .union(deg.map_batches(_tag_d, batch_format="pandas"))
                .groupby("_nb").map_groups(_join, batch_format="pandas"))

    with_dx = _attach(common, "x", "dx")
    with_dy = _attach(with_dx, "y", "dy")

    def _score(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({u: pd.Series([], dtype="int64"),
                              v: pd.Series([], dtype="int64"),
                              "common": pd.Series([], dtype="int64"),
                              "jaccard": pd.Series([], dtype="float64")})
        if "x" not in df.columns or not len(df):
            return empty
        c = df["common"].to_numpy(dtype=np.float64)
        union = (df["dx"].to_numpy(dtype=np.float64)
                 + df["dy"].to_numpy(dtype=np.float64) - c)
        jac = c / union
        keep = jac >= min_sim
        return pd.DataFrame({
            u: df["x"].to_numpy(dtype=np.int64)[keep],
            v: df["y"].to_numpy(dtype=np.int64)[keep],
            "common": df["common"].to_numpy(dtype=np.int64)[keep],
            "jaccard": jac[keep]})

    return with_dy.map_batches(_score, batch_format="pandas")


def degree_assortativity(edges_ds, u="u", v="v"):
    """Degree assortativity coefficient of an undirected simple graph
    (canonical ``u < v`` distinct edges): the Pearson correlation of
    endpoint degrees over the edge list with each edge counted in
    BOTH orientations (Newman 2002's r). One node-keyed bucket
    shuffle for degrees, two slim tagged joins to annotate edges,
    then six scalar moments reduce to the driver — nothing
    edge-cardinality ever materializes driver-side. Returns a
    one-row ``(assortativity,)`` Dataset; NaN on degenerate graphs
    (all degrees equal)."""
    import math

    import ray.data as rd

    from .dedup import coarse_bucket

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64"),
                                 "common": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "x": np.concatenate([df[u].to_numpy(),
                                 df[v].to_numpy()]).astype(np.int64),
            "y": np.concatenate([df[v].to_numpy(),
                                 df[u].to_numpy()]).astype(np.int64),
            "common": np.zeros(2 * len(df), dtype=np.int64)})

    # shape bidirectional edges as (x, y, common=0) pair rows so the
    # degree attach below mirrors neighborhood_jaccard's tagged join
    bidir = edges_ds.map_batches(_bidir, batch_format="pandas").materialize()

    # degrees + attach, inlined (same tagged-union shape as above)
    def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        un, cn = (np.unique(df["x"].to_numpy(), return_counts=True)
                  if len(df) else (np.empty(0, dtype=np.int64),) * 2)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "d": cn.astype(np.int64)})

    def _dsum(g: pd.DataFrame) -> pd.DataFrame:
        if "node" not in g.columns or not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "d": pd.Series([], dtype="int64")})
        return g.groupby("node", as_index=False, sort=False)["d"].sum()

    def _nbucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_nb"] = coarse_bucket(df, ["node"], 64)
        return df

    deg = (bidir.map_batches(_deg_partial, batch_format="pandas")
           .map_batches(_nbucket, batch_format="pandas")
           .groupby("_nb").map_groups(_dsum, batch_format="pandas")
           .materialize())

    def _attach(pair_ds, end_col, out_col, pcols):
        def _tag_p(df: pd.DataFrame) -> pd.DataFrame:
            cols = [c for c in pcols if c in df.columns]
            if "x" not in df.columns or not len(df):
                out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                    for c in pcols})
            else:
                out = df[cols].copy()
            out["node"] = (out[end_col].to_numpy(dtype=np.int64)
                           if len(out) else np.empty(0, dtype=np.int64))
            out["d"] = np.int64(-1)
            out["_kind"] = np.int8(1)
            out["_nb"] = coarse_bucket(out, ["node"], 64)
            return out

        def _tag_d(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df) if "node" in df.columns else 0
            out = pd.DataFrame({c: np.zeros(n, dtype=np.int64)
                                for c in pcols})
            out["node"] = (df["node"].to_numpy(dtype=np.int64) if n
                           else np.empty(0, dtype=np.int64))
            out["d"] = (df["d"].to_numpy(dtype=np.int64) if n
                        else np.empty(0, dtype=np.int64))
            out["_kind"] = np.int8(0)
            out["_nb"] = coarse_bucket(out, ["node"], 64)
            return out

        def _join(bucket: pd.DataFrame) -> pd.DataFrame:
            cols = pcols + [out_col]
            empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                                  for c in cols})
            if "_kind" not in bucket.columns or not len(bucket):
                return empty
            p = bucket[bucket["_kind"] == 1]
            d = bucket[bucket["_kind"] == 0]
            if not len(p):
                return empty
            m = pd.Series(d["d"].to_numpy(), index=d["node"].to_numpy())
            out = p[pcols].copy()
            got = m.reindex(p["node"].to_numpy())
            if got.isna().any():
                raise AssertionError("degree lookup missed a node")
            out[out_col] = got.to_numpy(dtype=np.int64)
            return out

        return (pair_ds.map_batches(_tag_p, batch_format="pandas")
                .union(deg.map_batches(_tag_d, batch_format="pandas"))
                .groupby("_nb").map_groups(_join, batch_format="pandas"))

    with_dx = _attach(bidir, "x", "dx", ["x", "y", "common"])
    with_dy = _attach(with_dx, "y", "dy", ["x", "y", "common", "dx"])

    def _moments(df: pd.DataFrame) -> pd.DataFrame:
        if "dx" not in df.columns or not len(df):
            z = 0.0
            return pd.DataFrame({"n": [0.0], "sx": [z], "sy": [z],
                                 "sxx": [z], "syy": [z], "sxy": [z]})
        x = df["dx"].to_numpy(dtype=np.float64)
        y = df["dy"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "n": [float(len(x))], "sx": [x.sum()], "sy": [y.sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            "sxy": [(x * y).sum()]})

    parts = with_dy.map_batches(_moments, batch_format="pandas").to_pandas()
    n, sx, sy = parts["n"].sum(), parts["sx"].sum(), parts["sy"].sum()
    sxx, syy, sxy = (parts["sxx"].sum(), parts["syy"].sum(),
                     parts["sxy"].sum())
    cov = sxy - sx * sy / n if n else float("nan")
    vx = sxx - sx * sx / n if n else float("nan")
    vy = syy - sy * sy / n if n else float("nan")
    r = cov / math.sqrt(vx * vy) if n and vx > 0 and vy > 0 else float("nan")
    return rd.from_pandas(pd.DataFrame({"assortativity": [r]}))


def label_propagation(edges_ds, n_rounds=4, u="u", v="v", num_buckets=64):
    """Community detection by synchronous label propagation with a
    DETERMINISTIC update rule, run for exactly ``n_rounds`` rounds:
    every node starts labeled with its own id, and each round adopts
    the label occurring most often among its neighbors, ties broken
    by the smallest label. Classic LPA randomizes order and stops at
    a fixpoint; pinning the round count and the tie-break makes the
    result a pure function of the graph, so an external replay (the
    DuckDB oracle unrolls the same rounds) can check it bit-exactly.

    Fully distributed: labels live in a node-keyed Dataset; each
    round is two coarse-bucket shuffles — one keyed on the NEIGHBOR
    endpoint to annotate adjacency rows with the neighbor's current
    label (with per-bucket partial (node, label) counts so only
    count rows ride the second shuffle), one keyed on the node for
    the global count merge + argmax. Nothing graph-sized touches the
    driver. Returns ``(node, label)`` rows for every node incident
    to an edge."""
    from .dedup import coarse_bucket

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "a": np.concatenate([df[u].to_numpy(),
                                 df[v].to_numpy()]).astype(np.int64),
            "b": np.concatenate([df[v].to_numpy(),
                                 df[u].to_numpy()]).astype(np.int64)})

    adj = edges_ds.map_batches(_bidir, batch_format="pandas").materialize()

    def _init_nodes(df: pd.DataFrame) -> pd.DataFrame:
        un = (np.unique(df["a"].to_numpy()) if len(df)
              else np.empty(0, dtype=np.int64))
        out = pd.DataFrame({"node": un.astype(np.int64)})
        out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
        return out

    def _init_dedup(g: pd.DataFrame) -> pd.DataFrame:
        if "node" not in g.columns or not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "label": pd.Series([], dtype="int64")})
        un = g["node"].drop_duplicates()
        return pd.DataFrame({"node": un.to_numpy(dtype=np.int64),
                             "label": un.to_numpy(dtype=np.int64)})

    labels = (adj.map_batches(_init_nodes, batch_format="pandas")
              .groupby("_nb").map_groups(_init_dedup,
                                         batch_format="pandas"))

    for _ in range(n_rounds):
        def _tag_adj(df: pd.DataFrame) -> pd.DataFrame:
            if "a" not in df.columns or not len(df):
                return pd.DataFrame({
                    "a": pd.Series([], dtype="int64"),
                    "key": pd.Series([], dtype="int64"),
                    "label": pd.Series([], dtype="int64"),
                    "_kind": pd.Series([], dtype="int8"),
                    "_nb": pd.Series([], dtype="int32")})
            out = pd.DataFrame({
                "a": df["a"].to_numpy(dtype=np.int64),
                "key": df["b"].to_numpy(dtype=np.int64)})
            out["label"] = np.int64(-1)
            out["_kind"] = np.int8(1)
            out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
            return out

        def _tag_lbl(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df) if "node" in df.columns else 0
            out = pd.DataFrame({
                "a": np.zeros(n, dtype=np.int64),
                "key": (df["node"].to_numpy(dtype=np.int64) if n
                        else np.empty(0, dtype=np.int64)),
                "label": (df["label"].to_numpy(dtype=np.int64) if n
                          else np.empty(0, dtype=np.int64))})
            out["_kind"] = np.int8(0)
            out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
            return out

        def _annotate(bucket: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                  "label": pd.Series([], dtype="int64"),
                                  "c": pd.Series([], dtype="int64")})
            if "_kind" not in bucket.columns or not len(bucket):
                return empty
            e = bucket[bucket["_kind"] == 1]
            l = bucket[bucket["_kind"] == 0]
            if not len(e):
                return empty
            m = pd.Series(l["label"].to_numpy(), index=l["key"].to_numpy())
            got = m.reindex(e["key"].to_numpy())
            if got.isna().any():
                raise AssertionError("label lookup missed a node")
            out = pd.DataFrame({
                "node": e["a"].to_numpy(dtype=np.int64),
                "label": got.to_numpy(dtype=np.int64)})
            # partial counts: only (node, label, c) rows ride the
            # second shuffle, not raw adjacency
            g = out.groupby(["node", "label"], as_index=False,
                            sort=False).size()
            g.columns = ["node", "label", "c"]
            return g.astype({"c": "int64"})

        def _nbucket(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["_nb2"] = coarse_bucket(df, ["node"], num_buckets)
            return df

        def _argmax(g: pd.DataFrame) -> pd.DataFrame:
            if "node" not in g.columns or not len(g):
                return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                     "label": pd.Series([], dtype="int64")})
            s = g.groupby(["node", "label"], as_index=False,
                          sort=False)["c"].sum()
            s = s.sort_values(["node", "c", "label"],
                              ascending=[True, False, True])
            return s.drop_duplicates("node")[["node", "label"]]

        labels = (
            adj.map_batches(_tag_adj, batch_format="pandas")
            .union(labels.map_batches(_tag_lbl, batch_format="pandas"))
            .groupby("_nb").map_groups(_annotate, batch_format="pandas")
            .map_batches(_nbucket, batch_format="pandas")
            .groupby("_nb2").map_groups(_argmax, batch_format="pandas")
        ).repartition(num_buckets).materialize()
        # repartition bounds per-round block growth (union+2 groupbys
        # compound sort-output blocks; see k_core)

    return labels


def hits_scores(edges_ds, n_rounds=2, u="u", v="v", num_buckets=64):
    """Unnormalized integer HITS (Kleinberg hubs & authorities) over
    a DIRECTED graph of distinct ``u -> v`` edges, run for exactly
    ``n_rounds`` full rounds: all scores start at 1, and each round
    computes ``auth(v) = sum of hub(u) over in-edges`` then
    ``hub(u) = sum of auth(v) over out-edges`` (the new auths, per
    the classic update order). Skipping the per-round L2
    normalization keeps every score an exact int64 — a sum of
    products of edge counts — so the result is a pure integer
    function of the graph that an external replay (the DuckDB oracle
    unrolls the same rounds as joins) checks bit-exactly; the RANKING
    is identical to normalized HITS after the same rounds because the
    normalizer is one positive scalar per round. The reference has no
    distributed counterpart (its graph utilities are driver loops,
    cf. /root/reference/tools/py/util.py jsondump/simple walks).

    Fully distributed: scores live in node-keyed Datasets; each
    half-round is the same two coarse-bucket shuffles as
    label_propagation — a tagged union keyed on the score-side
    endpoint annotates edges with current scores and emits per-bucket
    PARTIAL sums (only (node, s) partials ride the second shuffle),
    then a node-keyed merge sums exactly. A per-round scalar max
    check raises on int64 overflow risk (scores grow ~ degree^(2r))
    instead of wrapping silently.

    Returns ``(node, hub, auth)`` for every node incident to an
    edge; a node with no in-edges has auth 0, no out-edges hub 0.
    """
    from .dedup import coarse_bucket

    def _edges(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "a": df[u].to_numpy().astype(np.int64),
            "b": df[v].to_numpy().astype(np.int64)})

    edges = edges_ds.map_batches(_edges, batch_format="pandas").materialize()

    def _init_nodes(df: pd.DataFrame) -> pd.DataFrame:
        both = (np.concatenate([df["a"].to_numpy(), df["b"].to_numpy()])
                if len(df) else np.empty(0, dtype=np.int64))
        out = pd.DataFrame({"node": np.unique(both).astype(np.int64)})
        out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
        return out

    def _init_dedup(g: pd.DataFrame) -> pd.DataFrame:
        if "node" not in g.columns or not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="int64")})
        un = g["node"].drop_duplicates()
        return pd.DataFrame({"node": un.to_numpy(dtype=np.int64),
                             "s": np.ones(len(un), dtype=np.int64)})

    nodes = (edges.map_batches(_init_nodes, batch_format="pandas")
             .groupby("_nb").map_groups(_init_dedup, batch_format="pandas")
             ).materialize()

    def _half_round(scores, score_end, out_end):
        """out(out_end) = sum of scores(score_end) over edges."""

        def _tag_edge(df: pd.DataFrame) -> pd.DataFrame:
            if "a" not in df.columns or not len(df):
                return pd.DataFrame({
                    "node": pd.Series([], dtype="int64"),
                    "key": pd.Series([], dtype="int64"),
                    "s": pd.Series([], dtype="int64"),
                    "_kind": pd.Series([], dtype="int8"),
                    "_nb": pd.Series([], dtype="int32")})
            out = pd.DataFrame({
                "node": df[out_end].to_numpy(dtype=np.int64),
                "key": df[score_end].to_numpy(dtype=np.int64)})
            out["s"] = np.int64(0)
            out["_kind"] = np.int8(1)
            out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
            return out

        def _tag_score(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df) if "node" in df.columns else 0
            out = pd.DataFrame({
                "node": np.zeros(n, dtype=np.int64),
                "key": (df["node"].to_numpy(dtype=np.int64) if n
                        else np.empty(0, dtype=np.int64)),
                "s": (df["s"].to_numpy(dtype=np.int64) if n
                      else np.empty(0, dtype=np.int64))})
            out["_kind"] = np.int8(0)
            out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
            return out

        def _annotate(bucket: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                  "s": pd.Series([], dtype="int64")})
            if "_kind" not in bucket.columns or not len(bucket):
                return empty
            e = bucket[bucket["_kind"] == 1]
            sc = bucket[bucket["_kind"] == 0]
            if not len(e):
                return empty
            m = pd.Series(sc["s"].to_numpy(), index=sc["key"].to_numpy())
            got = m.reindex(e["key"].to_numpy())
            if got.isna().any():
                raise AssertionError("HITS score lookup missed a node")
            out = pd.DataFrame({
                "node": e["node"].to_numpy(dtype=np.int64),
                "s": got.to_numpy(dtype=np.int64)})
            # partial sums: only (node, s) partials ride the second
            # shuffle, not annotated adjacency
            return out.groupby("node", as_index=False, sort=False)["s"].sum()

        def _nbucket(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["_nb2"] = coarse_bucket(df, ["node"], num_buckets)
            return df

        def _merge(g: pd.DataFrame) -> pd.DataFrame:
            if "node" not in g.columns or not len(g):
                return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                     "s": pd.Series([], dtype="int64")})
            return g.groupby("node", as_index=False, sort=False)["s"].sum()

        return (
            edges.map_batches(_tag_edge, batch_format="pandas")
            .union(scores.map_batches(_tag_score, batch_format="pandas"))
            .groupby("_nb").map_groups(_annotate, batch_format="pandas")
            .map_batches(_nbucket, batch_format="pandas")
            .groupby("_nb2").map_groups(_merge, batch_format="pandas")
        ).repartition(num_buckets).materialize()
        # repartition bounds per-round block growth (see k_core)

    hub = nodes
    auth = nodes
    for _ in range(n_rounds):
        auth = _half_round(hub, score_end="a", out_end="b")
        hub = _half_round(auth, score_end="b", out_end="a")
        mx = max(int(hub.max("s") or 0), int(auth.max("s") or 0))
        if mx > (1 << 40):
            raise OverflowError(
                f"hits_scores: round max score {mx} exceeds 2^40; another "
                "round could overflow int64 — lower n_rounds")

    # outer-merge hub/auth/node tables on one node-keyed shuffle;
    # nodes with no out-edges (in-edges) get hub (auth) 0
    from .dedup import coarse_bucket as _cb

    def _tag(which):
        def _t(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df) if "node" in df.columns else 0
            out = pd.DataFrame({
                "node": (df["node"].to_numpy(dtype=np.int64) if n
                         else np.empty(0, dtype=np.int64)),
                "s": (df["s"].to_numpy(dtype=np.int64) if n
                      else np.empty(0, dtype=np.int64))})
            out["_kind"] = np.int8(which)
            out["_nb"] = _cb(out, ["node"], num_buckets)
            return out
        return _t

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                              "hub": pd.Series([], dtype="int64"),
                              "auth": pd.Series([], dtype="int64")})
        if "_kind" not in g.columns or not len(g):
            return empty
        base = g.loc[g["_kind"] == 0, "node"].drop_duplicates()
        h = g[g["_kind"] == 1].set_index("node")["s"]
        a = g[g["_kind"] == 2].set_index("node")["s"]
        idx = base.to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "node": idx,
            "hub": h.reindex(idx).fillna(0).to_numpy(dtype=np.int64),
            "auth": a.reindex(idx).fillna(0).to_numpy(dtype=np.int64)})

    return (
        nodes.map_batches(_tag(0), batch_format="pandas")
        .union(hub.map_batches(_tag(1), batch_format="pandas"),
               auth.map_batches(_tag(2), batch_format="pandas"))
        .groupby("_nb").map_groups(_final, batch_format="pandas")
    )


def schema_profile(links_ds, type_rel=None, num_buckets=64,
                   untyped="urn:versa:Untyped",
                   literal="urn:versa:Literal"):
    """Schema induction / domain-range profiling over a built KG:
    for every non-type rel, count links per ``(rel, origin_type,
    target_type)`` — the usage matrix an ontology validator checks
    declared domains/ranges against, and the first artifact a KG
    builder inspects after construction (which predicates connect
    which entity classes, and how often). Literal targets profile as
    ``literal``; entities with no type link as ``untyped``; an
    entity with MULTIPLE type links contributes one count per type
    combination (standard RDF semantics). The reference computes
    nothing like this distributed — its type utilities are driver
    loops over resourcetypes (cf. /root/reference/tools/py/util.py).

    Two coarse-bucket tagged-union joins (origin-keyed type attach,
    then target-keyed), partial counts inside the second join's
    buckets, and a small rollup — only (rel, type, type, n) partials
    leave the joins, never annotated link rows.

    Returns ``(rel, origin_type, target_type, n)``.
    """
    from ..core import VTYPE_REL
    from .agg import grouped_agg_small
    from .dedup import coarse_bucket

    type_rel = str(type_rel or VTYPE_REL)

    def _typed(df: pd.DataFrame) -> pd.DataFrame:
        t = df[df["rel"] == type_rel]
        return pd.DataFrame({"key": t["origin"].to_numpy(object),
                             "t": t["target"].to_numpy(object)})

    typed = links_ds.map_batches(_typed, batch_format="pandas").materialize()

    empty1 = pd.DataFrame({"rel": pd.Series([], dtype=object),
                           "key": pd.Series([], dtype=object),
                           "iri": pd.Series([], dtype=bool),
                           "otype": pd.Series([], dtype=object)})

    def _tag_link(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["rel"] != type_rel]
        out = pd.DataFrame({
            "rel": l["rel"].to_numpy(object),
            "key": l["origin"].to_numpy(object),
            "extra": l["target"].to_numpy(object),
            "iri": l["target_is_iri"].to_numpy(bool),
            "t": np.full(len(l), "", dtype=object)})
        out["_kind"] = np.int8(1)
        out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
        return out

    def _tag_typed(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df) if "key" in df.columns else 0
        out = pd.DataFrame({
            "rel": np.full(n, "", dtype=object),
            "key": (df["key"].to_numpy(object) if n
                    else np.empty(0, dtype=object)),
            "extra": np.full(n, "", dtype=object),
            "iri": np.zeros(n, dtype=bool),
            "t": (df["t"].to_numpy(object) if n
                  else np.empty(0, dtype=object))})
        out["_kind"] = np.int8(0)
        out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
        return out

    def _attach_origin(g: pd.DataFrame) -> pd.DataFrame:
        if "_kind" not in g.columns or not len(g):
            return empty1.copy()
        links = g[g["_kind"] == 1][["rel", "key", "extra", "iri"]]
        if not len(links):
            return empty1.copy()
        ty = g[g["_kind"] == 0][["key", "t"]]
        m = links.merge(ty, on="key", how="left")
        # target becomes the next join key; origin type rides along
        return pd.DataFrame({
            "rel": m["rel"].to_numpy(object),
            "key": m["extra"].to_numpy(object),
            "iri": m["iri"].to_numpy(bool),
            "otype": m["t"].fillna(untyped).to_numpy(object)})

    annotated = (
        links_ds.map_batches(_tag_link, batch_format="pandas")
        .union(typed.map_batches(_tag_typed, batch_format="pandas"))
        .groupby("_nb").map_groups(_attach_origin, batch_format="pandas")
    )

    empty2 = pd.DataFrame({"rel": pd.Series([], dtype=object),
                           "origin_type": pd.Series([], dtype=object),
                           "target_type": pd.Series([], dtype=object),
                           "n": pd.Series([], dtype="int64")})

    def _tag_ann(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df) if "rel" in df.columns else 0
        out = pd.DataFrame({
            "rel": (df["rel"].to_numpy(object) if n
                    else np.empty(0, dtype=object)),
            "key": (df["key"].to_numpy(object) if n
                    else np.empty(0, dtype=object)),
            "iri": (df["iri"].to_numpy(bool) if n
                    else np.empty(0, dtype=bool)),
            "otype": (df["otype"].to_numpy(object) if n
                      else np.empty(0, dtype=object)),
            "t": np.full(n, "", dtype=object)})
        out["_kind"] = np.int8(1)
        out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
        # literal targets need no type lookup — spread them uniformly
        # instead of keying on the literal value (a hot literal like a
        # 5-value segment column would concentrate one bucket)
        if n:
            lit = ~out["iri"].to_numpy(bool)
            out.loc[lit, "_nb"] = (
                np.arange(n, dtype=np.int32) % num_buckets)[lit]
        return out

    def _tag_typed2(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df) if "key" in df.columns else 0
        out = pd.DataFrame({
            "rel": np.full(n, "", dtype=object),
            "key": (df["key"].to_numpy(object) if n
                    else np.empty(0, dtype=object)),
            "iri": np.zeros(n, dtype=bool),
            "otype": np.full(n, "", dtype=object),
            "t": (df["t"].to_numpy(object) if n
                  else np.empty(0, dtype=object))})
        out["_kind"] = np.int8(0)
        out["_nb"] = coarse_bucket(out, ["key"], num_buckets)
        return out

    def _attach_target(g: pd.DataFrame) -> pd.DataFrame:
        if "_kind" not in g.columns or not len(g):
            return empty2.copy()
        links = g[g["_kind"] == 1][["rel", "key", "iri", "otype"]]
        if not len(links):
            return empty2.copy()
        ty = g[g["_kind"] == 0][["key", "t"]]
        lit = links[~links["iri"]].copy()
        lit["t"] = literal
        ir = links[links["iri"]].merge(ty, on="key", how="left")
        ir["t"] = ir["t"].fillna(untyped)
        both = pd.concat([lit, ir], ignore_index=True)
        # partial counts: only (rel, otype, ttype, n) leaves the bucket
        out = (both.groupby(["rel", "otype", "t"], as_index=False,
                            sort=False).size())
        out.columns = ["rel", "origin_type", "target_type", "n"]
        return out.astype({"n": "int64"})

    partials = (
        annotated.map_batches(_tag_ann, batch_format="pandas")
        .union(typed.map_batches(_tag_typed2, batch_format="pandas"))
        .groupby("_nb").map_groups(_attach_target, batch_format="pandas")
    )
    return grouped_agg_small(
        partials, ["rel", "origin_type", "target_type"],
        {"n": ("n", "sum")})


def random_walks(edges, walk_len, src_col="src", dst_col="dst",
                 num_buckets=64):
    """Deterministic fixed-length random walks from EVERY node of a
    directed edge set — the node2vec/DeepWalk corpus-prep primitive,
    made a pure function of the graph so an external replay can check
    it bit-exactly (the repo's md5-draw convention, shared with
    ``negative_samples``): at step ``k`` the walk started at seed
    ``w`` moves to the out-neighbor whose rank in the dst-ascending
    adjacency list is ``md5(str(w) + '|' + str(k))[:15hex] %
    out_degree``. Walks at sink nodes stop early.

    Scale shape: the adjacency (distinct edges + per-src rank/degree,
    one coarse-bucket shuffle, materialized once) re-joins the
    frontier in ONE tagged-union coarse-bucket shuffle per step —
    the same per-round cost family as pagerank/bfs_depths; the
    frontier is seeds-sized and the md5 draws are one digest per
    live walk per step. Returns ``(walk_id, step, node)`` with step 0
    = the seed itself.
    """
    import hashlib

    from .dedup import coarse_bucket, dedup_rows

    ded = dedup_rows(edges, [src_col, dst_col], num_buckets=num_buckets)

    def _rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_cbucket"] = coarse_bucket(df, [src_col], num_buckets)
        return df

    def _adj(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values([src_col, dst_col], ignore_index=True)
        g["rnk"] = g.groupby(src_col, sort=False).cumcount().astype("int64")
        g["deg"] = g.groupby(src_col, sort=False)[dst_col].transform(
            "size").astype("int64")
        return g.drop(columns=["_cbucket"])

    adj = (
        ded.map_batches(_rank, batch_format="pandas")
        .groupby("_cbucket")
        .map_groups(_adj, batch_format="pandas")
    ).materialize()

    def _seeds(df: pd.DataFrame) -> pd.DataFrame:
        u = df[[src_col]].drop_duplicates()
        return pd.DataFrame({"walk_id": u[src_col].to_numpy(),
                             "node": u[src_col].to_numpy()})

    frontier = dedup_rows(
        adj.map_batches(_seeds, batch_format="pandas"), ["walk_id"],
        num_buckets=num_buckets).materialize()

    outs = [frontier]
    for k in range(walk_len):
        def _tag_adj(df: pd.DataFrame, _k=k) -> pd.DataFrame:
            out = pd.DataFrame({
                "node": df[src_col].to_numpy(),
                "dst": df[dst_col].to_numpy(),
                "rnk": df["rnk"].to_numpy(),
                "deg": df["deg"].to_numpy(),
                # zero placeholder in the SOURCE dtype: a NaN-filled
                # reindex would upcast walk_id to float across the
                # tagged union
                "walk_id": np.zeros(
                    len(df), dtype=df[src_col].to_numpy().dtype),
                "_kind": np.full(len(df), 0, dtype=np.int8),
            })
            out["_cbucket"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _tag_frontier(df: pd.DataFrame, _k=k) -> pd.DataFrame:
            if "node" not in df.columns or not len(df):
                return pd.DataFrame()
            draws = np.array([
                int(hashlib.md5(f"{w}|{_k}".encode()).hexdigest()[:15], 16)
                for w in df["walk_id"]], dtype="int64")
            out = pd.DataFrame({
                "node": df["node"].to_numpy(),
                "dst": df["node"].to_numpy(),  # placeholder, same dtype
                "rnk": draws,
                "deg": np.zeros(len(df), dtype="int64"),
                "walk_id": df["walk_id"].to_numpy(),
                "_kind": np.full(len(df), 1, dtype=np.int8),
            })
            out["_cbucket"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _step(bucket: pd.DataFrame) -> pd.DataFrame:
            if "_kind" not in bucket.columns or not len(bucket):
                return pd.DataFrame({
                    "walk_id": pd.Series([], dtype="int64"),
                    "node": pd.Series([], dtype="int64")})
            a = bucket[bucket["_kind"] == 0]
            f = bucket[bucket["_kind"] == 1]
            if not len(a) or not len(f):
                return pd.DataFrame({
                    "walk_id": f["walk_id"].iloc[0:0],
                    "node": f["node"].iloc[0:0]})
            deg = a.groupby("node", sort=False)["deg"].first()
            fd = f.merge(deg.rename("deg_"), left_on="node",
                         right_index=True, how="inner")
            fd["want_rnk"] = fd["rnk"] % fd["deg_"]
            # the frontier's placeholder dst would suffix-collide with
            # the adjacency's real dst in the merge
            fd = fd[["walk_id", "node", "want_rnk"]]
            hit = fd.merge(
                a[["node", "rnk", "dst"]].rename(columns={"rnk": "a_rnk"}),
                left_on=["node", "want_rnk"], right_on=["node", "a_rnk"],
                how="inner")
            return pd.DataFrame({"walk_id": hit["walk_id"].to_numpy(),
                                 "node": hit["dst"].to_numpy()})

        stepped = (
            adj.map_batches(_tag_adj, batch_format="pandas")
            .union(frontier.map_batches(_tag_frontier,
                                        batch_format="pandas"))
            .groupby("_cbucket")
            .map_groups(_step, batch_format="pandas")
        ).materialize()
        if not stepped.count():
            break  # every live walk hit a sink; nothing to union in
        outs.append(stepped)
        frontier = stepped

    import ray.data as rd  # noqa: F401  (union comes from the Datasets)

    def _with_step(ds_k, k):
        def _add(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["step"] = np.int64(k)
            return df[["walk_id", "step", "node"]]
        return ds_k.map_batches(_add, batch_format="pandas")

    result = _with_step(outs[0], 0)
    for k in range(1, len(outs)):
        result = result.union(_with_step(outs[k], k))
    return result


def link_prediction(edges_ds, min_cn=1, max_degree=None, u="u", v="v",
                    num_buckets=64):
    """Common-neighbor link prediction over an undirected simple graph
    given as canonical distinct edges (``u < v``): every NON-edge pair
    at distance 2 scored by

    - ``cn`` — its exact common-neighbor count, and
    - ``ra_e9`` — an INTEGER-SCALED resource-allocation index,
      ``sum over common neighbors z of 10**9 // deg(z)`` (Zhou et al.
      2009's RA with the per-neighbor term floored at nine decimal
      digits). The integer form is deliberate: partial scores sum
      associatively through the shuffle, so the result is
      partition-invariant and replays bit-exactly in SQL — a float
      ``sum(1/deg)`` would drift with summation order.

    Fully distributed, never all-pairs:

    1. candidates come from WEDGE ENUMERATION at the shared neighbor —
       the bidirectional adjacency groups by center z (one coarse-bucket
       shuffle), each group emits its neighbor pairs (x < y) carrying
       the partial ``10**9 // deg(z)``;
    2. one tagged-union coarse-bucket shuffle on the pair key merges
       wedge partials (count = cn, sum = ra_e9) and drops pairs that
       are already edges in the same pass.

    ``max_degree``: optional hub cap — centers with more than this many
    neighbors emit no wedges. Documented UNDERCOUNT knob for power-law
    graphs (same contract as neighborhood_jaccard); leave None for
    exact results. Wedge volume is sum-over-centers C(deg, 2).

    Returns a Dataset ``(u, v, cn, ra_e9)`` with ``cn >= min_cn``.
    """
    from .dedup import bucketed_group_apply, coarse_bucket

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "_c": np.concatenate([df[u].to_numpy(), df[v].to_numpy()]),
            "_n": np.concatenate([df[v].to_numpy(), df[u].to_numpy()]),
        })

    adj = edges_ds.map_batches(_bidir, batch_format="pandas")

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        nb = np.unique(group["_n"].to_numpy())
        d = len(nb)
        empty = pd.DataFrame({
            u: nb[:0], v: nb[:0],
            "_ra": pd.Series([], dtype="int64")})
        if d < 2 or (max_degree is not None and d > max_degree):
            return empty
        ia, ib = np.triu_indices(d, k=1)
        return pd.DataFrame({
            u: nb[ia], v: nb[ib],
            "_ra": np.full(len(ia), 10**9 // d, dtype=np.int64)})

    wedges = bucketed_group_apply(
        adj, ["_c"], _wedges, num_buckets=num_buckets, min_group_size=2)

    def _tag(kind):
        def _t(df: pd.DataFrame) -> pd.DataFrame:
            out = df[[u, v]].copy()
            out["_ra"] = (df["_ra"].to_numpy() if "_ra" in df.columns
                          else np.int64(0))
            out["_kind"] = np.int8(kind)
            out["_cbucket"] = coarse_bucket(out, [u, v], num_buckets)
            return out
        return _t

    def _score(bucket: pd.DataFrame) -> "object":
        # Arrow output on purpose: an all-empty result made of pandas
        # blocks comes back column-less from Ray (the doc_postings
        # lookup hit the same quirk) — Arrow empties keep their schema,
        # so a high min_cn that filters EVERYTHING still returns the
        # four declared columns
        import pyarrow as _pa

        empty = pd.DataFrame({
            "u": pd.Series([], dtype="int64"),
            "v": pd.Series([], dtype="int64"),
            "cn": pd.Series([], dtype="int64"),
            "ra_e9": pd.Series([], dtype="int64")})
        empty.columns = [u, v, "cn", "ra_e9"]
        if "_kind" not in bucket.columns or not len(bucket):
            return _pa.Table.from_pandas(empty, preserve_index=False)
        e = bucket[bucket["_kind"] == 0]
        wd = bucket[bucket["_kind"] == 1]
        if not len(wd):
            return _pa.Table.from_pandas(empty, preserve_index=False)
        g = wd.groupby([u, v], as_index=False, sort=False).agg(
            cn=("_ra", "size"), ra_e9=("_ra", "sum"))
        if len(e):
            ekeys = pd.MultiIndex.from_frame(e[[u, v]])
            gkeys = pd.MultiIndex.from_frame(g[[u, v]])
            g = g[~gkeys.isin(ekeys)]
        g = g[g["cn"] >= min_cn]
        return _pa.Table.from_pandas(pd.DataFrame({
            u: g[u].to_numpy(), v: g[v].to_numpy(),
            "cn": g["cn"].to_numpy().astype(np.int64),
            "ra_e9": g["ra_e9"].to_numpy().astype(np.int64)}),
            preserve_index=False)

    return (
        edges_ds.map_batches(_tag(0), batch_format="pandas")
        .union(wedges.map_batches(_tag(1), batch_format="pandas"))
        .groupby("_cbucket")
        .map_groups(_score, batch_format="pandas")
    )


def shortest_paths(edges_ds, seeds, max_rounds=50, num_buckets=None,
                   src="src", dst="dst", w="w"):
    """Minimum total-weight distance from any seed along directed edges
    with NON-NEGATIVE INTEGER weights — ``(node, dist)``, seeds at 0,
    unreachable nodes absent. Distributed Bellman-Ford in the
    bfs_depths mold: the distance table and the relaxation frontier
    live in the Dataset end-to-end, one fused coarse-bucket shuffle per
    round over a tagged working set (settled distance / edge keyed by
    src / relaxation token carrying a candidate distance); the driver
    sees one improved-node counter scalar per round and stops when a
    round improves nothing. Unlike BFS, a settled distance may improve
    in a later round (a longer-hop lighter path), so tokens re-emit on
    every strict improvement; with non-negative integer weights the
    improvement chain is finite and the loop converges in at most
    (max shortest-path hop count + 1) rounds. Raises on hitting
    ``max_rounds`` rather than returning silently stale distances.
    Integer distances sum exactly, so results are partition-invariant
    and replay bit-exactly in a recursive-CTE oracle.
    """
    import pyarrow as pa
    import ray
    import ray.data as rd

    if num_buckets is None:
        try:
            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_buckets = 16

    def _init(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df[src].to_numpy(),
            "kind": np.int8(1),
            "other": df[dst].to_numpy(),
            "d": df[w].to_numpy().astype(np.int64),
        })

    seed_list = sorted({str(s) for s in seeds})
    seed_tbl = pa.table({
        "key": pa.array(seed_list, type=pa.string()),
        "kind": pa.array([2] * len(seed_list), type=pa.int8()),
        "other": pa.array([None] * len(seed_list), type=pa.string()),
        "d": pa.array([0] * len(seed_list), type=pa.int64()),
    })
    work = edges_ds.map_batches(_init, batch_format="pandas").union(
        rd.from_arrow(seed_tbl))

    def _bucketize(df: pd.DataFrame) -> "pa.Table":
        df = df.copy()
        df["_cbucket"] = (
            pd.util.hash_pandas_object(df["key"], index=False) % num_buckets
        ).astype("int32")
        return pa.Table.from_pandas(df, preserve_index=False)

    def _relax(bucket: pd.DataFrame) -> pd.DataFrame:
        settled = bucket[bucket["kind"] == 0]
        edg = bucket[bucket["kind"] == 1]
        toks = bucket[bucket["kind"] == 2]
        dist = dict(zip(settled["key"], settled["d"]))
        improved = {}
        for key, d in zip(toks["key"], toks["d"]):
            d = int(d)
            best = improved.get(key)
            if best is None:
                best = dist.get(key)
            if best is None or d < best:
                improved[key] = d
        dist.update(improved)
        out = [
            pd.DataFrame({
                "key": list(dist), "kind": np.int8(0), "other": None,
                "d": np.array(list(dist.values()), dtype=np.int64),
            }),
            edg[["key", "kind", "other", "d"]],
        ]
        if improved:
            hits = edg[edg["key"].isin(improved)]
            if len(hits):
                nd = (hits["key"].map(improved).to_numpy(dtype=np.int64)
                      + hits["d"].to_numpy(dtype=np.int64))
                out.append(pd.DataFrame({
                    "key": hits["other"].to_numpy(), "kind": np.int8(2),
                    "other": None, "d": nd,
                }))
            out.append(pd.DataFrame({
                "key": ["__improved__"], "kind": np.int8(4), "other": None,
                "d": np.array([len(improved)], dtype=np.int64),
            }))
        return pd.concat(out, ignore_index=True)

    pending = 0
    for _ in range(max_rounds):
        work = (
            work.map_batches(_bucketize, batch_format="pandas")
            .groupby("_cbucket")
            .map_groups(_relax, batch_format="pandas")
            .materialize()
        )
        pending = work.map_batches(
            lambda df: pd.DataFrame(
                {"n": [int(df.loc[df["kind"] == 4, "d"].sum())]}),
            batch_format="pandas",
        ).sum("n")
        work = work.map_batches(
            lambda df: df[df["kind"] != 4], batch_format="pandas")
        if not pending:
            break
    if pending:
        raise RuntimeError(
            f"shortest_paths did not converge in {max_rounds} rounds "
            f"({pending} distances still improving); raise max_rounds")

    def _out(df: pd.DataFrame) -> pd.DataFrame:
        hit = df[df["kind"] == 0]
        return pd.DataFrame({
            "node": hit["key"].to_numpy(),
            "dist": hit["d"].to_numpy().astype("int64"),
        })

    return work.map_batches(_out, batch_format="pandas")


def entail_domain_range(links_ds, property_rules, type_rel=None,
                        num_buckets=64):
    """RDFS domain/range type entailment (rules rdfs2 + rdfs3): a
    statement ``(s, p, o)`` where ``p`` declares ``rdfs:domain C``
    entails ``s a C``; where ``p`` declares ``rdfs:range D`` (and the
    target is an IRI) it entails ``o a D``. The property schema is
    closure-sized, so — same discipline as entail_types — it is
    captured in the stage closure and applied vectorized inside ONE
    ``map_batches`` pass over the corpus-sized statement stream,
    followed by a coarse-bucket distinct. No class-keyed shuffle (hot
    classes are maximally skewed keys).

    ``property_rules``: mapping ``rel -> (domain_cls | None,
    range_cls | None)``. Returns a Dataset of distinct ``(node, cls)``
    rows covering the DIRECT types (statements of ``type_rel``) plus
    every domain/range entailment — compose with ``entail_types`` to
    additionally close over a subclass hierarchy.
    """
    from ..core import VTYPE_REL
    from .dedup import dedup_rows

    type_rel = str(type_rel or VTYPE_REL)
    dom = {str(r): str(d) for r, (d, _) in property_rules.items()
           if d is not None}
    rng = {str(r): str(g) for r, (_, g) in property_rules.items()
           if g is not None}

    def _entail(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        t = df[df["rel"] == type_rel]
        if len(t):
            parts.append(pd.DataFrame({
                "node": t["origin"].to_numpy(object),
                "cls": t["target"].to_numpy(object)}))
        d = df[df["rel"].isin(dom)]
        if len(d):
            parts.append(pd.DataFrame({
                "node": d["origin"].to_numpy(object),
                "cls": d["rel"].map(dom).to_numpy(object)}))
        r = df[df["rel"].isin(rng) & df["target_is_iri"]]
        if len(r):
            parts.append(pd.DataFrame({
                "node": r["target"].to_numpy(object),
                "cls": r["rel"].map(rng).to_numpy(object)}))
        if not parts:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "cls": pd.Series([], dtype=object)})
        return pd.concat(parts, ignore_index=True)

    out = links_ds.map_batches(_entail, batch_format="pandas")
    return dedup_rows(out, ["node", "cls"], num_buckets=num_buckets)


def multi_source_bfs(edges_ds, seeds, max_iters=50, num_buckets=None,
                     src="src", dst="dst"):
    """Per-seed minimum hop distances from K seeds in ONE traversal —
    ``(node, seed, depth)`` for every (seed, node) pair with a path,
    seeds at depth 0. The K-source generalization of ``bfs_depths``:
    rather than K sequential BFS runs (K x rounds x shuffles), one
    tagged working set keyed by NODE carries per-(node, seed) visited
    markers, so all seeds' frontiers expand in the same fused
    coarse-bucket shuffle per hop and the round count is the maximum
    eccentricity over seeds, not the sum. Per-bucket state is
    O(nodes_in_bucket x K) — K is the documented scale knob (hundreds
    of seeds: shard the seed set across independent runs). Directed
    edges; pass both directions for an undirected graph. Raises on
    hitting ``max_iters`` rather than returning truncated depths.

    The building block for seed-sampled closeness centrality (see
    ``closeness_from_seeds``) and landmark-distance embeddings.
    """
    import ray
    import ray.data as rd

    if num_buckets is None:
        try:
            num_buckets = max(16, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_buckets = 16

    seed_list = sorted(set(seeds))
    sidx = {s: i for i, s in enumerate(seed_list)}

    def _init(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df[src].to_numpy(),
            "kind": np.int8(1),
            "other": df[dst].to_numpy(),
            "seed": np.int32(-1),
            "d": np.int32(0),
        })

    seed_tbl = pd.DataFrame({
        "key": seed_list,
        "kind": np.int8(2),
        "other": seed_list,  # placeholder of the right dtype
        "seed": np.arange(len(seed_list), dtype=np.int32),
        "d": np.int32(0),
    })
    work = edges_ds.map_batches(_init, batch_format="pandas").union(
        rd.from_pandas(seed_tbl))

    def _bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_cbucket"] = (
            pd.util.hash_pandas_object(df["key"], index=False) % num_buckets
        ).astype("int32")
        return df

    def _hop(bucket: pd.DataFrame) -> pd.DataFrame:
        visited = bucket[bucket["kind"] == 0]
        edg = bucket[bucket["kind"] == 1]
        toks = bucket[bucket["kind"] == 2]
        seen = set(zip(visited["key"], visited["seed"]))
        newly = {}
        for key, s, d in zip(toks["key"], toks["seed"], toks["d"]):
            pair = (key, s)
            d = int(d)
            if pair not in seen and (pair not in newly or d < newly[pair]):
                newly[pair] = d
        out = [visited[["key", "kind", "other", "seed", "d"]],
               edg[["key", "kind", "other", "seed", "d"]]]
        if newly:
            nf = pd.DataFrame({
                "key": [k for k, _ in newly],
                "kind": np.int8(0),
                "other": [k for k, _ in newly],
                "seed": np.array([s for _, s in newly], dtype=np.int32),
                "d": np.array(list(newly.values()), dtype=np.int32),
            })
            out.append(nf)
            if len(edg):
                em = edg[["key", "other"]].merge(
                    nf[["key", "seed", "d"]], on="key")
                if len(em):
                    out.append(pd.DataFrame({
                        "key": em["other"].to_numpy(),
                        "kind": np.int8(2),
                        "other": em["other"].to_numpy(),
                        "seed": em["seed"].to_numpy(),
                        "d": (em["d"].to_numpy() + 1).astype(np.int32),
                    }))
                    out.append(pd.DataFrame({
                        "key": [bucket["key"].iloc[0]], "kind": np.int8(4),
                        "other": [bucket["key"].iloc[0]],
                        "seed": np.int32(-1),
                        "d": np.array([len(em)], dtype=np.int32),
                    }))
        return pd.concat(out, ignore_index=True)

    pending = 0
    for _ in range(max_iters):
        work = (
            work.map_batches(_bucketize, batch_format="pandas")
            .groupby("_cbucket")
            .map_groups(_hop, batch_format="pandas")
            .materialize()
        )
        pending = work.map_batches(
            lambda df: pd.DataFrame(
                {"n": [int(df.loc[df["kind"] == 4, "d"].sum())]}),
            batch_format="pandas",
        ).sum("n")
        work = work.map_batches(
            lambda df: df[df["kind"] != 4], batch_format="pandas")
        if not pending:
            break
    if pending:
        raise RuntimeError(
            f"multi_source_bfs did not converge in {max_iters} hops "
            f"({pending} traversal tokens still pending); raise max_iters")

    rev = {i: s for s, i in sidx.items()}

    def _out(df: pd.DataFrame) -> pd.DataFrame:
        hit = df[df["kind"] == 0]
        return pd.DataFrame({
            "node": hit["key"].to_numpy(),
            "seed": hit["seed"].map(rev).to_numpy(),
            "depth": hit["d"].to_numpy().astype("int64"),
        })

    return work.map_batches(_out, batch_format="pandas")


def closeness_from_seeds(edges_ds, seeds, max_iters=50, num_buckets=64,
                         src="src", dst="dst"):
    """Seed-sampled closeness centrality: for every node reached by at
    least one seed, ``(node, n_reached, sum_depth)`` — how many of the
    K sampled seeds reach it and the total hop distance from them
    (the standard K-landmark estimator of closeness; exact integers,
    so the result is partition-invariant and SQL-replayable — the
    1/sum float inversion is left to the caller). One
    ``multi_source_bfs`` traversal plus a node-keyed coarse-bucket
    rollup."""
    from .dedup import coarse_bucket

    depths = multi_source_bfs(
        edges_ds, seeds, max_iters=max_iters, num_buckets=num_buckets,
        src=src, dst=dst)

    def _b(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_cbucket"] = coarse_bucket(df, ["node"], num_buckets)
        return df

    def _roll(bucket: pd.DataFrame) -> pd.DataFrame:
        if "node" not in bucket.columns or not len(bucket):
            return pd.DataFrame({
                "node": pd.Series([], dtype="int64"),
                "n_reached": pd.Series([], dtype="int64"),
                "sum_depth": pd.Series([], dtype="int64")})
        g = bucket.groupby("node", as_index=False, sort=False).agg(
            n_reached=("seed", "size"), sum_depth=("depth", "sum"))
        return pd.DataFrame({
            "node": g["node"].to_numpy(),
            "n_reached": g["n_reached"].to_numpy().astype(np.int64),
            "sum_depth": g["sum_depth"].to_numpy().astype(np.int64)})

    return (
        depths.map_batches(_b, batch_format="pandas")
        .groupby("_cbucket")
        .map_groups(_roll, batch_format="pandas")
    )


def strongly_connected_components(edges_ds, max_outer=20, max_inner=50,
                                  num_buckets=64, src="src", dst="dst"):
    """Strongly connected components of a directed graph over INTEGER
    node ids — ``(node, comp)`` with ``comp`` = the minimum node id of
    the SCC. Distributed FB-MIN peeling:

    each outer round computes two min-label fixpoints over the LIVE
    subgraph — ``F(v)`` = min id that reaches v (forward propagation,
    including v itself) and ``B(v)`` = min id v reaches (backward) —
    and assigns every node with ``F(v) == B(v) == m``: m reaches v AND
    v reaches m, so v is in SCC(m); conversely every SCC is assigned
    in the round where its minimum member becomes locally minimal.
    Assigned nodes peel off (node anti-join + two edge endpoint
    semi-filters, the k_core idiom) and the residual graph repeats.
    Live nodes are carried EXPLICITLY, so a node isolated by peeling
    still surfaces as its own singleton SCC.

    Each fixpoint is a label-relaxation loop in the Bellman-Ford mold:
    one fused coarse-bucket shuffle per round over tagged (label /
    edge / token) rows, one improved-count scalar to the driver.
    Round counts are graph-shaped: a min label crosses one edge per
    round, so long cycles / deep DAG chains cost rounds — the
    documented mitigation is the same as WCC's (this op targets
    KG-typical shallow graphs; both budgets RAISE rather than return
    a silently wrong partition). Worst-case outer rounds = the number
    of distinct SCC "levels" along the condensation's minimum chain.
    """
    from .dedup import coarse_bucket

    def _proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": df[src].to_numpy().astype(np.int64),
            "dst": df[dst].to_numpy().astype(np.int64)})

    edges = edges_ds.map_batches(_proj, batch_format="pandas").materialize()

    def _ends(df: pd.DataFrame) -> pd.DataFrame:
        nodes = (np.unique(np.concatenate([df["src"].to_numpy(),
                                           df["dst"].to_numpy()]))
                 if len(df) else np.empty(0, dtype=np.int64))
        out = pd.DataFrame({"node": nodes.astype(np.int64)})
        out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
        return out

    def _ddup(group: pd.DataFrame) -> pd.DataFrame:
        if "node" not in group.columns or not len(group):
            return pd.DataFrame({"node": pd.Series([], dtype="int64")})
        return group[["node"]].drop_duplicates()

    nodes = (
        edges.map_batches(_ends, batch_format="pandas")
        .groupby("_nb").map_groups(_ddup, batch_format="pandas")
        .materialize()
    )

    def _minprop(nodes_ds, edges_ds_live, forward: bool):
        """Min-label fixpoint: label(v) = min id with a directed path
        to v (forward=True) / from v (forward=False), incl. v."""
        frm, to = ("src", "dst") if forward else ("dst", "src")

        def _einit(df: pd.DataFrame) -> pd.DataFrame:
            e = pd.DataFrame({
                "key": df[frm].to_numpy(), "kind": np.int8(1),
                "other": df[to].to_numpy(),
                "c": np.zeros(len(df), dtype=np.int64)})
            # setup tokens: every node's own id flows across its edges
            t = pd.DataFrame({
                "key": df[to].to_numpy(), "kind": np.int8(2),
                "other": np.zeros(len(df), dtype=np.int64),
                "c": df[frm].to_numpy()})
            return pd.concat([e, t], ignore_index=True)

        def _ninit(df: pd.DataFrame) -> pd.DataFrame:
            n = df["node"].to_numpy()
            return pd.DataFrame({
                "key": n, "kind": np.int8(0),
                "other": np.zeros(len(n), dtype=np.int64), "c": n})

        work = edges_ds_live.map_batches(
            _einit, batch_format="pandas").union(
            nodes_ds.map_batches(_ninit, batch_format="pandas"))

        def _bucketize(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["_cbucket"] = coarse_bucket(df, ["key"], num_buckets)
            return df

        def _relax(bucket: pd.DataFrame) -> pd.DataFrame:
            lab = bucket[bucket["kind"] == 0]
            edg = bucket[bucket["kind"] == 1]
            toks = bucket[bucket["kind"] == 2]
            cur = dict(zip(lab["key"], lab["c"]))
            improved = {}
            for key, c in zip(toks["key"], toks["c"]):
                c = int(c)
                best = improved.get(key)
                if best is None:
                    best = cur.get(key)
                if best is not None and c < best:
                    improved[key] = c
            cur.update(improved)
            out = [
                pd.DataFrame({
                    "key": np.fromiter(cur, dtype=np.int64, count=len(cur)),
                    "kind": np.int8(0),
                    "other": np.int64(0),
                    "c": np.fromiter(cur.values(), dtype=np.int64,
                                     count=len(cur))}),
                edg[["key", "kind", "other", "c"]],
            ]
            if improved:
                hits = edg[edg["key"].isin(improved)]
                if len(hits):
                    out.append(pd.DataFrame({
                        "key": hits["other"].to_numpy(), "kind": np.int8(2),
                        "other": np.int64(0),
                        "c": hits["key"].map(improved).to_numpy(
                            dtype=np.int64)}))
                out.append(pd.DataFrame({
                    "key": np.array([-1], dtype=np.int64),
                    "kind": np.int8(4), "other": np.int64(0),
                    "c": np.array([len(improved)], dtype=np.int64)}))
            return pd.concat(out, ignore_index=True)

        pending = 0
        for _ in range(max_inner):
            work = (
                work.map_batches(_bucketize, batch_format="pandas")
                .groupby("_cbucket")
                .map_groups(_relax, batch_format="pandas")
                .materialize()
            )
            pending = work.map_batches(
                lambda df: pd.DataFrame(
                    {"n": [int(df.loc[df["kind"] == 4, "c"].sum())]}),
                batch_format="pandas",
            ).sum("n")
            work = work.map_batches(
                lambda df: df[df["kind"] != 4], batch_format="pandas")
            if not pending:
                break
        if pending:
            raise RuntimeError(
                f"scc min-label fixpoint did not converge in {max_inner} "
                f"rounds ({pending} labels still improving); raise "
                "max_inner")

        def _lab(df: pd.DataFrame) -> pd.DataFrame:
            hit = df[df["kind"] == 0]
            return pd.DataFrame({
                "node": hit["key"].to_numpy(dtype=np.int64),
                "c": hit["c"].to_numpy(dtype=np.int64)})

        return work.map_batches(_lab, batch_format="pandas")

    assigned = []
    for _ in range(max_outer):
        if not nodes.count():
            break
        fwd = _minprop(nodes, edges, forward=True)
        bwd = _minprop(nodes, edges, forward=False)

        # F == B intersect: one node-keyed tagged shuffle
        def _tagfb(side):
            def _t(df: pd.DataFrame) -> pd.DataFrame:
                out = df.copy()
                out["_side"] = np.int8(side)
                out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
                return out
            return _t

        def _match(bucket: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({
                "node": pd.Series([], dtype="int64"),
                "comp": pd.Series([], dtype="int64")})
            if "_side" not in bucket.columns or not len(bucket):
                return empty
            f = bucket[bucket["_side"] == 0]
            b = bucket[bucket["_side"] == 1]
            m = f.merge(b, on="node", suffixes=("_f", "_b"))
            hit = m[m["c_f"] == m["c_b"]]
            return pd.DataFrame({
                "node": hit["node"].to_numpy(dtype=np.int64),
                "comp": hit["c_f"].to_numpy(dtype=np.int64)})

        newly = (
            fwd.map_batches(_tagfb(0), batch_format="pandas")
            .union(bwd.map_batches(_tagfb(1), batch_format="pandas"))
            .groupby("_nb")
            .map_groups(_match, batch_format="pandas")
            .repartition(8)
            .materialize()
        )
        if not newly.count():
            raise RuntimeError(
                "scc made no progress in an outer round — "
                "FB-MIN always assigns the SCC of each locally minimal "
                "node, so this indicates an internal invariant break")
        assigned.append(newly)

        # peel: nodes anti-join newly; edges endpoint-semi-filter newly
        def _tag_n(df: pd.DataFrame) -> pd.DataFrame:
            out = df[["node"]].copy()
            out["_kind"] = np.int8(1)
            out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _tag_a(df: pd.DataFrame) -> pd.DataFrame:
            if "node" not in df.columns or not len(df):
                return pd.DataFrame({
                    "node": pd.Series([], dtype="int64"),
                    "_kind": pd.Series([], dtype="int8"),
                    "_nb": pd.Series([], dtype="int32")})
            out = df[["node"]].copy()
            out["_kind"] = np.int8(0)
            out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
            return out

        def _survive(bucket: pd.DataFrame) -> pd.DataFrame:
            if "_kind" not in bucket.columns or not len(bucket):
                return pd.DataFrame({"node": pd.Series([], dtype="int64")})
            gone = set(bucket.loc[bucket["_kind"] == 0, "node"])
            live = bucket[bucket["_kind"] == 1]
            return live.loc[~live["node"].isin(gone), ["node"]]

        nodes = (
            nodes.map_batches(_tag_n, batch_format="pandas")
            .union(newly.map_batches(_tag_a, batch_format="pandas"))
            .groupby("_nb")
            .map_groups(_survive, batch_format="pandas")
            .repartition(8)
            .materialize()
        )

        for end in ("src", "dst"):
            def _tag_e(df: pd.DataFrame, end=end) -> pd.DataFrame:
                out = df[["src", "dst"]].copy()
                out["node"] = out[end].to_numpy()
                out["_kind"] = np.int8(1)
                out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
                return out

            def _tag_g(df: pd.DataFrame) -> pd.DataFrame:
                if "node" not in df.columns or not len(df):
                    return pd.DataFrame({
                        "src": pd.Series([], dtype="int64"),
                        "dst": pd.Series([], dtype="int64"),
                        "node": pd.Series([], dtype="int64"),
                        "_kind": pd.Series([], dtype="int8"),
                        "_nb": pd.Series([], dtype="int32")})
                out = pd.DataFrame({
                    "src": np.zeros(len(df), dtype=np.int64),
                    "dst": np.zeros(len(df), dtype=np.int64),
                    "node": df["node"].to_numpy(dtype=np.int64)})
                out["_kind"] = np.int8(0)
                out["_nb"] = coarse_bucket(out, ["node"], num_buckets)
                return out

            def _keep(bucket: pd.DataFrame) -> pd.DataFrame:
                empty = pd.DataFrame({
                    "src": pd.Series([], dtype="int64"),
                    "dst": pd.Series([], dtype="int64")})
                if "_kind" not in bucket.columns or not len(bucket):
                    return empty
                gone = set(bucket.loc[bucket["_kind"] == 0, "node"])
                e = bucket[bucket["_kind"] == 1]
                if not len(e):
                    return empty
                return e.loc[~e["node"].isin(gone), ["src", "dst"]]

            edges = (
                edges.map_batches(_tag_e, batch_format="pandas")
                .union(newly.map_batches(_tag_g, batch_format="pandas"))
                .groupby("_nb")
                .map_groups(_keep, batch_format="pandas")
            )
        edges = edges.repartition(num_buckets).materialize()
    else:
        raise RuntimeError(
            f"scc did not converge in {max_outer} peel rounds; "
            "raise max_outer")

    out = assigned[0]
    for part in assigned[1:]:
        out = out.union(part)
    return out


def bipartite_check(edges_ds, max_iters=50, num_buckets=64,
                    src="src", dst="dst"):
    """Per-component bipartiteness via BFS-layer parity — the
    odd-cycle detector (2-colorability QA for interaction graphs,
    conflict graphs, alternating-role KG relations).

    Standard argument: with min hop depths from any fixed node of a
    component, an edge whose endpoints share depth PARITY exists iff
    the component contains an odd cycle. Both ingredients are already
    distributed primitives here: components come from min-label
    propagation (``cluster_pairs_ds``), per-component depths from ONE
    ``multi_source_bfs`` traversal seeded at every component's min
    node (seed list is O(#components) driver-side — the documented
    knob, same shape as multi_source_bfs's seed index), and parities
    attach to edges through two tagged coarse-bucket joins; only
    (component, count) partials reach the final rollup.

    ``edges_ds``: (src, dst) int64 edges, direction ignored;
    self-loops dropped (they are odd cycles of length 1 — callers
    wanting them flagged should count them separately). Isolated
    nodes never appear (no edges). Returns
    (component, n_nodes, n_edges, odd_edges, is_bipartite) where
    component = min node id, n_edges counts distinct canonical
    undirected edges.
    """
    from .dedup import _int_bucket, cluster_pairs_ds, dedup_rows

    def _canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].to_numpy(dtype=np.int64)
        b = df[dst].to_numpy(dtype=np.int64)
        m = a != b
        a, b = a[m], b[m]
        return pd.DataFrame({"id_a": np.minimum(a, b),
                             "id_b": np.maximum(a, b)})

    pairs = dedup_rows(
        edges_ds.map_batches(_canon, batch_format="pandas"),
        ["id_a", "id_b"], num_buckets=num_buckets).materialize()

    comp = cluster_pairs_ds(
        pairs, max_iters=max_iters, num_buckets=num_buckets)
    seeds = dedup_rows(
        comp.map_batches(lambda df: df[["label"]], batch_format="pandas"),
        ["label"], num_buckets=num_buckets,
    ).to_pandas()["label"].astype(np.int64).tolist()

    def _sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df["id_a"].to_numpy(),
                                   df["id_b"].to_numpy()]),
            "dst": np.concatenate([df["id_b"].to_numpy(),
                                   df["id_a"].to_numpy()]),
        })

    depths = multi_source_bfs(
        pairs.map_batches(_sym, batch_format="pandas"), seeds,
        max_iters=max_iters, num_buckets=num_buckets).materialize()

    # tagged working frame: key (join node), kind (0 = depth row,
    # 1 = edge row), a (edge: other endpoint / pass-2: parity of u),
    # comp, par (depth parity)
    def _frame(key, kind, a, comp_, par):
        n = len(key)
        return pd.DataFrame({
            "key": np.asarray(key, dtype=np.int64),
            "kind": np.full(n, kind, dtype=np.int8),
            "a": np.asarray(a, dtype=np.int64),
            "comp": np.asarray(comp_, dtype=np.int64),
            "par": np.asarray(par, dtype=np.int8),
        })

    def _depth_rows(df: pd.DataFrame) -> pd.DataFrame:
        if "node" not in df.columns or not len(df):
            return _frame([], 0, [], [], [])
        return _frame(df["node"].to_numpy(), 0,
                      np.zeros(len(df), dtype=np.int64),
                      df["seed"].to_numpy(),
                      df["depth"].to_numpy(dtype=np.int64) & 1)

    def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        if "id_a" not in df.columns or not len(df):
            return _frame([], 1, [], [], [])
        n = len(df)
        return _frame(df["id_a"].to_numpy(), 1, df["id_b"].to_numpy(),
                      np.zeros(n, dtype=np.int64),
                      np.zeros(n, dtype=np.int8))

    def _bucketed(ds_, fn):
        import pyarrow as _pa

        def _tag(df: pd.DataFrame) -> "_pa.Table":
            out = df.copy()
            out["_cbucket"] = (
                _int_bucket(out["key"].to_numpy(), num_buckets)
                if len(out) else np.empty(0, dtype=np.int32))
            return _pa.Table.from_pandas(out, preserve_index=False)

        def _apply(bucket: pd.DataFrame) -> pd.DataFrame:
            if "key" not in bucket.columns or not len(bucket):
                return fn(_frame([], 0, [], [], []))
            return fn(bucket.drop(columns=["_cbucket"]))

        return (ds_.map_batches(_tag, batch_format="pandas")
                .groupby("_cbucket").map_groups(_apply,
                                                batch_format="pandas"))

    pass1_in = depths.map_batches(
        _depth_rows, batch_format="pandas").union(
        pairs.map_batches(_edge_rows, batch_format="pandas"))

    def _attach_u(bucket: pd.DataFrame) -> pd.DataFrame:
        d = bucket[bucket["kind"] == 0][["key", "comp", "par"]]
        e = bucket[bucket["kind"] == 1][["key", "a"]]
        if not len(e):
            return _frame([], 1, [], [], [])
        m = e.merge(d, on="key", how="left")
        # every edge endpoint has a depth row by construction
        return _frame(m["a"].to_numpy(), 1, m["par"].to_numpy(),
                      m["comp"].to_numpy(), np.zeros(len(m), dtype=np.int8))

    pass2_in = depths.map_batches(
        _depth_rows, batch_format="pandas").union(
        _bucketed(pass1_in, _attach_u))

    def _partials(bucket: pd.DataFrame) -> pd.DataFrame:
        d = bucket[bucket["kind"] == 0]
        e = bucket[bucket["kind"] == 1]
        outs = []
        if len(d):
            g = d.groupby("comp", sort=False).size()
            outs.append(pd.DataFrame({
                "comp": g.index.to_numpy(dtype=np.int64),
                "nodes": g.to_numpy(dtype=np.int64),
                "edges": np.zeros(len(g), dtype=np.int64),
                "odd": np.zeros(len(g), dtype=np.int64)}))
        if len(e):
            m = e[["key", "a", "comp"]].merge(
                d[["key", "par"]], on="key", how="left")
            odd = (m["a"].to_numpy(dtype=np.int64)
                   == m["par"].to_numpy(dtype=np.int64))
            g = pd.DataFrame({"comp": m["comp"], "odd": odd}).groupby(
                "comp", sort=False).agg(edges=("odd", "size"),
                                        odd=("odd", "sum"))
            outs.append(pd.DataFrame({
                "comp": g.index.to_numpy(dtype=np.int64),
                "nodes": np.zeros(len(g), dtype=np.int64),
                "edges": g["edges"].to_numpy(dtype=np.int64),
                "odd": g["odd"].to_numpy(dtype=np.int64)}))
        if not outs:
            return pd.DataFrame({
                "comp": pd.Series([], dtype="int64"),
                "nodes": pd.Series([], dtype="int64"),
                "edges": pd.Series([], dtype="int64"),
                "odd": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    partials = _bucketed(pass2_in, _partials)

    import pyarrow as _pa

    def _rebucket(df: pd.DataFrame) -> "_pa.Table":
        out = df.copy()
        out["_cbucket"] = (
            _int_bucket(out["comp"].to_numpy(), num_buckets)
            if len(out) else np.empty(0, dtype=np.int32))
        return _pa.Table.from_pandas(out, preserve_index=False)

    def _rollup(bucket: pd.DataFrame) -> pd.DataFrame:
        if "comp" not in bucket.columns or not len(bucket):
            return pd.DataFrame({
                "component": pd.Series([], dtype="int64"),
                "n_nodes": pd.Series([], dtype="int64"),
                "n_edges": pd.Series([], dtype="int64"),
                "odd_edges": pd.Series([], dtype="int64"),
                "is_bipartite": pd.Series([], dtype=bool)})
        g = bucket.groupby("comp", sort=False).agg(
            n_nodes=("nodes", "sum"), n_edges=("edges", "sum"),
            odd_edges=("odd", "sum")).reset_index()
        return pd.DataFrame({
            "component": g["comp"].to_numpy(dtype=np.int64),
            "n_nodes": g["n_nodes"].to_numpy(dtype=np.int64),
            "n_edges": g["n_edges"].to_numpy(dtype=np.int64),
            "odd_edges": g["odd_edges"].to_numpy(dtype=np.int64),
            "is_bipartite": g["odd_edges"].to_numpy() == 0})

    return (partials.map_batches(_rebucket, batch_format="pandas")
            .groupby("_cbucket").map_groups(_rollup,
                                            batch_format="pandas"))


def harmonic_from_seeds(edges_ds, seeds, scale=10**9, max_iters=50,
                        num_buckets=64, src="src", dst="dst"):
    """Seed-sampled HARMONIC centrality: per reached node,
    ``(node, n_reached, harmonic_e9)`` where harmonic_e9 is the exact
    INTEGER ``sum over reaching seeds of scale // depth`` (depth-0
    self terms contribute 0, per the harmonic definition). Unlike
    closeness, harmonic centrality is well-defined on disconnected
    graphs — unreachable seeds simply contribute nothing — which is
    why it is the centrality of choice for web-scale graphs (Boldi &
    Vigna 2014). The integer scaling makes the sum associative through
    the shuffle (partition-invariant) and SQL-replayable bit-exactly,
    the link_prediction convention. One ``multi_source_bfs`` traversal
    plus a node-keyed coarse-bucket rollup."""
    from .dedup import coarse_bucket

    depths = multi_source_bfs(
        edges_ds, seeds, max_iters=max_iters, num_buckets=num_buckets,
        src=src, dst=dst)

    def _b(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_cbucket"] = coarse_bucket(df, ["node"], num_buckets)
        return df

    def _roll(bucket: pd.DataFrame) -> pd.DataFrame:
        if "node" not in bucket.columns or not len(bucket):
            return pd.DataFrame({
                "node": pd.Series([], dtype="int64"),
                "n_reached": pd.Series([], dtype="int64"),
                "harmonic_e9": pd.Series([], dtype="int64")})
        d = bucket["depth"].to_numpy(dtype=np.int64)
        term = np.where(d > 0, np.int64(scale) // np.maximum(d, 1), 0)
        g = (bucket.assign(_t=term)
             .groupby("node", as_index=False, sort=False)
             .agg(n_reached=("seed", "size"), harmonic_e9=("_t", "sum")))
        return pd.DataFrame({
            "node": g["node"].to_numpy(),
            "n_reached": g["n_reached"].to_numpy().astype(np.int64),
            "harmonic_e9": g["harmonic_e9"].to_numpy().astype(np.int64)})

    return (
        depths.map_batches(_b, batch_format="pandas")
        .groupby("_cbucket")
        .map_groups(_roll, batch_format="pandas")
    )


def k_truss(edges_ds, k, u="u", v="v", max_rounds=30, num_buckets=64):
    """k-truss decomposition: the maximal subgraph in which every
    edge participates in at least ``k - 2`` triangles — the
    cohesive-community filter one notch stronger than k-core (a
    k-truss is always inside a (k-1)-core but prunes bridge edges
    cores keep). Input: canonical distinct undirected edges
    (``u < v``), the triangle_count contract.

    Iterative distributed peeling, three coarse-bucket shuffles per
    round, the k_core discipline:

    1. wedge enumeration at each edge's smaller endpoint (the
       degree-splitting orientation — every triangle c < x < y is
       generated once, at center c);
    2. wedges match the edge set on (x, y); each matched triangle
       emits +1 support partials for ALL THREE of its edges
       (x,y)/(c,x)/(c,y), pre-summed per bucket;
    3. an edge-keyed pass merges partials onto edges and keeps those
       with support >= k - 2 (edges in no triangle never receive a
       partial and drop whenever k >= 3).

    The driver sees one edge-count scalar per round. RAISES
    RuntimeError on hitting ``max_rounds`` before the fixpoint — a
    silently truncated peel would be indistinguishable from a
    converged one. Round count is graph-shaped (each round must drop
    at least one edge before the last).
    """
    from .dedup import bucketed_group_apply, coarse_bucket

    if k < 3:
        raise ValueError("k_truss needs k >= 3")
    t = k - 2

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"x": pd.Series([], dtype="int64"),
                              "y": pd.Series([], dtype="int64"),
                              "c": pd.Series([], dtype="int64")})
        if not len(group):
            return empty
        nb = np.sort(group[v].to_numpy(dtype=np.int64))
        n = len(nb)
        if n < 2:
            return empty
        ia, ib = np.triu_indices(n, k=1)
        c = np.int64(group[u].iloc[0])
        return pd.DataFrame({"x": nb[ia], "y": nb[ib],
                             "c": np.full(len(ia), c, dtype=np.int64)})

    def _tag_edges_xy(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"x": df[u].to_numpy(dtype=np.int64),
                            "y": df[v].to_numpy(dtype=np.int64)})
        out["c"] = np.int64(-1)
        out["_kind"] = np.int8(0)
        out["_cbucket"] = coarse_bucket(out, ["x", "y"], num_buckets)
        return out

    def _tag_wedges(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["_kind"] = np.int8(1)
        out["_cbucket"] = coarse_bucket(out, ["x", "y"], num_buckets)
        return out

    def _partials(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({u: pd.Series([], dtype="int64"),
                              v: pd.Series([], dtype="int64"),
                              "s": pd.Series([], dtype="int64")})
        if "_kind" not in bucket.columns or not len(bucket):
            return empty
        e = bucket[bucket["_kind"] == 0]
        w = bucket[bucket["_kind"] == 1]
        if not len(e) or not len(w):
            return empty
        ekeys = pd.MultiIndex.from_frame(e[["x", "y"]])
        wkeys = pd.MultiIndex.from_frame(w[["x", "y"]])
        hit = w[wkeys.isin(ekeys)]
        if not len(hit):
            return empty
        tri = pd.concat([
            pd.DataFrame({u: hit["x"], v: hit["y"]}),
            pd.DataFrame({u: hit["c"], v: hit["x"]}),
            pd.DataFrame({u: hit["c"], v: hit["y"]}),
        ], ignore_index=True)
        g = tri.groupby([u, v], as_index=False, sort=False).size()
        return pd.DataFrame({u: g[u].to_numpy(dtype=np.int64),
                             v: g[v].to_numpy(dtype=np.int64),
                             "s": g["size"].to_numpy(dtype=np.int64)})

    def _tag_base(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[u, v]].copy()
        out["s"] = np.int64(0)
        out["_kind"] = np.int8(0)
        out["_cbucket"] = coarse_bucket(out, [u, v], num_buckets)
        return out

    def _tag_sup(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["_kind"] = np.int8(1)
        out["_cbucket"] = coarse_bucket(out, [u, v], num_buckets)
        return out

    def _keep(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({u: pd.Series([], dtype="int64"),
                              v: pd.Series([], dtype="int64")})
        if "_kind" not in bucket.columns or not len(bucket):
            return empty
        base = bucket[bucket["_kind"] == 0][[u, v]]
        if not len(base):
            return empty
        sup = (bucket[bucket["_kind"] == 1]
               .groupby([u, v], as_index=False, sort=False)["s"].sum())
        m = base.merge(sup, on=[u, v], how="left")
        m["s"] = m["s"].fillna(0)
        keep = m[m["s"] >= t]
        return pd.DataFrame({u: keep[u].to_numpy(dtype=np.int64),
                             v: keep[v].to_numpy(dtype=np.int64)})

    cur = edges_ds.materialize()
    n0 = cur.count()
    for _ in range(max_rounds):
        wedges = bucketed_group_apply(
            cur, [u], _wedges, num_buckets=num_buckets, min_group_size=2)
        partials = (
            cur.map_batches(_tag_edges_xy, batch_format="pandas")
            .union(wedges.map_batches(_tag_wedges, batch_format="pandas"))
            .groupby("_cbucket")
            .map_groups(_partials, batch_format="pandas")
        )
        nxt = (
            cur.map_batches(_tag_base, batch_format="pandas")
            .union(partials.map_batches(_tag_sup, batch_format="pandas"))
            .groupby("_cbucket")
            .map_groups(_keep, batch_format="pandas")
        ).materialize()
        n1 = nxt.count()
        cur = nxt
        if n1 == n0:
            return cur
        n0 = n1
    raise RuntimeError(
        f"k_truss did not reach a fixpoint in {max_rounds} rounds; "
        f"raise max_rounds")


def maximal_independent_set(edges_ds, u="u", v="v", max_rounds=30,
                            num_buckets=64):
    """Deterministic Luby's maximal independent set: no two selected
    nodes are adjacent and every unselected node has a selected
    neighbor — the classic symmetry-breaking primitive (conflict-free
    scheduling, landmark selection, coloring bootstrap).

    Luby's randomness is replaced by the md5 priority convention
    (``md5_number_upper(str(node))``, ties by node id), so the result
    is a PURE FUNCTION of the edge set — reproducible across runs and
    partition layouts, and replayable bit-exactly by a SQL oracle. A
    node wins a round iff its (priority, id) is lexicographically
    smaller than every LIVE neighbor's — priorities derive from the
    node id alone, so neighbor priorities are computed in-map and the
    winner test is ONE src-keyed coarse-bucket pass (no priority
    join); winners and their neighbors then peel via the k_core
    anti-/semi-join idiom. Live nodes are carried explicitly so
    edge-isolated survivors win their round. Expected O(log n)
    rounds; RAISES on ``max_rounds`` exhaustion rather than returning
    a partial (hence non-maximal) set.

    Input: canonical distinct undirected edges (u < v), int64 nodes.
    Returns a Dataset of ``(node,)`` MIS members.
    """
    import hashlib

    import ray.data as rd

    from .dedup import _int_bucket, dedup_rows
    from .joins import semi_join_keys

    def _pri(ids: np.ndarray) -> np.ndarray:
        return np.array(
            [int.from_bytes(hashlib.md5(str(int(i)).encode()).digest()[:8],
                            "little") for i in ids],
            dtype=np.uint64)

    def _sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": np.concatenate([df[u].to_numpy(dtype=np.int64),
                                 df[v].to_numpy(dtype=np.int64)]),
            "b": np.concatenate([df[v].to_numpy(dtype=np.int64),
                                 df[u].to_numpy(dtype=np.int64)]),
        })

    edges = edges_ds.map_batches(_sym, batch_format="pandas").materialize()
    nodes = dedup_rows(
        edges.map_batches(lambda df: pd.DataFrame(
            {"node": df["a"].to_numpy(dtype=np.int64)}),
            batch_format="pandas"),
        ["node"], num_buckets=num_buckets).materialize()

    def _tag_node(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"key": df["node"].to_numpy(dtype=np.int64)})
        out["nb"] = np.int64(-1)
        out["_kind"] = np.int8(0)
        out["_cbucket"] = _int_bucket(out["key"].to_numpy(), num_buckets)
        return out

    def _tag_edge(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"key": df["a"].to_numpy(dtype=np.int64),
                            "nb": df["b"].to_numpy(dtype=np.int64)})
        out["_kind"] = np.int8(1)
        out["_cbucket"] = _int_bucket(out["key"].to_numpy(), num_buckets)
        return out

    def _winners(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"node": pd.Series([], dtype="int64")})
        if "_kind" not in bucket.columns or not len(bucket):
            return empty
        own = bucket[bucket["_kind"] == 0]["key"].to_numpy(dtype=np.int64)
        if not len(own):
            return empty
        e = bucket[bucket["_kind"] == 1]
        own_pri = _pri(own)
        if len(e):
            src = e["key"].to_numpy(dtype=np.int64)
            nbp = _pri(e["nb"].to_numpy(dtype=np.int64))
            nbi = e["nb"].to_numpy(dtype=np.int64)
            # per-src lexicographic min of (neighbor pri, neighbor id)
            order = np.lexsort((nbi, nbp, src))
            s_src = src[order]
            first = np.ones(len(s_src), dtype=bool)
            first[1:] = s_src[1:] != s_src[:-1]
            min_src = s_src[first]
            min_pri = nbp[order][first]
            min_id = nbi[order][first]
            lookup = {int(s): (p, i) for s, p, i in
                      zip(min_src, min_pri, min_id)}
        else:
            lookup = {}
        keep = []
        for nid, p in zip(own, own_pri):
            m = lookup.get(int(nid))
            if m is None or (p, nid) < m:
                keep.append(nid)
        return pd.DataFrame({"node": np.array(keep, dtype=np.int64)})

    mis_parts = []
    live_nodes, live_edges = nodes, edges
    for _ in range(max_rounds):
        if live_nodes.count() == 0:
            if not mis_parts:  # empty graph: typed empty result
                return rd.from_pandas(
                    pd.DataFrame({"node": pd.Series([], dtype="int64")}))
            out = mis_parts[0]
            for p in mis_parts[1:]:
                out = out.union(p)
            return out
        # repartition BEFORE each materialize: union+groupby rounds
        # compound the block count and the per-round sort overhead of
        # hundreds of near-empty blocks dwarfs the data (the k_core
        # lesson; measured 5.6 s -> 228 s/round here without it)
        winners = (
            live_nodes.map_batches(_tag_node, batch_format="pandas")
            .union(live_edges.map_batches(_tag_edge,
                                          batch_format="pandas"))
            .groupby("_cbucket")
            .map_groups(_winners, batch_format="pandas")
        ).repartition(8).materialize()
        mis_parts.append(winners)
        removed = winners.union(
            semi_join_keys(
                live_edges, winners, on="a", keys_on="node",
                num_buckets=num_buckets, left_cols=["a", "b"]
            ).map_batches(
                lambda df: pd.DataFrame(
                    {"node": df["b"].to_numpy()
                     if "b" in df.columns and len(df)
                     else np.empty(0, dtype=np.int64)}).astype(
                    {"node": "int64"}),
                batch_format="pandas")
        )
        def _int_ab(df: pd.DataFrame) -> pd.DataFrame:
            # semi_join_keys' null-filled key rows upcast a/b to
            # float64 in surviving blocks; coarse_bucket hashes float
            # and int DIFFERENTLY, so the next keyed pass would never
            # co-locate — normalize back to int64 between filters
            return pd.DataFrame({
                "a": df["a"].to_numpy(dtype=np.int64),
                "b": df["b"].to_numpy(dtype=np.int64),
            }) if len(df) and "a" in df.columns else pd.DataFrame({
                "a": np.empty(0, dtype=np.int64),
                "b": np.empty(0, dtype=np.int64)})

        live_nodes = semi_join_keys(
            live_nodes, removed, on="node", keys_on="node", anti=True,
            num_buckets=num_buckets, left_cols=["node"]).map_batches(
            lambda df: pd.DataFrame(
                {"node": df["node"].to_numpy(dtype=np.int64)
                 if len(df) and "node" in df.columns
                 else np.empty(0, dtype=np.int64)}),
            batch_format="pandas").repartition(8).materialize()
        live_edges = semi_join_keys(
            semi_join_keys(live_edges, live_nodes, on="a",
                           keys_on="node", num_buckets=num_buckets,
                           left_cols=["a", "b"]).map_batches(
                _int_ab, batch_format="pandas"),
            live_nodes, on="b", keys_on="node",
            num_buckets=num_buckets,
            left_cols=["a", "b"]).map_batches(
            _int_ab, batch_format="pandas").repartition(8).materialize()
    raise RuntimeError(
        f"maximal_independent_set did not converge in {max_rounds} "
        f"rounds; raise max_rounds")
