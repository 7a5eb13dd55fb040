"""Graph analytics over link-sets: degrees and PageRank.

Every wide step is one ``core.exchange`` keyed shuffle: degrees are a
per-batch partial count + one exchange merge; PageRank is the same
tagged working-set pattern as ops.dedup.cluster_pairs_ds — node rows
and edge rows exchanged on the node key, one fused exchange per
iteration (contributions are emitted with the just-updated ranks),
scalar-only convergence signals on the driver. Joins of two Datasets
(degree attach, semi-filters, peeling) are two-input exchanges.

PageRank semantics (fixed, deterministic): damping d, uniform
teleport, dangling mass redistributed uniformly each iteration —
identical to the dense reference iteration in tests/test_graph.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import bucketed_group_apply, distinct_rows, exchange

# string-keyed working sets of the iterative operators
_PR_WORK = pa.schema({"key": pa.string(), "kind": pa.int8(),
                      "other": pa.string(), "val": pa.float64()})
_LABEL_WORK = pa.schema({"key": pa.string(), "kind": pa.int8(),
                         "a": pa.string(), "c": pa.int8()})


def _int64_schema(names):
    return pa.schema([(c, pa.int64()) for c in names])


def _distinct_nodes(edges, cols, num_buckets):
    """Distinct int64 ``node`` rows over the endpoint ``cols``."""

    def _ends(df: pd.DataFrame) -> pd.DataFrame:
        ends = (np.concatenate([df[c].to_numpy() for c in cols])
                if len(df) else np.empty(0, dtype=np.int64))
        return pd.DataFrame({"node": np.unique(ends).astype(np.int64)})

    return distinct_rows(edges.map_batches(_ends, batch_format="pandas"),
                         ["node"], _int64_schema(["node"]), num_buckets)


def out_degrees(links_ds, num_buckets=64):
    """(origin, out_degree) for every origin — per-batch partial
    counts merged in a coarse-bucket shuffle (origins are near-unique
    keys)."""

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("origin", as_index=False).agg(
            out_degree=("rel", "size"))

    def _merge(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.groupby("origin", as_index=False).agg(
            out_degree=("out_degree", "sum")
        )

    return exchange(
        links_ds.map_batches(_partial, batch_format="pandas"), "origin",
        _merge, pa.schema({"origin": pa.string(), "out_degree": pa.int64()}),
        num_buckets)


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

    work = exchange(work, "key", _collapse, _PR_WORK,
                    num_buckets).materialize()
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

        work = exchange(work, "key", _step, _PR_WORK,
                        num_buckets).materialize()
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
    import pyarrow.compute as pc
    import ray.data as rd

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

    work = links_ds.map_batches(_edges, batch_format="pyarrow").map_batches(
        _init, batch_format="pandas"
    )
    converged = False
    for it in range(max_iters):
        work = exchange(work, "key", _step, _LABEL_WORK,
                        num_buckets).materialize()
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
    return distinct_rows(
        out, ["origin", "cls"],
        pa.schema({"origin": pa.string(), "cls": pa.string()}), num_buckets)


def triangle_count(edges_ds, u="u", v="v", num_buckets=64):
    """EXACT triangle count of an undirected simple graph given as
    canonical edges (``u < v``, distinct). Node-iterator algorithm,
    fully distributed:

    1. edges group by their smaller endpoint; each group emits the
       wedges (x, y), x < y, over its neighbor set — every triangle
       a < b < c is generated exactly once (center a);
    2. wedges semi-join the edge set on (x, y) via one keyed
       exchange; the match count is the triangle count.

    Wedge volume is sum-over-centers C(deg_min, 2) where deg_min
    counts only HIGHER-numbered neighbors — the canonical u < v
    orientation is the standard degree-splitting trick that keeps hub
    nodes from exploding (a hub's wedges are spread across the nodes
    below it). For adversarial skew, pre-renumber nodes by ascending
    degree so hubs sit highest and generate no wedges.

    Returns a one-row pandas DataFrame ``(n_triangles,)`` — the
    per-bucket match counts (<= ``num_buckets`` rows) merge on the
    driver."""
    uv = _uv_schema(u, v)
    wedges = bucketed_group_apply(
        edges_ds, [u], _wedges_of(u, v), uv, num_buckets, min_group_size=2)

    # count wedges that are themselves edges: a two-input exchange on
    # the (u, v) pair, per-bucket set membership, small-sum finish
    matched = exchange(
        [edges_ds.select_columns([u, v]), wedges], [u, v], _count_matches(u, v),
        pa.schema({"n": pa.int64()}), num_buckets)

    # final merge is driver-side on purpose: <= num_buckets count rows,
    # and a triangle-free graph leaves EVERY block empty — a
    # repartition(1) + map_batches finisher would then see zero input
    # blocks and emit nothing instead of the required single 0 row
    counts = matched.to_pandas()
    total = int(counts["n"].sum()) if "n" in counts.columns else 0
    return pd.DataFrame({"n_triangles": [np.int64(total)]})


def _uv_schema(u, v):
    """Edge/wedge schema: the two endpoint columns, typed from input."""
    return lambda sch: pa.schema([sch.field(u), sch.field(v)])


def _wedges_of(u, v):
    """Per-center wedge emitter: the (x, y), x < y, pairs over one
    group's sorted ``v`` neighbor set."""

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        nb = np.sort(group[v].to_numpy())
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({u: nb[ia], v: nb[ib]})

    return _wedges


def _count_matches(u, v):
    """Per-bucket count of wedges (second input) that are edges
    (first input)."""

    def _match(e: pd.DataFrame, w: pd.DataFrame) -> pd.DataFrame:
        if not len(e) or not len(w):
            return None
        ekeys = pd.MultiIndex.from_frame(e[[u, v]])
        wkeys = pd.MultiIndex.from_frame(w[[u, v]])
        return pd.DataFrame({"n": [int(wkeys.isin(ekeys).sum())]})

    return _match


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

    m = distinct_rows(
        mentions_ds.map_batches(
            lambda df: df[[id_col, entity_col]], batch_format="pandas"),
        [id_col, entity_col], lambda sch: sch, num_buckets)

    ent_df = grouped_agg_small(
        m, [entity_col], {"n_docs": (id_col, "size")}).to_pandas()
    ent_ref = ray.put(dict(zip(ent_df[entity_col], ent_df["n_docs"])))

    def _pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out = [], []
        for _, g in bucket.groupby(id_col):
            ents = sorted(g[entity_col].unique())
            for i in range(len(ents)):
                for j in range(i + 1, len(ents)):
                    a_out.append(ents[i])
                    b_out.append(ents[j])
        out = pd.DataFrame({"entity_a": a_out, "entity_b": b_out})
        # partial count within this doc bucket (combiner)
        return out.groupby(["entity_a", "entity_b"], as_index=False).agg(
            n=("entity_a", "size"))

    def _finalize(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby(["entity_a", "entity_b"], as_index=False).agg(
            n_docs=("n", "sum"))
        out = out[out["n_docs"] >= min_count]
        ent = ray.get(ent_ref)
        na = out["entity_a"].map(ent).to_numpy(dtype=np.float64)
        nb = out["entity_b"].map(ent).to_numpy(dtype=np.float64)
        return out.assign(pmi=np.log(
            out["n_docs"].to_numpy(dtype=np.float64)
            * float(total_docs) / (na * nb)))

    def _ent_pair(extra):
        return lambda sch: pa.schema(
            [("entity_a", sch.field(entity_col).type),
             ("entity_b", sch.field(entity_col).type)] + extra)

    pairs = exchange(m, id_col, _pairs, _ent_pair([("n", pa.int64())]),
                     num_buckets)
    return exchange(
        pairs, ["entity_a", "entity_b"], _finalize,
        lambda sch: pa.schema([sch.field("entity_a"), sch.field("entity_b"),
                               ("n_docs", pa.int64()), ("pmi", pa.float64())]),
        num_buckets)


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
    import pyarrow.compute as pc
    import ray.data as rd

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
        work = exchange(work, "key", _hop, seed_tbl.schema,
                        num_buckets).materialize()
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
    with ONE two-input exchange per resolution round
    (two rounds: initial draw, then only the collision rows).
    Returns ``(origin, rel, target, neg_i, neg_entity)``.
    """
    import hashlib

    import pyarrow.compute as pc
    import ray

    from .agg import zip_with_index

    rel_set = None if rels is None else sorted({str(r) for r in rels})

    def _ents(tbl: pa.Table) -> pa.Table:
        return pa.table({"entity": tbl["origin"]})

    ents = distinct_rows(
        links_ds.map_batches(_ents, batch_format="pyarrow"),
        ["entity"], pa.schema({"entity": pa.string()}), num_buckets)
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

    resolved = pa.schema({"origin": pa.string(), "rel": pa.string(),
                          "target": pa.string(), "neg_i": pa.int64(),
                          "raw": pa.int64(), "ix": pa.int64(),
                          "_ent": pa.string()})

    def _join(smp: pd.DataFrame, ent: pd.DataFrame) -> pd.DataFrame:
        if not len(smp):
            return None
        if not len(ent):
            return smp.assign(_ent=None)
        ent = ent.rename(columns={"_index": "ix", "entity": "_ent"})
        return smp.merge(ent[["ix", "_ent"]], on="ix", how="left")

    def _resolve(samples):
        """Attach indexed.entity at samples.ix via one two-input
        exchange keyed on the rank."""
        return exchange([samples, indexed], [["ix"], ["_index"]], _join,
                        resolved, num_buckets)

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
    degrees merge on node-keyed exchanges, and one final two-input
    exchange divides. Returns ``(node, degree, triangles,
    cc)`` rows — every node incident to an edge appears."""

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        nb = np.sort(group[v].to_numpy())
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({
            "c": np.full(len(ia), group[u].iloc[0], dtype=np.int64),
            u: nb[ia], v: nb[ib]})

    wedges = bucketed_group_apply(
        edges_ds, [u], _wedges,
        lambda sch: pa.schema([("c", pa.int64()), sch.field(u), sch.field(v)]),
        num_buckets, min_group_size=2)

    def _match(e: pd.DataFrame, w: pd.DataFrame) -> pd.DataFrame:
        if not len(e) or not len(w):
            return None
        ekeys = pd.MultiIndex.from_frame(e[[u, v]])
        wkeys = pd.MultiIndex.from_frame(w[[u, v]])
        hit = w[wkeys.isin(ekeys)]
        # each matched wedge (c, x, y) is the triangle {c, x, y}:
        # credit all three corners
        nodes = np.concatenate([hit["c"].to_numpy(),
                                hit[u].to_numpy(), hit[v].to_numpy()])
        un, cn = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un, "t": cn})

    node_t = pa.schema({"node": pa.int64(), "t": pa.int64()})
    tri_partial = exchange(
        [edges_ds.select_columns([u, v]), wedges], [u, v], _match, node_t,
        num_buckets)

    def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate([df[u].to_numpy(), df[v].to_numpy()]) \
            if len(df) else np.empty(0, dtype=np.int64)
        un, cn = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "d": cn.astype(np.int64)})

    def _finalize(deg: pd.DataFrame, tri: pd.DataFrame) -> pd.DataFrame:
        if not len(deg):
            return None
        rows = deg.assign(t=0)
        if len(tri):
            rows = pd.concat([rows, tri.assign(d=0)], ignore_index=True)
        g = rows.groupby("node", as_index=False, sort=False).agg(
            triangles=("t", "sum"), degree=("d", "sum"))
        d = g["degree"].to_numpy(dtype=np.float64)
        t = g["triangles"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            cc = np.where(d >= 2, 2.0 * t / (d * np.maximum(d - 1, 1)), 0.0)
        return g.assign(cc=cc)

    return exchange(
        [edges_ds.map_batches(_deg_partial, batch_format="pandas"),
         tri_partial], "node", _finalize,
        pa.schema({"node": pa.int64(), "degree": pa.int64(),
                   "triangles": pa.int64(), "cc": pa.float64()}),
        num_buckets)


def k_core(edges_ds, k, max_rounds=50, num_buckets=64):
    """Nodes of the ``k``-core: the maximal subgraph where every node
    has degree >= k (undirected simple graph as canonical ``u < v``
    distinct edges). Iterative peeling, fully distributed: each round
    recomputes degrees of the SURVIVING subgraph (one node-keyed
    exchange over edge endpoints), drops nodes below k, and filters
    edges incident to dropped nodes (an exchange keyed on each
    endpoint). The driver sees one dropped-count scalar
    per round; converged = a round that drops nothing. Raises if
    ``max_rounds`` rounds still dropped nodes — a silently truncated
    peel is NOT the k-core (it may keep nodes the next round would
    drop). Returns a Dataset of ``(node,)`` rows."""
    node = pa.schema({"node": pa.int64()})
    uv = pa.schema({"u": pa.int64(), "v": pa.int64()})

    def _ends(df: pd.DataFrame) -> pd.DataFrame:
        nodes = (np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()])
                 if len(df) else np.empty(0, dtype=np.int64))
        un, cn = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "d": cn.astype(np.int64)})

    def _drop(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("node", as_index=False, sort=False)["d"].sum()
        return g.loc[g["d"] < k, ["node"]]

    def _keep_off(end):
        def _keep(e: pd.DataFrame, bad: pd.DataFrame) -> pd.DataFrame:
            if not len(e) or not len(bad):
                return e
            return e[~e[end].isin(set(bad["node"]))]

        return _keep

    # materialize once: every peel round reads `edges` 2-3x, and a lazy
    # input would re-execute its whole upstream (edge projection,
    # m>=N reductions) each time
    edges = edges_ds.materialize()
    for _ in range(max_rounds):
        dropped = exchange(
            edges.map_batches(_ends, batch_format="pandas"), "node", _drop,
            node, num_buckets,
        ).repartition(8).materialize()
        n_dropped = int(dropped.count())
        if n_dropped == 0:
            break

        # filter edges touching a dropped node: an edge survives only
        # if BOTH endpoint checks pass — two chained semi-filters, each
        # one exchange keyed on that endpoint
        for end in ("u", "v"):
            edges = exchange([edges, dropped], [[end], ["node"]],
                             _keep_off(end), uv, num_buckets)
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

    return _distinct_nodes(edges, ["u", "v"], num_buckets)


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
    all-pairs. Common counts merge on a pair-keyed exchange, degrees
    on a node-keyed one, and two slim two-input exchanges attach
    endpoint degrees (the pair table never ships whole-graph state). ``|N(a) | N(b)| = deg(a) + deg(b) - common``.

    Wedge fan-out is quadratic in the center's degree; ``max_degree``
    (optional) skips hub centers, which makes the result a documented
    UNDERCOUNT of common neighbors through skipped hubs — leave it
    None for exact. Returns ``(u, v, common, jaccard)`` for pairs
    with ``jaccard >= min_sim``."""

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
        nb = np.unique(group["b"].to_numpy())
        if max_degree is not None and len(nb) > max_degree:
            return None
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({"x": nb[ia], "y": nb[ib]})

    pairs = bucketed_group_apply(
        adj, ["a"], _wedges, _int64_schema(["x", "y"]), num_buckets,
        min_group_size=2)

    def _pcount(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["x", "y"], as_index=False, sort=False).size()
        return out.rename(columns={"size": "common"})

    common = exchange(pairs, ["x", "y"], _pcount,
                      _int64_schema(["x", "y", "common"]), num_buckets)
    deg = _node_degrees(adj, "a", num_buckets)
    with_dx = _attach_degree(common, ["x", "y", "common"], deg, "x", "dx",
                             num_buckets)
    with_dy = _attach_degree(with_dx, ["x", "y", "common", "dx"], deg, "y",
                             "dy", num_buckets)

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


def _node_degrees(adj, col, num_buckets):
    """Materialized ``(node, d)`` degrees from bidirectional adjacency
    rows (one row per edge orientation, source node in ``col``)."""

    def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        un, cn = (np.unique(df[col].to_numpy(), return_counts=True)
                  if len(df) else (np.empty(0, dtype=np.int64),) * 2)
        return pd.DataFrame({"node": un.astype(np.int64),
                             "d": cn.astype(np.int64)})

    def _dsum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", as_index=False, sort=False)["d"].sum()

    return exchange(adj.map_batches(_deg_partial, batch_format="pandas"),
                    "node", _dsum, _int64_schema(["node", "d"]),
                    num_buckets).materialize()


def _attach_degree(pairs, cols, deg, end_col, out_col, num_buckets):
    """``pairs`` (int64 ``cols``) plus ``out_col`` = the degree of the
    ``end_col`` endpoint, via one two-input exchange on that node."""

    def _join(p: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            return None
        # every pair endpoint has >= 1 edge, so the lookup always hits
        return p.assign(**{out_col: _node_values(p, end_col, d, "d")})

    return exchange(
        [pairs, deg], [[end_col], ["node"]], _join,
        _int64_schema(cols + [out_col]), num_buckets)


def degree_assortativity(edges_ds, u="u", v="v"):
    """Degree assortativity coefficient of an undirected simple graph
    (canonical ``u < v`` distinct edges): the Pearson correlation of
    endpoint degrees over the edge list with each edge counted in
    BOTH orientations (Newman 2002's r). One node-keyed exchange
    for degrees, two slim two-input exchanges to annotate edges,
    then six scalar moments reduce to the driver — nothing
    edge-cardinality ever materializes driver-side. Returns a
    one-row ``(assortativity,)`` Dataset; NaN on degenerate graphs
    (all degrees equal)."""
    import math

    import ray.data as rd

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "x": np.concatenate([df[u].to_numpy(),
                                 df[v].to_numpy()]).astype(np.int64),
            "y": np.concatenate([df[v].to_numpy(),
                                 df[u].to_numpy()]).astype(np.int64)})

    # bidirectional edges as (x, y) pair rows, so the degree attach
    # below is neighborhood_jaccard's
    bidir = edges_ds.map_batches(_bidir, batch_format="pandas").materialize()
    deg = _node_degrees(bidir, "x", 64)
    with_dx = _attach_degree(bidir, ["x", "y"], deg, "x", "dx", 64)
    with_dy = _attach_degree(with_dx, ["x", "y", "dx"], deg, "y", "dy", 64)

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
    round is two keyed exchanges — one keyed on the NEIGHBOR
    endpoint to annotate adjacency rows with the neighbor's current
    label (with per-bucket partial (node, label) counts so only
    count rows ride the second shuffle), one keyed on the node for
    the global count merge + argmax. Nothing graph-sized touches the
    driver. Returns ``(node, label)`` rows for every node incident
    to an edge."""

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
    labels = _seed_nodes(adj, ["a"], "label", None, num_buckets)

    def _annotate(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        if not len(e):
            return None
        out = pd.DataFrame({"node": e["a"].to_numpy(dtype=np.int64),
                            "label": _node_values(e, "b", lab, "label")})
        # partial counts: only (node, label, c) rows ride the second
        # shuffle, not raw adjacency
        return out.groupby(["node", "label"], as_index=False,
                           sort=False).size().rename(columns={"size": "c"})

    def _argmax(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["node", "label"], as_index=False, sort=False)["c"].sum()
        s = s.sort_values(["node", "c", "label"],
                          ascending=[True, False, True])
        return s.drop_duplicates("node")

    for _ in range(n_rounds):
        counts = exchange([adj, labels], [["b"], ["node"]], _annotate,
                          _int64_schema(["node", "label", "c"]), num_buckets)
        # repartition bounds per-round block growth (two exchanges
        # compound sort-output blocks; see k_core)
        labels = exchange(
            counts, "node", _argmax, _int64_schema(["node", "label"]),
            num_buckets).repartition(num_buckets).materialize()

    return labels


def _node_values(rows, key_col, vals, val_col):
    """int64 ``vals[val_col]`` at each row's ``key_col`` node (``vals``
    is keyed by ``node``). Every key must hit: a miss means keys that
    should co-locate did not, so it fails loud."""
    m = pd.Series(vals[val_col].to_numpy() if len(vals) else [],
                  index=vals["node"].to_numpy() if len(vals) else [],
                  dtype="int64")
    got = m.reindex(rows[key_col].to_numpy())
    if got.isna().any():
        raise AssertionError(f"{val_col} lookup missed a node")
    return got.to_numpy(dtype=np.int64)


def _seed_nodes(edges, cols, val_col, val, num_buckets):
    """Materialized distinct ``(node, val_col)`` over the int endpoint
    ``cols`` of ``edges``; ``val_col`` starts at ``val``, or at the
    node id itself when ``val`` is None."""

    def _seed(df: pd.DataFrame) -> pd.DataFrame:
        if "node" not in df.columns:  # schema-less empty block
            return df
        return df.assign(**{val_col: df["node"] if val is None
                            else np.int64(val)})

    return _distinct_nodes(edges, cols, num_buckets).map_batches(
        _seed, batch_format="pandas").materialize()


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
    half-round is the same two keyed exchanges as
    label_propagation — a two-input exchange keyed on the score-side
    endpoint annotates edges with current scores and emits per-bucket
    PARTIAL sums (only (node, s) partials ride the second shuffle),
    then a node-keyed merge sums exactly. A per-round scalar max
    check raises on int64 overflow risk (scores grow ~ degree^(2r))
    instead of wrapping silently.

    Returns ``(node, hub, auth)`` for every node incident to an
    edge; a node with no in-edges has auth 0, no out-edges hub 0.
    """

    def _edges(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "a": df[u].to_numpy().astype(np.int64),
            "b": df[v].to_numpy().astype(np.int64)})

    edges = edges_ds.map_batches(_edges, batch_format="pandas").materialize()
    nodes = _seed_nodes(edges, ["a", "b"], "s", 1, num_buckets)
    node_s = _int64_schema(["node", "s"])

    def _sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", as_index=False, sort=False)["s"].sum()

    def _half_round(scores, score_end, out_end):
        """out(out_end) = sum of scores(score_end) over edges."""

        def _annotate(e: pd.DataFrame, sc: pd.DataFrame) -> pd.DataFrame:
            if not len(e):
                return None
            # partial sums: only (node, s) partials ride the second
            # shuffle, not annotated adjacency
            return _sum(pd.DataFrame({
                "node": e[out_end].to_numpy(dtype=np.int64),
                "s": _node_values(e, score_end, sc, "s")}))

        partial = exchange([edges, scores], [[score_end], ["node"]],
                           _annotate, node_s, num_buckets)
        # repartition bounds per-round block growth (see k_core)
        return exchange(partial, "node", _sum, node_s,
                        num_buckets).repartition(num_buckets).materialize()

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

    # outer-merge hub/auth/node tables on one node-keyed exchange;
    # nodes with no out-edges (in-edges) get hub (auth) 0
    def _final(base: pd.DataFrame, h: pd.DataFrame,
               a: pd.DataFrame) -> pd.DataFrame:
        if not len(base):
            return None
        idx = base["node"].drop_duplicates().to_numpy(dtype=np.int64)

        def _at(sc):
            if not len(sc):
                return np.zeros(len(idx), dtype=np.int64)
            return (sc.set_index("node")["s"].reindex(idx).fillna(0)
                    .to_numpy(dtype=np.int64))

        return pd.DataFrame({"node": idx, "hub": _at(h), "auth": _at(a)})

    return exchange([nodes, hub, auth], "node", _final,
                    _int64_schema(["node", "hub", "auth"]), num_buckets)


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

    Two two-input exchanges (origin-keyed type attach, then
    target-keyed), partial counts inside the second exchange's
    buckets, and a small rollup — only (rel, type, type, n) partials
    leave the joins, never annotated link rows.

    Returns ``(rel, origin_type, target_type, n)``.
    """
    from ..core import VTYPE_REL
    from .agg import grouped_agg_small

    type_rel = str(type_rel or VTYPE_REL)

    def _typed(df: pd.DataFrame) -> pd.DataFrame:
        t = df[df["rel"] == type_rel]
        return pd.DataFrame({"key": t["origin"].to_numpy(object),
                             "t": t["target"].to_numpy(object)})

    typed = links_ds.map_batches(_typed, batch_format="pandas").materialize()

    def _links(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["rel"] != type_rel]
        return pd.DataFrame({
            "rel": l["rel"].to_numpy(object),
            "key": l["origin"].to_numpy(object),
            "extra": l["target"].to_numpy(object),
            "iri": l["target_is_iri"].to_numpy(bool)})

    def _attach_origin(links: pd.DataFrame, ty: pd.DataFrame) -> pd.DataFrame:
        if not len(links):
            return None
        m = (links.merge(ty, on="key", how="left") if len(ty)
             else links.assign(t=None))
        # target becomes the next join key; origin type rides along
        return pd.DataFrame({
            "rel": m["rel"].to_numpy(object),
            "key": m["extra"].to_numpy(object),
            "iri": m["iri"].to_numpy(bool),
            "otype": m["t"].fillna(untyped).to_numpy(object)})

    annotated = exchange(
        [links_ds.map_batches(_links, batch_format="pandas"), typed], "key",
        _attach_origin,
        pa.schema({"rel": pa.string(), "key": pa.string(),
                   "iri": pa.bool_(), "otype": pa.string()}), num_buckets)

    def _spread(df: pd.DataFrame) -> pd.DataFrame:
        # literal targets need no type lookup — spread them uniformly
        # instead of keying on the literal value (a hot literal like a
        # 5-value segment column would concentrate one bucket)
        key = df["key"].astype(object).to_numpy(copy=True)
        lit = ~df["iri"].to_numpy(bool)
        key[lit] = "\x00" + np.arange(len(df))[lit].astype(str).astype(object)
        return df.assign(_k=key)

    def _attach_target(links: pd.DataFrame, ty: pd.DataFrame) -> pd.DataFrame:
        if not len(links):
            return None
        lit = links[~links["iri"]].assign(t=literal)
        ir = links[links["iri"]]
        ir = (ir.merge(ty, on="key", how="left") if len(ty)
              else ir.assign(t=None))
        ir["t"] = ir["t"].fillna(untyped)
        both = pd.concat([lit, ir], ignore_index=True)
        # partial counts: only (rel, otype, ttype, n) leaves the bucket
        out = (both.groupby(["rel", "otype", "t"], as_index=False,
                            sort=False).size())
        out.columns = ["rel", "origin_type", "target_type", "n"]
        return out

    partials = exchange(
        [annotated.map_batches(_spread, batch_format="pandas"), typed],
        [["_k"], ["key"]], _attach_target,
        pa.schema({"rel": pa.string(), "origin_type": pa.string(),
                   "target_type": pa.string(), "n": pa.int64()}),
        num_buckets)
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
    one src-keyed exchange, materialized once) re-joins the frontier
    in ONE two-input exchange per step —
    the same per-round cost family as pagerank/bfs_depths; the
    frontier is seeds-sized and the md5 draws are one digest per
    live walk per step. Returns ``(walk_id, step, node)`` with step 0
    = the seed itself.
    """
    import hashlib

    def _adj(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([src_col, dst_col]).sort_values(
            [src_col, dst_col], ignore_index=True)
        g["rnk"] = g.groupby(src_col, sort=False).cumcount()
        g["deg"] = g.groupby(src_col, sort=False)[dst_col].transform("size")
        return g

    # one src-keyed exchange dedups the edges AND ranks each src's
    # adjacency (every copy of an edge shares its src bucket)
    adj = exchange(
        edges.select_columns([src_col, dst_col]), src_col, _adj,
        lambda sch: sch.append(pa.field("rnk", pa.int64())).append(
            pa.field("deg", pa.int64())),
        num_buckets).materialize()

    def _seeds(df: pd.DataFrame) -> pd.DataFrame:
        u = df[[src_col]].drop_duplicates()
        return pd.DataFrame({"walk_id": u[src_col].to_numpy(),
                             "node": u[src_col].to_numpy()})

    node_t = adj.schema().base_schema.field(src_col).type
    walk = pa.schema([("walk_id", node_t), ("node", node_t)])
    frontier = distinct_rows(
        adj.map_batches(_seeds, batch_format="pandas"), ["walk_id"], walk,
        num_buckets).materialize()

    outs = [frontier]
    for k in range(walk_len):
        def _step(a: pd.DataFrame, f: pd.DataFrame, _k=k) -> pd.DataFrame:
            if not len(a) or not len(f):
                return None
            draws = np.array([
                int(hashlib.md5(f"{w}|{_k}".encode()).hexdigest()[:15], 16)
                for w in f["walk_id"]], dtype="int64")
            deg = a.groupby(src_col, sort=False)["deg"].first()
            fd = f.assign(_draw=draws).merge(
                deg.rename("deg_"), left_on="node", right_index=True,
                how="inner")
            fd["want_rnk"] = fd["_draw"] % fd["deg_"]
            hit = fd[["walk_id", "node", "want_rnk"]].merge(
                a[[src_col, "rnk", dst_col]],
                left_on=["node", "want_rnk"], right_on=[src_col, "rnk"],
                how="inner")
            return pd.DataFrame({"walk_id": hit["walk_id"].to_numpy(),
                                 "node": hit[dst_col].to_numpy()})

        stepped = exchange([adj, frontier], [[src_col], ["node"]], _step,
                           walk, num_buckets).materialize()
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
       the bidirectional adjacency groups by center z (one keyed
       exchange), each group emits its neighbor pairs (x < y) carrying
       the partial ``10**9 // deg(z)``;
    2. one two-input exchange on the pair key merges
       wedge partials (count = cn, sum = ra_e9) and drops pairs that
       are already edges in the same pass.

    ``max_degree``: optional hub cap — centers with more than this many
    neighbors emit no wedges. Documented UNDERCOUNT knob for power-law
    graphs (same contract as neighborhood_jaccard); leave None for
    exact results. Wedge volume is sum-over-centers C(deg, 2).

    Returns a Dataset ``(u, v, cn, ra_e9)`` with ``cn >= min_cn``.
    """

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "_c": np.concatenate([df[u].to_numpy(), df[v].to_numpy()]),
            "_n": np.concatenate([df[v].to_numpy(), df[u].to_numpy()]),
        })

    adj = edges_ds.map_batches(_bidir, batch_format="pandas")

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        nb = np.unique(group["_n"].to_numpy())
        d = len(nb)
        if max_degree is not None and d > max_degree:
            return None
        ia, ib = np.triu_indices(d, k=1)
        return pd.DataFrame({
            u: nb[ia], v: nb[ib],
            "_ra": np.full(len(ia), 10**9 // d, dtype=np.int64)})

    wedges = bucketed_group_apply(
        adj, ["_c"], _wedges,
        lambda sch: pa.schema([(u, sch.field("_n").type),
                               (v, sch.field("_n").type),
                               ("_ra", pa.int64())]),
        num_buckets, min_group_size=2)

    def _score(e: pd.DataFrame, wd: pd.DataFrame) -> pd.DataFrame:
        if not len(wd):
            return None
        g = wd.groupby([u, v], as_index=False, sort=False).agg(
            cn=("_ra", "size"), ra_e9=("_ra", "sum"))
        if len(e):
            ekeys = pd.MultiIndex.from_frame(e[[u, v]])
            gkeys = pd.MultiIndex.from_frame(g[[u, v]])
            g = g[~gkeys.isin(ekeys)]
        return g[g["cn"] >= min_cn]

    return exchange(
        [edges_ds.select_columns([u, v]), wedges], [u, v], _score,
        _int64_schema([u, v, "cn", "ra_e9"]), num_buckets)


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
    import ray.data as rd

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
        work = exchange(work, "key", _relax, seed_tbl.schema,
                        num_buckets).materialize()
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
    return distinct_rows(
        out, ["node", "cls"],
        pa.schema({"node": pa.string(), "cls": pa.string()}), num_buckets)


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
    import ray.data as rd

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
        work = exchange(work, "key", _hop, lambda sch: sch,
                        num_buckets).materialize()
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
    ``multi_source_bfs`` traversal plus a node-keyed exchange
    rollup."""
    depths = multi_source_bfs(
        edges_ds, seeds, max_iters=max_iters, num_buckets=num_buckets,
        src=src, dst=dst)
    return _depth_rollup(depths, num_buckets)


def _depth_rollup(depths, num_buckets):
    """``(node, n_reached, sum_depth)`` over ``(node, seed, depth)``
    rows, on one node-keyed exchange."""

    def _roll(bucket: pd.DataFrame) -> pd.DataFrame:
        return bucket.groupby("node", as_index=False, sort=False).agg(
            n_reached=("seed", "size"), sum_depth=("depth", "sum"))

    return exchange(
        depths, "node", _roll,
        lambda sch: pa.schema([sch.field("node"), ("n_reached", pa.int64()),
                               ("sum_depth", pa.int64())]), num_buckets)


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
    one fused keyed exchange per round over tagged (label / edge /
    token) rows, one improved-count scalar to the driver.
    Round counts are graph-shaped: a min label crosses one edge per
    round, so long cycles / deep DAG chains cost rounds — the
    documented mitigation is the same as WCC's (this op targets
    KG-typical shallow graphs; both budgets RAISE rather than return
    a silently wrong partition). Worst-case outer rounds = the number
    of distinct SCC "levels" along the condensation's minimum chain.
    """
    node_s = _int64_schema(["node"])

    def _proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": df[src].to_numpy().astype(np.int64),
            "dst": df[dst].to_numpy().astype(np.int64)})

    edges = edges_ds.map_batches(_proj, batch_format="pandas").materialize()

    nodes = _distinct_nodes(edges, ["src", "dst"], num_buckets).materialize()

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
        work_schema = pa.schema({"key": pa.int64(), "kind": pa.int8(),
                                 "other": pa.int64(), "c": pa.int64()})

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
            work = exchange(work, "key", _relax, work_schema,
                            num_buckets).materialize()
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

        # F == B intersect: one node-keyed exchange
        def _match(f: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
            if not len(f) or not len(b):
                return None
            m = f.merge(b, on="node", suffixes=("_f", "_b"))
            hit = m[m["c_f"] == m["c_b"]]
            return pd.DataFrame({"node": hit["node"].to_numpy(),
                                 "comp": hit["c_f"].to_numpy()})

        newly = exchange(
            [fwd, bwd], "node", _match, _int64_schema(["node", "comp"]),
            num_buckets).repartition(8).materialize()
        if not newly.count():
            raise RuntimeError(
                "scc made no progress in an outer round — "
                "FB-MIN always assigns the SCC of each locally minimal "
                "node, so this indicates an internal invariant break")
        assigned.append(newly)

        # peel: nodes anti-join newly; edges endpoint-semi-filter newly
        def _survive_on(col):
            def _survive(live: pd.DataFrame, gone: pd.DataFrame):
                if not len(live) or not len(gone):
                    return live
                return live[~live[col].isin(set(gone["node"]))]

            return _survive

        nodes = exchange(
            [nodes, newly], "node", _survive_on("node"), node_s,
            num_buckets).repartition(8).materialize()
        for end in ("src", "dst"):
            edges = exchange([edges, newly], [[end], ["node"]],
                             _survive_on(end), _int64_schema(["src", "dst"]),
                             num_buckets)
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
    attach to edges through two two-input exchanges; only
    (component, count) partials reach the final rollup.

    ``edges_ds``: (src, dst) int64 edges, direction ignored;
    self-loops dropped (they are odd cycles of length 1 — callers
    wanting them flagged should count them separately). Isolated
    nodes never appear (no edges). Returns
    (component, n_nodes, n_edges, odd_edges, is_bipartite) where
    component = min node id, n_edges counts distinct canonical
    undirected edges.
    """
    from .dedup import cluster_pairs_ds

    def _canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].to_numpy(dtype=np.int64)
        b = df[dst].to_numpy(dtype=np.int64)
        m = a != b
        a, b = a[m], b[m]
        return pd.DataFrame({"id_a": np.minimum(a, b),
                             "id_b": np.maximum(a, b)})

    pairs = distinct_rows(
        edges_ds.map_batches(_canon, batch_format="pandas"),
        ["id_a", "id_b"], _int64_schema(["id_a", "id_b"]),
        num_buckets).materialize()

    comp = cluster_pairs_ds(
        pairs, max_iters=max_iters, num_buckets=num_buckets)
    seeds = distinct_rows(
        comp.select_columns(["label"]), ["label"], _int64_schema(["label"]),
        num_buckets,
    ).to_pandas()["label"].astype(np.int64).tolist()

    def _sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df["id_a"].to_numpy(),
                                   df["id_b"].to_numpy()]),
            "dst": np.concatenate([df["id_b"].to_numpy(),
                                   df["id_a"].to_numpy()]),
        })

    # (node, seed = component, depth) rows
    depths = multi_source_bfs(
        pairs.map_batches(_sym, batch_format="pandas"), seeds,
        max_iters=max_iters, num_buckets=num_buckets).materialize()

    def _attach_u(d: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        if not len(e):
            return None
        # every edge endpoint has a depth row by construction
        m = e.merge(d, left_on="id_a", right_on="node", how="left")
        return pd.DataFrame({
            "key": m["id_b"].to_numpy(dtype=np.int64),
            "upar": m["depth"].to_numpy(dtype=np.int64) & 1,
            "comp": m["seed"].to_numpy(dtype=np.int64)})

    # pass 1 re-keys each edge onto its second endpoint with the first
    # endpoint's depth parity; pass 2 compares parities per component
    halves = exchange([depths, pairs], [["node"], ["id_a"]], _attach_u,
                      _int64_schema(["key", "upar", "comp"]), num_buckets)

    def _partials(d: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        outs = []
        if len(d):
            g = d.groupby("seed", sort=False).size()
            outs.append(pd.DataFrame({
                "comp": g.index.to_numpy(), "nodes": g.to_numpy(),
                "edges": 0, "odd": 0}))
        if len(e):
            m = e.merge(d, left_on="key", right_on="node", how="left")
            odd = (m["upar"].to_numpy(dtype=np.int64)
                   == (m["depth"].to_numpy(dtype=np.int64) & 1))
            g = pd.DataFrame({"comp": m["comp"], "odd": odd}).groupby(
                "comp", sort=False).agg(edges=("odd", "size"),
                                        odd=("odd", "sum"))
            outs.append(pd.DataFrame({
                "comp": g.index.to_numpy(), "nodes": 0,
                "edges": g["edges"].to_numpy(), "odd": g["odd"].to_numpy()}))
        return pd.concat(outs, ignore_index=True) if outs else None

    partials = exchange(
        [depths, halves], [["node"], ["key"]], _partials,
        _int64_schema(["comp", "nodes", "edges", "odd"]), num_buckets)

    def _rollup(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("comp", sort=False).agg(
            n_nodes=("nodes", "sum"), n_edges=("edges", "sum"),
            odd_edges=("odd", "sum")).reset_index()
        return g.rename(columns={"comp": "component"}).assign(
            is_bipartite=g["odd_edges"].to_numpy() == 0)

    return exchange(
        partials, "comp", _rollup,
        _int64_schema(["component", "n_nodes", "n_edges", "odd_edges"])
        .append(pa.field("is_bipartite", pa.bool_())), num_buckets)


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
    plus a node-keyed exchange rollup."""
    depths = multi_source_bfs(
        edges_ds, seeds, max_iters=max_iters, num_buckets=num_buckets,
        src=src, dst=dst)

    def _roll(bucket: pd.DataFrame) -> pd.DataFrame:
        d = bucket["depth"].to_numpy(dtype=np.int64)
        term = np.where(d > 0, np.int64(scale) // np.maximum(d, 1), 0)
        return (bucket.assign(_t=term)
                .groupby("node", as_index=False, sort=False)
                .agg(n_reached=("seed", "size"), harmonic_e9=("_t", "sum")))

    return exchange(
        depths, "node", _roll,
        lambda sch: pa.schema([sch.field("node"), ("n_reached", pa.int64()),
                               ("harmonic_e9", pa.int64())]), num_buckets)


def k_truss(edges_ds, k, u="u", v="v", max_rounds=30, num_buckets=64):
    """k-truss decomposition: the maximal subgraph in which every
    edge participates in at least ``k - 2`` triangles — the
    cohesive-community filter one notch stronger than k-core (a
    k-truss is always inside a (k-1)-core but prunes bridge edges
    cores keep). Input: canonical distinct undirected edges
    (``u < v``), the triangle_count contract.

    Iterative distributed peeling, three keyed exchanges per round,
    the k_core discipline:

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
    if k < 3:
        raise ValueError("k_truss needs k >= 3")
    t = k - 2

    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        nb = np.sort(group[v].to_numpy(dtype=np.int64))
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({"x": nb[ia], "y": nb[ib],
                             "c": np.int64(group[u].iloc[0])})

    def _partials(e: pd.DataFrame, w: pd.DataFrame) -> pd.DataFrame:
        if not len(e) or not len(w):
            return None
        ekeys = pd.MultiIndex.from_frame(e[[u, v]])
        wkeys = pd.MultiIndex.from_frame(w[["x", "y"]])
        hit = w[wkeys.isin(ekeys)]
        tri = pd.concat([
            pd.DataFrame({u: hit["x"], v: hit["y"]}),
            pd.DataFrame({u: hit["c"], v: hit["x"]}),
            pd.DataFrame({u: hit["c"], v: hit["y"]}),
        ], ignore_index=True)
        return tri.groupby([u, v], as_index=False, sort=False).size().rename(
            columns={"size": "s"})

    def _keep(base: pd.DataFrame, sup: pd.DataFrame) -> pd.DataFrame:
        if not len(base):
            return None
        if not len(sup):
            return base if t <= 0 else None
        sup = sup.groupby([u, v], as_index=False, sort=False)["s"].sum()
        m = base[[u, v]].merge(sup, on=[u, v], how="left")
        return m[m["s"].fillna(0) >= t]

    uv = _int64_schema([u, v])
    cur = edges_ds.materialize()
    n0 = cur.count()
    for _ in range(max_rounds):
        wedges = bucketed_group_apply(
            cur, [u], _wedges, _int64_schema(["x", "y", "c"]), num_buckets,
            min_group_size=2)
        partials = exchange([cur, wedges], [[u, v], ["x", "y"]], _partials,
                            _int64_schema([u, v, "s"]), num_buckets)
        nxt = exchange([cur, partials], [u, v], _keep, uv,
                       num_buckets).materialize()
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
    winner test is ONE src-keyed exchange (no priority
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
    nodes = _distinct_nodes(edges, ["a"], num_buckets).materialize()

    def _winners(nd: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        if not len(nd):
            return None
        own = nd["node"].to_numpy(dtype=np.int64)
        own_pri = _pri(own)
        if len(e):
            src = e["a"].to_numpy(dtype=np.int64)
            nbp = _pri(e["b"].to_numpy(dtype=np.int64))
            nbi = e["b"].to_numpy(dtype=np.int64)
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
        winners = exchange(
            [live_nodes, live_edges], [["node"], ["a"]], _winners,
            _int64_schema(["node"]), num_buckets,
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
        live_nodes = semi_join_keys(
            live_nodes, removed, on="node", keys_on="node", anti=True,
            num_buckets=num_buckets).repartition(8).materialize()
        live_edges = semi_join_keys(
            semi_join_keys(live_edges, live_nodes, on="a", keys_on="node",
                           num_buckets=num_buckets),
            live_nodes, on="b", keys_on="node",
            num_buckets=num_buckets).repartition(8).materialize()
    raise RuntimeError(
        f"maximal_independent_set did not converge in {max_rounds} "
        f"rounds; raise max_rounds")
