"""JSON-LD binder: nested objects from origin-grouped links
(reference serial/jsonld.py:17-103 semantics), plus the distributed
INLINED form ``bind_ds`` (ref-count shuffle + iterative leaf inlining)
for corpus-scale graphs."""

from __future__ import annotations

from ..core import I, RDF_TYPE_REL, VTYPE_REL, relativize
from ..core.exchange import exchange
from ..model import vutil

__all__ = ["bind", "bind_ds", "write_jsonld_nested_ds"]

_BLANK_PREFIX = "__VERSABLANKNODE__"


def bind(models, context=None, ignore_oftypes=None, type_rel=None):
    """Build JSON-LD-ish nested objects: origin-grouped links become
    objects; IRI targets inline their object the first time and are
    id-refs after; ignored types are pruned; @id-only refs collapse."""
    if not isinstance(models, list):
        models = [models]
    context = context or {}
    ignore_oftypes = ignore_oftypes or []
    vocab = context.get("@vocab")
    type_rels = [type_rel] if type_rel else [RDF_TYPE_REL, VTYPE_REL]

    non_top_ids = set()
    obj_pool = {}
    used_objects = set()

    def _typ_of(m, origin):
        for tr in type_rels:
            t = vutil.simple_lookup(m, origin, tr)
            if t is not None:
                return t
        return None

    for m in models:
        for origin in vutil.all_origins(m):
            typ = _typ_of(m, origin)
            obj, referents = obj_pool.setdefault(origin, ({}, []))
            if vocab and typ:
                typ = relativize(typ, vocab) or typ
            if typ:
                obj["@type"] = str(typ)
            if not origin.startswith(_BLANK_PREFIX):
                obj["@id"] = str(origin)
            for o, r, t, a in m.match(origin):
                if r in type_rels:
                    continue
                if isinstance(t, I) and o != t:
                    if vocab:
                        t = relativize(t, vocab) or t
                    valobj, t_refs = obj_pool.setdefault(t, ({}, []))
                    if t in used_objects:
                        val = str(t)
                    else:
                        val = valobj
                        if not t.startswith(_BLANK_PREFIX) and "@id" not in val:
                            val["@id"] = str(t)
                        used_objects.add(t)
                        non_top_ids.add(t)
                    t_refs.append(o)
                else:
                    val = t
                if vocab:
                    r = relativize(r, vocab) or r
                r = str(r)
                if r in obj and isinstance(obj[r], list):
                    obj[r].append(val)
                elif r in obj:
                    obj[r] = [obj[r], val]
                else:
                    obj[r] = val

    # prune ignored types, dropping references to the pruned objects
    to_remove = []
    for oid, (obj, referents) in obj_pool.items():
        typ = obj.get("@type")
        if vocab and typ:
            typ = typ if ":" in typ else (vocab + typ)
        if typ in ignore_oftypes:
            to_remove.append(oid)
            for ref in referents:
                refobj, _ = obj_pool[ref]
                for k in list(refobj.keys()):
                    v = refobj[k]
                    if isinstance(v, list) and obj in v:
                        v.remove(obj)
                        if len(v) == 1:
                            refobj[k] = v[0]
                    elif v == obj:
                        del refobj[k]
    for k in to_remove:
        del obj_pool[k]

    # collapse @id-only object values
    for oid, (obj, referents) in obj_pool.items():
        for k, v in obj.items():
            if isinstance(v, dict) and len(v) == 1 and "@id" in v:
                obj[k] = v["@id"]

    top_objs = [obj for (k, (obj, refs)) in obj_pool.items() if k not in non_top_ids]
    top_objs = [
        obj for obj in top_objs if not (len(obj) == 1 and "@type" in obj)
    ]
    if context and context.get("@output", True):
        return {"@context": context, "@graph": top_objs}
    return top_objs


# ---------------------------------------------------------------------------
# Distributed inlined binder


def _collapse_id_only(obj):
    """Recursively collapse {"@id": x} dict values to plain strings
    (driver binder's final pass, serial/jsonld.py:95-99 semantics)."""
    for k, v in list(obj.items()):
        if isinstance(v, dict):
            if len(v) == 1 and "@id" in v:
                obj[k] = v["@id"]
            else:
                _collapse_id_only(v)
        elif isinstance(v, list):
            new = []
            for item in v:
                if isinstance(item, dict):
                    if len(item) == 1 and "@id" in item:
                        new.append(item["@id"])
                    else:
                        _collapse_id_only(item)
                        new.append(item)
                else:
                    new.append(item)
            obj[k] = new
    return obj


def _obj_append(obj, r, val):
    if r in obj and isinstance(obj[r], list):
        obj[r].append(val)
    elif r in obj:
        obj[r] = [obj[r], val]
    else:
        obj[r] = val


def _embed_child(parent, child_id, child_obj):
    """Replace every {"@id": child_id} value in parent with child_obj."""
    ref = {"@id": child_id}
    for k, v in list(parent.items()):
        if v == ref:
            parent[k] = child_obj
        elif isinstance(v, list):
            parent[k] = [child_obj if item == ref else item for item in v]
    return parent


_BSTATE_COLS = ["origin", "node", "refcount", "referrer", "pending"]


def _schemas():
    """(refs/phase-A row, node state) schemas of the binder's keyed
    exchanges."""
    import pyarrow as pa

    rows = pa.schema({"key": pa.string(), "kind": pa.int8(),
                      "s1": pa.string(), "s2": pa.string(), "n": pa.int64()})
    state = pa.schema({"origin": pa.string(), "node": pa.string(),
                       "refcount": pa.int64(), "referrer": pa.string(),
                       "pending": pa.int64()})
    return rows, state


def _bind_state_fused(links_ds, type_rels, _rel, num_buckets):
    """Node state (origin, node, refcount, referrer, pending) in TWO
    keyed shuffles (the no-pruning fast path of ``bind_ds``):

    1. target-keyed refcount pass over SLIM rows only — deduped
       (src, target) edge pairs plus one node-exists marker per
       origin; refcount = distinct referrers, single-ref targets emit
       a pending marker routed to their referrer. The heavy node JSON
       never enters this shuffle.
    2. origin-keyed pass that builds each node's JSON directly from
       its raw link rows (same sorted-(rel, target) construction the
       adjacency-based path uses) AND merges the refcount/referrer/
       pending info in the same group — fusing what were previously
       the origin_adjacency shuffle and the phase-B state shuffle.
    """
    import json

    import numpy as np
    import pandas as pd

    # ---- shuffle 1: refcounts over slim rows -------------------------
    def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        is_type = df["rel"].isin(type_rels)
        origins = np.asarray(pd.unique(df["origin"]), dtype=object)
        ed = df[
            ~is_type
            & df["target_is_iri"].fillna(False).astype(bool)
            & df["target"].notna()
        ]
        ed = ed[ed["target"] != ed["origin"]][["origin", "target"]]
        ed = ed.drop_duplicates()
        out = pd.DataFrame(
            {
                "key": np.concatenate(
                    [origins, ed["target"].to_numpy(dtype=object)]
                ),
                "kind": np.concatenate(
                    [
                        np.zeros(len(origins), dtype=np.int8),
                        np.ones(len(ed), dtype=np.int8),
                    ]
                ),
                "s1": np.concatenate(
                    [
                        np.full(len(origins), "", dtype=object),
                        ed["origin"].to_numpy(dtype=object),
                    ]
                ),
            }
        )
        out["n"] = np.int64(0)
        return out

    def _refs_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "key": pd.Series([], dtype=object),
                "kind": pd.Series([], dtype="int8"),
                "s1": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if "key" not in bucket.columns or not len(bucket):
            return empty
        nodes_k = set(bucket.loc[bucket["kind"] == 0, "key"])
        edges = bucket[bucket["kind"] == 1].drop_duplicates(["key", "s1"])
        ein = edges[edges["key"].isin(nodes_k)]
        if not len(ein):
            return empty
        agg = ein.groupby("key", sort=False)["s1"].agg(["size", "first"])
        single = agg[agg["size"] == 1]
        outs = [
            pd.DataFrame(
                {
                    "key": agg.index.to_numpy(),
                    "kind": np.int8(10),
                    "s1": np.where(
                        agg["size"].to_numpy() == 1, agg["first"].to_numpy(), ""
                    ),
                    "n": agg["size"].to_numpy().astype(np.int64),
                }
            )
        ]
        if len(single):
            outs.append(
                pd.DataFrame(
                    {
                        "key": single["first"].to_numpy(),
                        "kind": np.int8(12),
                        "s1": single.index.to_numpy(),
                        "n": np.int64(0),
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    rows_schema, state_schema = _schemas()
    info = exchange(links_ds.map_batches(_edge_rows, batch_format="pandas"),
                    "key", _refs_bucket,
                    rows_schema.remove(rows_schema.get_field_index("s2")),
                    num_buckets)

    # ---- shuffle 2: node build + info merge, keyed by origin ---------
    def _link_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["origin"].to_numpy(dtype=object),
                "kind": np.full(len(df), 2, dtype=np.int8),
                "s1": df["rel"].to_numpy(dtype=object),
                "n": df["target_is_iri"]
                .fillna(False)
                .astype(bool)
                .to_numpy()
                .astype(np.int64),
                "_t": df["target"].to_numpy(dtype=object),
            }
        )

    def _info_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_t"] = ""
        return df[["key", "kind", "s1", "n", "_t"]]

    def _build_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "origin": pd.Series([], dtype=object),
                "node": pd.Series([], dtype=object),
                "refcount": pd.Series([], dtype="int64"),
                "referrer": pd.Series([], dtype=object),
                "pending": pd.Series([], dtype="int64"),
            }
        )
        if "key" not in bucket.columns or not len(bucket):
            return empty
        links = bucket[bucket["kind"] == 2]
        if not len(links):
            return empty
        inf = bucket[bucket["kind"] == 10].drop_duplicates("key")
        refcount = dict(zip(inf["key"], inf["n"]))
        referrer = dict(zip(inf["key"], inf["s1"]))
        pend = bucket[bucket["kind"] == 12].groupby("key", sort=False).size()
        pending = pend.to_dict()

        # same deterministic construction as the adjacency path:
        # per-origin rows sorted by (rel, target); attrs don't
        # participate in node building
        b = links.sort_values(["key", "s1", "_t"], na_position="first")
        karr = b["key"].to_numpy()
        rels_ = b["s1"].to_numpy()
        tgts = b["_t"].to_numpy()
        tiri = b["n"].to_numpy()
        bounds = np.flatnonzero(
            np.concatenate(([True], karr[1:] != karr[:-1]))
        )
        origins, nodes, rcs, refs_, pends = [], [], [], [], []
        for i, lo in enumerate(bounds):
            hi = bounds[i + 1] if i + 1 < len(bounds) else len(karr)
            origin = karr[lo]
            types = sorted(
                {
                    str(tgts[j])
                    for j in range(lo, hi)
                    if rels_[j] in type_rels
                }
            )
            obj = {"@id": str(origin)}
            if types:
                tl = [_rel(t) for t in types]
                obj["@type"] = tl[0] if len(tl) == 1 else tl
            for j in range(lo, hi):
                r = rels_[j]
                if r in type_rels:
                    continue
                t = tgts[j]
                if tiri[j] and t is not None and t != origin:
                    val = {"@id": str(t)}
                else:
                    val = t
                _obj_append(obj, _rel(r), val)
            origins.append(str(origin))
            nodes.append(json.dumps(obj, ensure_ascii=False))
            rcs.append(int(refcount.get(origin, 0)))
            refs_.append(str(referrer.get(origin, "")))
            pends.append(int(pending.get(origin, 0)))
        return pd.DataFrame(
            {
                "origin": origins,
                "node": nodes,
                "refcount": np.asarray(rcs, dtype=np.int64),
                "referrer": refs_,
                "pending": np.asarray(pends, dtype=np.int64),
            }
        )

    merged = links_ds.map_batches(_link_rows, batch_format="pandas").union(
        info.map_batches(_info_rows, batch_format="pandas")
    )
    return exchange(merged, "key", _build_bucket, state_schema, num_buckets)


def _bind_inline_rounds(state, max_depth, num_buckets,
                        inline_broadcast_threshold):
    """Phase C + finalize, shared by both bind_ds state builders:
    iterative leaf inlining (early exit on a scalar count; small
    rounds broadcast the leaves instead of shuffling the corpus-sized
    state), then the driver binder's final collapse."""
    import json

    import numpy as np
    import pandas as pd

    def _route(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        inline = (
            (df["refcount"] == 1) & (df["pending"] == 0) & (df["referrer"] != "")
        )
        df["_k"] = np.where(inline, df["referrer"], df["origin"])
        df["_child"] = inline.astype("int8")
        return df

    def _absorb(bucket: pd.DataFrame) -> pd.DataFrame:
        if "_child" not in bucket.columns or not len(bucket):
            return pd.DataFrame({c: [] for c in _BSTATE_COLS})
        parents = bucket[bucket["_child"] == 0]
        children = bucket[bucket["_child"] == 1]
        if not len(children):
            return parents[_BSTATE_COLS]
        out = parents[_BSTATE_COLS].reset_index(drop=True)
        pos = {o: i for i, o in enumerate(out["origin"])}
        # group children by their parent ROW and batch the embeds:
        # the parent JSON parses/dumps once per parent (not once per
        # child), and no per-row Series construction (iterrows)
        ppos = children["referrer"].map(pos)
        hit = ppos.notna()
        if hit.any():
            nodes = out["node"].tolist()
            pending = out["pending"].tolist()
            kids = children[hit]
            for i, grp in kids.groupby(ppos[hit].astype(int), sort=False):
                par = json.loads(nodes[i])
                for corg, cnode in zip(grp["origin"], grp["node"]):
                    _embed_child(par, corg, json.loads(cnode))
                nodes[i] = json.dumps(par, ensure_ascii=False)
                pending[i] = max(0, pending[i] - len(grp))
            out["node"] = nodes
            out["pending"] = pending
        if (~hit).any():
            out = pd.concat(
                [out, children.loc[~hit, _BSTATE_COLS]], ignore_index=True
            )
        return out

    def _drop_route_cols(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop(columns=["_k", "_child"])

    def _absorb_broadcast(cmap_ref):
        import ray as _ray

        def _fn(df: pd.DataFrame) -> pd.DataFrame:
            cmap = _ray.get(cmap_ref)
            out = df[df["_child"] == 0][_BSTATE_COLS].reset_index(drop=True)
            hit = out.index[out["origin"].isin(cmap)]
            for i in hit:
                kids = cmap[out.at[i, "origin"]]
                par = json.loads(out.at[i, "node"])
                for child_id, child_node in kids:
                    _embed_child(par, child_id, json.loads(child_node))
                out.at[i, "node"] = json.dumps(par, ensure_ascii=False)
                out.at[i, "pending"] = max(0, out.at[i, "pending"] - len(kids))
            return out

        return _fn

    for _ in range(max_depth):
        routed = state.map_batches(_route, batch_format="pandas").materialize()
        n_child = int(routed.sum("_child") or 0)
        if not n_child:
            # reuse the materialized blocks — leaving `state` as the
            # lazy pre-route pipeline would re-execute the state
            # builder in finalize
            state = routed.map_batches(_drop_route_cols, batch_format="pandas")
            break
        if n_child <= inline_broadcast_threshold:
            # few inlinable leaves this round: ship THEM (bounded by
            # the threshold) to every task via ray.put instead of
            # sort-shuffling the whole corpus-sized node state. A
            # leaf's referrer is never itself inlinable in the same
            # round (its pending count is still nonzero), so every
            # child finds its parent in the surviving state.
            import ray as _ray

            from ..core.dsutil import rows_of

            kids = rows_of(routed.map_batches(
                lambda df: df[df["_child"] == 1][
                    ["origin", "node", "referrer"]],
                batch_format="pandas",
            ))
            cmap: dict = {}
            for row in kids:
                cmap.setdefault(row["referrer"], []).append(
                    (row["origin"], row["node"]))
            state = routed.map_batches(
                _absorb_broadcast(_ray.put(cmap)), batch_format="pandas")
            continue
        state = exchange(routed, "_k", _absorb, _schemas()[1], num_buckets)

    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        origins, nodes = [], []
        for o, n in zip(df["origin"], df["node"]):
            obj = _collapse_id_only(json.loads(n))
            if len(obj) == 1 and "@type" in obj:
                continue  # driver drops @type-only top objects
            origins.append(o)
            nodes.append(json.dumps(obj, ensure_ascii=False))
        return pd.DataFrame({"origin": origins, "node": nodes})

    return state.map_batches(_finalize, batch_format="pandas")


def bind_ds(links_ds, context=None, ignore_oftypes=None, max_depth=3,
            num_buckets=32, inline_broadcast_threshold=100_000):
    """Distributed INLINED JSON-LD binder: the at-scale form of
    ``bind`` (reference serial/jsonld.py:17-103).

    Without ``ignore_oftypes`` (the common case) the node state is
    built by the FUSED two-shuffle path (``_bind_state_fused``): a
    slim target-keyed refcount pass (no node JSON in transit) and one
    origin-keyed pass that builds node JSON and merges refcounts in
    the same group. With type pruning, the three-shuffle path below
    runs instead: adjacency, a target-keyed phase that also turns
    edges into pruned nodes into removal rows, and an origin-keyed
    state merge (pruned-referrer edge suppression needs the
    adjacency-complete per-origin view). Both paths feed the same
    ``max_depth`` leaf-inlining rounds: each round embeds single-ref
    leaf nodes into their referrer via one coarse-bucket shuffle, or
    broadcasts the leaves when few.

    Documented divergences from the driver-side binder (all
    flatten-equivalent JSON-LD): multi-referenced nodes stay
    top-level with id refs instead of inlining at first use; all
    types are kept (sorted, scalar when single) instead of only the
    first; single-ref chains deeper than ``max_depth`` and reference
    cycles stay as id refs; ``@id`` values stay absolute even when
    ``@vocab`` relativizes rels/types.

    Returns a Dataset of rows ``{origin, node}`` (node = JSON text of
    one top-level object)."""
    import json

    import numpy as np
    import pandas as pd

    from ..model.linkset import origin_adjacency

    context = context or {}
    vocab = context.get("@vocab")
    ignore = {str(t) for t in (ignore_oftypes or [])}
    type_rels = {str(RDF_TYPE_REL), str(VTYPE_REL)}

    def _rel(r):
        if vocab:
            return str(relativize(r, vocab) or r)
        return str(r)

    if not ignore:
        # FUSED fast path (no type pruning — the common case): two
        # keyed shuffles total instead of three, and node JSON never
        # transits the target-keyed one. See _bind_state_fused.
        state = _bind_state_fused(links_ds, type_rels, _rel, num_buckets)
        return _bind_inline_rounds(
            state, max_depth, num_buckets, inline_broadcast_threshold
        )

    adj = origin_adjacency(links_ds)

    # ---- node + edge construction (pruned nodes emit no edges) ----------
    def _mknodes(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"key": [], "kind": [], "s1": [], "s2": [], "n": []}
        for origin, adjacency in zip(df["origin"], df["adjacency"]):
            rels = json.loads(adjacency)
            types = sorted({str(t) for (r, t, ii, a) in rels if r in type_rels})
            pruned = bool(ignore) and any(t in ignore for t in types)
            obj = {"@id": str(origin)}
            if types:
                tl = [_rel(t) for t in types]
                obj["@type"] = tl[0] if len(tl) == 1 else tl
            refs = set()
            for r, t, is_iri, attrs_json in rels:
                if r in type_rels:
                    continue
                if is_iri and t is not None and t != origin:
                    val = {"@id": str(t)}
                    refs.add(str(t))
                else:
                    val = t
                _obj_append(obj, _rel(r), val)
            if pruned:
                continue
            # node row keyed by self
            rows["key"].append(str(origin))
            rows["kind"].append(0)
            rows["s1"].append(json.dumps(obj, ensure_ascii=False))
            rows["s2"].append("")
            rows["n"].append(0)
            # edge rows keyed by TARGET (phase A groups by target)
            for t in sorted(refs):
                rows["key"].append(t)
                rows["kind"].append(1)
                rows["s1"].append(str(origin))  # src
                rows["s2"].append("")
                rows["n"].append(0)
        out = pd.DataFrame(rows)
        out["kind"] = out["kind"].astype("int8")
        out["n"] = out["n"].astype("int64")
        return out

    tagged = adj.map_batches(_mknodes, batch_format="pandas")

    _COLS = ["key", "kind", "s1", "s2", "n"]

    # ---- phase A (one bucket shuffle keyed by target id, fully
    # vectorized inside the bucket): per-target refcount + unique
    # referrer, eligible-edge rows for pending counts, removal rows
    # for edges into pruned ids; node rows pass through ---------------
    def _phase_a(bucket: pd.DataFrame) -> pd.DataFrame:
        if "key" not in bucket.columns or not len(bucket):
            return pd.DataFrame({c: [] for c in _COLS})
        nodes = bucket[bucket["kind"] == 0]
        edges = bucket[bucket["kind"] == 1]
        outs = [nodes[_COLS]]
        if len(edges):
            if ignore:
                pruned_ids = set(bucket.loc[bucket["kind"] == 20, "key"])
                hit = edges[edges["key"].isin(pruned_ids)]
                if len(hit):
                    outs.append(
                        pd.DataFrame(
                            {"key": hit["s1"].to_numpy(), "kind": 11,
                             "s1": hit["key"].to_numpy(), "s2": "", "n": 0}
                        )
                    )
            ein = edges[edges["key"].isin(set(nodes["key"]))]
            if len(ein):
                agg = ein.groupby("key", sort=False)["s1"].agg(["size", "first"])
                single = agg[agg["size"] == 1]
                outs.append(
                    pd.DataFrame(
                        {"key": agg.index.to_numpy(), "kind": 10,
                         "s1": np.where(agg["size"].to_numpy() == 1,
                                        agg["first"].to_numpy(), ""),
                         "s2": "", "n": agg["size"].to_numpy().astype(np.int64)}
                    )
                )
                if len(single):
                    outs.append(
                        pd.DataFrame(
                            {"key": single["first"].to_numpy(), "kind": 12,
                             "s1": single.index.to_numpy(), "s2": "", "n": 0}
                        )
                    )
        out = pd.concat(outs, ignore_index=True)
        out["kind"] = out["kind"].astype("int8")
        out["n"] = out["n"].astype("int64")
        return out

    # pruned-id markers (kind 20), keyed by the pruned id so phase A
    # can turn edges into pruned ids into removal rows at the referrer
    def _prune_removals(df: pd.DataFrame) -> pd.DataFrame:
        out = {"key": [], "kind": [], "s1": [], "s2": [], "n": []}
        for origin, adjacency in zip(df["origin"], df["adjacency"]):
            rels = json.loads(adjacency)
            types = {str(t) for (r, t, ii, a) in rels if r in type_rels}
            if types & ignore:
                out["key"].append(str(origin))
                out["kind"].append(20)
                out["s1"].append("")
                out["s2"].append("")
                out["n"].append(0)
        o = pd.DataFrame(out)
        o["kind"] = o["kind"].astype("int8")
        o["n"] = o["n"].astype("int64")
        return o

    work = tagged
    if ignore:
        work = work.union(adj.map_batches(_prune_removals, batch_format="pandas"))

    rows_schema, state_schema = _schemas()
    staged = exchange(work, "key", _phase_a, rows_schema, num_buckets)

    # ---- phase B (one bucket shuffle keyed by origin, vectorized
    # merges; JSON is only parsed for nodes that lose refs) -----------
    _STATE_COLS = ["origin", "node", "refcount", "referrer", "pending"]

    def _phase_b(bucket: pd.DataFrame) -> pd.DataFrame:
        if "key" not in bucket.columns or not len(bucket):
            return pd.DataFrame({c: [] for c in _STATE_COLS})
        nodes = bucket[bucket["kind"] == 0][["key", "s1"]].rename(
            columns={"key": "origin", "s1": "node"}
        )
        if not len(nodes):
            return pd.DataFrame({c: [] for c in _STATE_COLS})
        info = bucket[bucket["kind"] == 10][["key", "s1", "n"]].drop_duplicates(
            "key"
        ).rename(columns={"key": "origin", "s1": "referrer", "n": "refcount"})
        pend = (
            bucket[bucket["kind"] == 12].groupby("key", sort=False).size()
            .rename("pending").reset_index().rename(columns={"key": "origin"})
        )
        df = nodes.merge(info, on="origin", how="left").merge(
            pend, on="origin", how="left"
        )
        df["refcount"] = df["refcount"].fillna(0).astype(np.int64)
        df["referrer"] = df["referrer"].fillna("")
        df["pending"] = df["pending"].fillna(0).astype(np.int64)
        removals = bucket[bucket["kind"] == 11]
        if len(removals):
            by_origin = removals.groupby("key", sort=False)["s1"].agg(list)
            idx = df.index[df["origin"].isin(by_origin.index)]
            for i in idx:
                obj = json.loads(df.at[i, "node"])
                for tgt in by_origin[df.at[i, "origin"]]:
                    ref = {"@id": tgt}
                    for k, v in list(obj.items()):
                        if v == ref:
                            del obj[k]
                        elif isinstance(v, list):
                            nv = [item for item in v if item != ref]
                            if not nv:
                                del obj[k]  # driver binder deletes, not []
                            elif len(nv) == 1:
                                obj[k] = nv[0]
                            else:
                                obj[k] = nv
                df.at[i, "node"] = json.dumps(obj, ensure_ascii=False)
        return df[_STATE_COLS]

    state = exchange(staged, "key", _phase_b, state_schema, num_buckets)

    return _bind_inline_rounds(
        state, max_depth, num_buckets, inline_broadcast_threshold
    )


def write_jsonld_nested_ds(links_ds, path: str, context=None,
                           ignore_oftypes=None, max_depth=3, filesystem=None):
    """Shard-write the distributed inlined binder's output: each shard
    is one JSON-LD document {@context?, @graph: [nested node objects]}.
    Cluster-portable via the same pyarrow-FileSystem sink contract as
    the flat writer (linkset.write_jsonld_ds)."""
    import json

    import pandas as pd

    from ..model.linkset import _resolve_sink, _write_shard

    nodes = bind_ds(links_ds, context=context, ignore_oftypes=ignore_oftypes,
                    max_depth=max_depth)
    fs_, root = _resolve_sink(path, filesystem)
    ctx = context or {}

    def _render(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"file": []})
        doc = {"@graph": [json.loads(n) for n in df["node"]]}
        if ctx:
            doc["@context"] = ctx
        return pd.DataFrame(
            {"file": [_write_shard(fs_, root, ".jsonld",
                                   json.dumps(doc, ensure_ascii=False))]}
        )

    files = nodes.map_batches(_render, batch_format="pandas").take_all()
    return [r["file"] for r in files]
