"""SHACL-lite shape validation over a link-set.

A shape rule constrains how many links of a given property an entity
of a given type must have:

    {"target_type": "urn:versa:Customer",
     "property": "http://bibfra.me/vocab/lite/name",
     "min": 1, "max": 1}

``validate_shapes`` emits one row per violated (entity, rule):
``(origin, cls, prop, n, kind)`` with kind "missing" (n < min) or
"excess" (n > max). Conforming entities emit nothing.

Distributed shape: the rule set is schema-sized (a closure constant);
everything corpus-sized flows through ONE origin-keyed exchange
carrying two tagged row kinds — (origin, cls) type rows and
per-batch pre-aggregated (origin, prop, n) count partials — merged
and evaluated vectorized inside the bucket. Only properties named by
some rule are counted, so the shuffle payload is rule-bounded per
entity, not adjacency-sized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import exchange

_COLS = ["origin", "cls", "prop", "n", "kind"]


def validate_shapes(links_ds, rules, type_rel=None, num_buckets=64):
    """Violations Dataset for ``rules`` over ``links_ds`` (quad
    schema). See module docstring for the rule dict shape."""
    from ..core import VTYPE_REL

    type_rel = str(type_rel or VTYPE_REL)
    rules = [
        {"target_type": str(r["target_type"]), "property": str(r["property"]),
         "min": r.get("min"), "max": r.get("max")}
        for r in rules
    ]
    checked_types = {r["target_type"] for r in rules}
    checked_props = {r["property"] for r in rules}

    def _rows(df: pd.DataFrame) -> pd.DataFrame:
        t = df[(df["rel"] == type_rel) & df["target"].isin(checked_types)]
        types = pd.DataFrame(
            {"origin": t["origin"].to_numpy(object),
             "cls": t["target"].to_numpy(object),
             "prop": "", "n": np.int64(0), "tag": np.int8(0)})
        p = df[df["rel"].isin(checked_props)]
        counts = (
            p.groupby(["origin", "rel"], as_index=False, sort=False)
            .size()
            .rename(columns={"rel": "prop", "size": "n"})
        )
        counts["cls"] = ""
        counts["n"] = counts["n"].astype("int64")
        counts["tag"] = np.int8(1)
        return pd.concat(
            [types, counts[["origin", "cls", "prop", "n", "tag"]]],
            ignore_index=True)

    def _evaluate(bucket: pd.DataFrame) -> pd.DataFrame:
        types = bucket[bucket["tag"] == 0][["origin", "cls"]]
        if not len(types):
            return None
        counts = (
            bucket[bucket["tag"] == 1]
            .groupby(["origin", "prop"], as_index=False, sort=False)["n"]
            .sum()
        )
        outs = []
        for r in rules:
            ent = types[types["cls"] == r["target_type"]][["origin", "cls"]]
            if not len(ent):
                continue
            pc = counts[counts["prop"] == r["property"]][["origin", "n"]]
            m = ent.merge(pc, on="origin", how="left")
            m["n"] = m["n"].fillna(0).astype("int64")
            m["prop"] = r["property"]
            if r["min"] is not None:
                miss = m[m["n"] < int(r["min"])].copy()
                if len(miss):
                    miss["kind"] = "missing"
                    outs.append(miss[_COLS])
            if r["max"] is not None:
                exc = m[m["n"] > int(r["max"])].copy()
                if len(exc):
                    exc["kind"] = "excess"
                    outs.append(exc[_COLS])
        return pd.concat(outs, ignore_index=True) if outs else None

    return exchange(
        links_ds.map_batches(_rows, batch_format="pandas"), "origin",
        _evaluate,
        pa.schema({"origin": pa.string(), "cls": pa.string(),
                   "prop": pa.string(), "n": pa.int64(),
                   "kind": pa.string()}), num_buckets)


def functional_conflicts(links_ds, rels, num_buckets=64):
    """Functional-property violation detection — the KG-construction
    QA pass that finds entities asserting MORE THAN ONE distinct value
    for a property declared functional (owl:FunctionalProperty
    semantics: a customer in two nations, a book with two ISBNs).

    Emits one row per violated ``(origin, rel)``:
    ``(origin, rel, n_values)`` with n_values = the number of DISTINCT
    (target, target_is_iri) values asserted (> 1). Exact-duplicate
    re-assertions of the same value are NOT conflicts — statements
    dedup before counting, matching the add/update dup-refusing
    contract.

    Distributed shape: the rel filter prunes at the scan (only
    statements of declared-functional rels leave their blocks), then
    ONE (origin, rel)-keyed exchange dedups and counts
    vectorized inside each bucket. Nothing origin-cardinality ever
    lands driver-side.
    """
    import pyarrow.compute as pc

    rel_set = sorted({str(r) for r in rels})

    def _filt(tbl: pa.Table) -> pa.Table:
        sub = tbl.filter(
            pc.is_in(tbl["rel"], value_set=pa.array(rel_set)))
        return sub.select(["origin", "rel", "target", "target_is_iri"])

    def _conflicts(bucket: pd.DataFrame) -> pd.DataFrame:
        d = bucket.drop_duplicates(
            ["origin", "rel", "target", "target_is_iri"])
        g = d.groupby(["origin", "rel"], as_index=False, sort=False).size()
        return g[g["size"] > 1].rename(columns={"size": "n_values"})

    return exchange(
        links_ds.map_batches(_filt, batch_format="pyarrow"),
        ["origin", "rel"], _conflicts,
        pa.schema({"origin": pa.string(), "rel": pa.string(),
                   "n_values": pa.int64()}), num_buckets)


def profile_table(ds, columns):
    """One-pass data-quality profile: per column, ``(column, n_rows,
    n_null, min_v, max_v)`` with min/max stringified (mixed column
    types share one schema; UTF-8 byte order == codepoint order, so
    string min/max replays exactly in SQL VARCHAR compares).

    The scan is a single column-pruned ``map_batches`` emitting one
    partial row per (batch, column); the driver merges blocks x
    columns partials — bounded by the block count, never by the data.
    The ingest-gate profile for schema drift, null regressions and
    range checks on a new corpus drop.
    """
    import ray.data as rd

    columns = list(columns)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            s = df[c]
            nn = int(s.isna().sum())
            present = s.dropna()
            # partials stringify for one shared Arrow schema; the
            # driver merge re-parses numerics so cross-batch compare
            # is NATIVE, never lexicographic ("99" < "100" holds)
            rows.append({
                "column": c,
                "kind": s.dtype.kind,
                "n_rows": len(s),
                "n_null": nn,
                "min_v": str(present.min()) if len(present) else None,
                "max_v": str(present.max()) if len(present) else None,
            })
        return pd.DataFrame(rows,
                            columns=["column", "kind", "n_rows", "n_null",
                                     "min_v", "max_v"])

    parts = ds.select_columns(columns).map_batches(
        _partial, batch_format="pandas").to_pandas()

    def _pick(strs, kind, best):
        vals = list(strs)
        if not vals:
            return None
        if kind in "iu":
            keyed = [(int(v), v) for v in vals]
        elif kind == "f":
            keyed = [(float(v), v) for v in vals]
        else:
            keyed = [(v, v) for v in vals]
        return best(keyed)[1]  # the original string of the native argopt

    rows = []
    for c in columns:
        g = parts[parts["column"] == c]
        kind = g["kind"].iloc[0] if len(g) else "O"
        rows.append({
            "column": c,
            "n_rows": int(g["n_rows"].sum()),
            "n_null": int(g["n_null"].sum()),
            "min_v": _pick(g["min_v"].dropna(), kind, min),
            "max_v": _pick(g["max_v"].dropna(), kind, max),
        })
    out = pd.DataFrame(rows).sort_values("column", ignore_index=True)
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_null"] = out["n_null"].astype("int64")
    return out


def fk_violations(child, parent, fk, pk=None, child_cols=None,
                  num_buckets=64):
    """Referential-integrity check: child rows whose foreign key has
    NO matching parent key — the cross-table ingest QA step (orphaned
    facts after a partial dim load, dangling graph references).

    Exact distributed anti-join via :func:`ops.joins.semi_join_keys`
    (tagged coarse-bucket shuffle; the parent side ships only its
    deduped key column, so a wide parent costs nothing). Pass
    ``child_cols`` so empty buckets keep the child schema. Callers
    wanting cheap pre-pruning on a huge child can bloom-filter first
    (``ops.joins.build_bloom`` + ``bloom_semi_filter``) — the bloom
    can only shrink the anti-join's left side after inversion, never
    change the answer.
    """
    from .joins import semi_join_keys

    pk = pk or fk

    def _keys(df: pd.DataFrame) -> pd.DataFrame:
        if pk not in df.columns:
            return pd.DataFrame({pk: pd.Series([], dtype="object")})
        return df[[pk]].drop_duplicates()

    parent_keys = parent.map_batches(_keys, batch_format="pandas")
    return semi_join_keys(child, parent_keys, on=fk, keys_on=pk,
                          anti=True, num_buckets=num_buckets,
                          left_cols=child_cols)
