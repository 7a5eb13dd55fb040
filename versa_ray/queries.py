"""Driver-contract queries: one entry per engine operator, each with a
DuckDB-equivalent oracle where SQL can express it.

The KG/link-model operators run over a links Dataset derived
deterministically from the TPC-H-ish tables (region/nation/customer/
supplier -> ``urn:versa:`` linkset), so the SQL oracle can rebuild the
identical linkset with UNION ALL and apply the equivalent relational
form. Training-data ops run over documents.

Column names match between the Ray results and the oracle SQL —
the driver sorts columns by name and value-hashes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .core import VTYPE_REL
from .model import linkset
from .ops import dedup as dd
from .ops import textstats

URN = "urn:versa:"
NAME = "http://bibfra.me/vocab/lite/name"
SEGMENT = "http://bibfra.me/vocab/lite/segment"
IN_NATION = "http://bibfra.me/vocab/lite/inNation"
IN_REGION = "http://bibfra.me/vocab/lite/inRegion"
TYPE = str(VTYPE_REL)
SRC_ATTRS = '{"@src":"tpch"}'

LINK_COLS = ["origin", "rel", "target", "target_is_iri", "attrs"]


# ---------------------------------------------------------------------------
# TPC-H -> linkset derivation (Ray side)


def _links_table(origins, rels, targets, is_iri, attrs=None) -> pa.Table:
    n = len(origins)
    return pa.table(
        {
            "origin": pa.array(origins, type=pa.string()),
            "rel": pa.array([rels] * n if isinstance(rels, str) else rels,
                            type=pa.string()),
            "target": pa.array(targets, type=pa.string()),
            "target_is_iri": pa.array(
                [is_iri] * n if isinstance(is_iri, bool) else is_iri,
                type=pa.bool_(),  # empty batches must not decay to null type
            ),
            "attrs": pa.array([attrs or "{}"] * n, type=pa.string()),
        }
    )


_LINKSET_CACHE: dict = {}


def tpch_linkset(sf_dir: str):
    """Derive the urn:versa linkset from region/nation/customer/supplier.

    The materialized result is cached per sf_dir (it is small relative
    to the fact tables and consumed by ~15 operators)."""
    cached = _LINKSET_CACHE.get(sf_dir)
    if cached is not None:
        return cached
    import ray.data as rd

    def from_region(tbl: pa.Table) -> pa.Table:
        o = ["%sregion:%d" % (URN, k) for k in tbl["r_regionkey"].to_pylist()]
        names = tbl["r_name"].to_pylist()
        return pa.concat_tables(
            [
                _links_table(o, TYPE, [URN + "Region"] * len(o), True),
                _links_table(o, NAME, names, False),
            ]
        )

    def from_nation(tbl: pa.Table) -> pa.Table:
        o = ["%snation:%d" % (URN, k) for k in tbl["n_nationkey"].to_pylist()]
        names = tbl["n_name"].to_pylist()
        regions = ["%sregion:%d" % (URN, k) for k in tbl["n_regionkey"].to_pylist()]
        return pa.concat_tables(
            [
                _links_table(o, TYPE, [URN + "Nation"] * len(o), True),
                _links_table(o, NAME, names, False),
                _links_table(o, IN_REGION, regions, True),
            ]
        )

    def from_customer(tbl: pa.Table) -> pa.Table:
        o = ["%scustomer:%d" % (URN, k) for k in tbl["c_custkey"].to_pylist()]
        names = tbl["c_name"].to_pylist()
        nations = ["%snation:%d" % (URN, k) for k in tbl["c_nationkey"].to_pylist()]
        segs = tbl["c_mktsegment"].to_pylist()
        return pa.concat_tables(
            [
                _links_table(o, TYPE, [URN + "Customer"] * len(o), True),
                _links_table(o, NAME, names, False),
                _links_table(o, IN_NATION, nations, True),
                _links_table(o, SEGMENT, segs, False, SRC_ATTRS),
            ]
        )

    def from_supplier(tbl: pa.Table) -> pa.Table:
        o = ["%ssupplier:%d" % (URN, k) for k in tbl["s_suppkey"].to_pylist()]
        names = tbl["s_name"].to_pylist()
        nations = ["%snation:%d" % (URN, k) for k in tbl["s_nationkey"].to_pylist()]
        return pa.concat_tables(
            [
                _links_table(o, TYPE, [URN + "Supplier"] * len(o), True),
                _links_table(o, NAME, names, False),
                _links_table(o, IN_NATION, nations, True),
            ]
        )

    parts = []
    for name, cols, fn in (
        ("region", ["r_regionkey", "r_name"], from_region),
        ("nation", ["n_nationkey", "n_name", "n_regionkey"], from_nation),
        ("customer", ["c_custkey", "c_name", "c_nationkey", "c_mktsegment"], from_customer),
        ("supplier", ["s_suppkey", "s_name", "s_nationkey"], from_supplier),
    ):
        # cap the block count: Ray's default parallelism splits these
        # small dimension tables into ~64 blocks EACH (~250 rows per
        # block), and every downstream groupby then pays per-task
        # overhead x hundreds of near-empty blocks
        ds = rd.read_parquet(
            f"{sf_dir}/{name}.parquet", columns=cols, override_num_blocks=8
        )
        parts.append(ds.map_batches(fn, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    out = out.materialize()
    _LINKSET_CACHE[sf_dir] = out
    return out


# SQL mirror of tpch_linkset
LINKSET_SQL = f"""
SELECT 'urn:versa:region:' || CAST(r_regionkey AS VARCHAR) AS origin,
       '{TYPE}' AS rel, 'urn:versa:Region' AS target, TRUE AS target_is_iri,
       '{{}}' AS attrs FROM region
UNION ALL
SELECT 'urn:versa:region:' || CAST(r_regionkey AS VARCHAR), '{NAME}', r_name,
       FALSE, '{{}}' FROM region
UNION ALL
SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), '{TYPE}',
       'urn:versa:Nation', TRUE, '{{}}' FROM nation
UNION ALL
SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), '{NAME}', n_name,
       FALSE, '{{}}' FROM nation
UNION ALL
SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), '{IN_REGION}',
       'urn:versa:region:' || CAST(n_regionkey AS VARCHAR), TRUE, '{{}}' FROM nation
UNION ALL
SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), '{TYPE}',
       'urn:versa:Customer', TRUE, '{{}}' FROM customer
UNION ALL
SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), '{NAME}', c_name,
       FALSE, '{{}}' FROM customer
UNION ALL
SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), '{IN_NATION}',
       'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR), TRUE, '{{}}' FROM customer
UNION ALL
SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), '{SEGMENT}',
       c_mktsegment, FALSE, '{SRC_ATTRS}' FROM customer
UNION ALL
SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR), '{TYPE}',
       'urn:versa:Supplier', TRUE, '{{}}' FROM supplier
UNION ALL
SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR), '{NAME}', s_name,
       FALSE, '{{}}' FROM supplier
UNION ALL
SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR), '{IN_NATION}',
       'urn:versa:nation:' || CAST(s_nationkey AS VARCHAR), TRUE, '{{}}' FROM supplier
"""


# ---------------------------------------------------------------------------
# Query callables


def q_links_all(sf_dir):
    return tpch_linkset(sf_dir)


def q_links_match_rel(sf_dir):
    return linkset.match(tpch_linkset(sf_dir), rel=NAME)


def q_links_multimatch(sf_dir):
    origins = {f"{URN}nation:{k}" for k in range(5)}
    return linkset.match(tpch_linkset(sf_dir), origin=origins, rel={NAME, IN_REGION})


def q_links_match_attrs(sf_dir):
    return linkset.match(tpch_linkset(sf_dir), attrs={"@src": "tpch"})


def q_links_dedup(sf_dir):
    ls = tpch_linkset(sf_dir)
    return linkset.distinct_links(ls.union(tpch_linkset(sf_dir)))


def q_links_remove(sf_dir):
    """Distributed remove verb (model/linkset.remove_statements — the
    Dataset mapping of memory.py's remove): the removal set (the five
    lowest nations' name links) is read driver-side from the tiny
    nation table, encoded to composite quad keys, broadcast once with
    ray.put, and anti-joined vectorized inside every batch."""
    import pyarrow.parquet as pq

    ls = tpch_linkset(sf_dir)
    tbl = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    rm = [
        (f"{URN}nation:{k}", NAME, str(name))
        for k, name in zip(tbl["n_nationkey"].to_pylist(), tbl["n_name"].to_pylist())
        if k < 5
    ]
    return linkset.remove_statements(ls, rm).select_columns(LINK_COLS)


def q_links_store_match_rel(sf_dir):
    """match(rel=...) against the ON-DISK partitioned link-set store:
    write the linkset rel+origin partitioned, then read back ONE rel
    with partition-directory pruning (model/store.read_linkset — the
    sqlite driver's (subj,pred) index intent). The pruned read opens
    only the rel's hash-bucket directories; test_store asserts the
    file-subset property explicitly."""
    import shutil

    from .model.store import read_linkset, write_linkset

    path = "/tmp/versa_ray_store_q"
    shutil.rmtree(path, ignore_errors=True)
    write_linkset(tpch_linkset(sf_dir), path)
    out = read_linkset(path, rel=NAME)
    return out.select_columns(LINK_COLS)


def q_links_store_incremental(sf_dir):
    """Incremental duplicate-refusing add against the stored KG
    (model/store.update_linkset): write everything except the segment
    links, then apply a delta containing the segment links PLUS exact
    duplicates of the name links. Only partitions the delta hashes
    into are rewritten; the final store must equal the full distinct
    linkset (SQL oracle)."""
    import shutil

    from .model.store import read_linkset, update_linkset, write_linkset

    path = "/tmp/versa_ray_store_inc_q"
    shutil.rmtree(path, ignore_errors=True)
    ls = tpch_linkset(sf_dir)
    base = linkset.match(ls, rel={TYPE, NAME, IN_REGION, IN_NATION})
    write_linkset(base, path)
    delta = linkset.match(ls, rel={SEGMENT, NAME})
    update_linkset(path, delta)
    return read_linkset(path).select_columns(LINK_COLS)


def q_links_all_origins(sf_dir):
    return linkset.all_origins(tpch_linkset(sf_dir))


def q_links_origins_of_type(sf_dir):
    return linkset.all_origins(tpch_linkset(sf_dir), of_types={URN + "Customer"})


def q_links_column_targets(sf_dir):
    return linkset.column_values(linkset.match(tpch_linkset(sf_dir), rel=NAME), "target")


def q_links_follow2(sf_dir):
    """2-hop traversal: customers 1..20 -> nation -> region IRI."""
    ls = tpch_linkset(sf_dir)
    start = {f"{URN}customer:{k}" for k in range(1, 21)}
    hop1 = linkset.match(ls, origin=start, rel=IN_NATION).take_all()
    nations = {r["target"] for r in hop1}
    hop2 = {
        r["origin"]: r["target"]
        for r in linkset.match(ls, origin=nations, rel=IN_REGION).take_all()
    }
    rows = [
        {"origin": r["origin"], "target": hop2[r["target"]]}
        for r in hop1
        if r["target"] in hop2
    ]
    return pd.DataFrame(rows)


def q_links_join_hop(sf_dir):
    """Full-corpus 2-hop traversal as a hash-partitioned join
    (linkset.follow_join): every customer -> nation -> region."""
    ls = tpch_linkset(sf_dir)
    out = linkset.follow_join(ls, IN_NATION, IN_REGION, num_partitions=8)
    return out


def q_links_zoom(sf_dir):
    ds, completed = linkset.zoom_in(tpch_linkset(sf_dir), f"{URN}customer:1", depth=2)
    df = ds.to_pandas()
    return df[["origin", "rel", "target"]].drop_duplicates()


def q_links_replace_values(sf_dir):
    mapping = {f"{URN}nation:1": f"{URN}nation:merged-1"}
    return linkset.replace_values(tpch_linkset(sf_dir), mapping)


def q_links_duplicate_statements(sf_dir):
    ls = tpch_linkset(sf_dir)
    return linkset.duplicate_statements(ls, f"{URN}customer:1", f"{URN}customer:copy-1")


def q_links_out_degrees(sf_dir):
    """Per-origin out-degree over the linkset (ops/graph.out_degrees:
    per-batch partial counts + coarse-bucket merge)."""
    from .ops.graph import out_degrees

    return out_degrees(tpch_linkset(sf_dir))


def q_kg_pagerank(sf_dir):
    """PageRank over the linkset's IRI-target entity graph (iterative,
    one fused bucket shuffle per round). Self-gated (ranks sum to 1;
    most-referenced entities outrank leaf customers) AND hash-checked
    against a DuckDB oracle that replays the identical fixed-iteration
    recurrence with unrolled CTE steps (same damping, dangling-mass
    reinjection, parallel-edge multiplicity); ranks rounded to 8
    decimals on both sides to absorb summation-order float drift."""
    from .ops.graph import pagerank

    out = pagerank(tpch_linkset(sf_dir), n_iters=10).to_pandas()
    total = float(out["rank"].sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"pagerank mass {total} != 1")
    ranks = dict(zip(out["node"], out["rank"]))
    some_nation = max(
        (v for k, v in ranks.items() if ":nation:" in k), default=0.0
    )
    some_customer = max(
        (v for k, v in ranks.items() if ":customer:" in k), default=1.0
    )
    if some_nation <= some_customer:
        raise AssertionError("nations must outrank leaf customers")
    out["rank"] = out["rank"].round(8)
    return out.sort_values("node", ignore_index=True)


def q_graph_wcc(sf_dir):
    """Weakly connected components over the linkset's geography edges
    (inNation/inRegion): distributed string min-label propagation, one
    fused bucket shuffle per round. Component = lexicographic-min node
    IRI; hash-checked against a DuckDB recursive-CTE reachability
    oracle."""
    from .ops.graph import weakly_connected_components

    return weakly_connected_components(
        tpch_linkset(sf_dir), rels=[IN_NATION, IN_REGION]
    )


# schema-sized class hierarchy for the entailment query (broadcast
# side; the corpus-sized type links stream through map_batches)
SUBCLASS_PAIRS = [
    ("urn:versa:Customer", "urn:versa:Agent"),
    ("urn:versa:Supplier", "urn:versa:Agent"),
    ("urn:versa:Agent", "urn:versa:Entity"),
    ("urn:versa:Nation", "urn:versa:Place"),
    ("urn:versa:Region", "urn:versa:Place"),
    ("urn:versa:Place", "urn:versa:Entity"),
]


def q_kg_type_entailment(sf_dir):
    """RDFS-style type entailment: distinct (origin, cls) for direct
    types plus all transitive supertypes from the schema-sized
    subclass hierarchy (driver closure + broadcast; no class-keyed
    shuffle — hot classes are maximally skewed keys). Hash-checked
    against a DuckDB recursive-CTE oracle."""
    from .ops.graph import entail_types

    return entail_types(tpch_linkset(sf_dir), SUBCLASS_PAIRS)


SAMEAS_REL = "http://www.w3.org/2002/07/owl#sameAs"
MENTIONS_REL = URN + "mentions"


def _alias_links(sf_dir):
    """Deterministic owl:sameAs test fixture derived from the customer
    table: every customer with ``c_custkey % 10 == 1`` gains a 2-hop
    alias chain (alias:b sameAs alias:a sameAs customer), a literal
    statement ON the alias, and a statement POINTING AT the alias —
    exercising origin rewrite, target rewrite and transitivity."""
    import ray.data as rd

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"])

    def _mk(tbl: pa.Table) -> pa.Table:
        keys = [int(k) for k in tbl["c_custkey"].to_pylist() if k % 10 == 1]
        a = [f"{URN}alias:a:{k}" for k in keys]
        b = [f"{URN}alias:b:{k}" for k in keys]
        c = [f"{URN}customer:{k}" for k in keys]
        r = [f"{URN}ref:{k}" for k in keys]
        nm = [f"Alias of customer {k}" for k in keys]
        return pa.concat_tables([
            _links_table(a, SAMEAS_REL, c, True),
            _links_table(b, SAMEAS_REL, a, True),
            _links_table(b, NAME, nm, False),
            _links_table(r, MENTIONS_REL, a, True),
        ])

    return cust.map_batches(_mk, batch_format="pyarrow")


def q_kg_personalized_pagerank(sf_dir):
    """Personalized PageRank seeded on the region entities — the
    entity-relatedness primitive (teleport + dangling mass flow to
    the uniform-over-seeds vector instead of 1/N; same fused
    one-shuffle-per-iteration engine as kg_pagerank). Hash-checked
    against the same unrolled-CTE DuckDB replay, generalized with the
    seed vector; ranks rounded to 8 decimals on both sides."""
    import pyarrow.parquet as _pq

    from .ops.graph import pagerank

    keys = _pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey"]
    )["r_regionkey"].to_pylist()
    seeds = [f"{URN}region:{k}" for k in keys]
    out = pagerank(
        tpch_linkset(sf_dir), n_iters=10, personalize=seeds).to_pandas()
    total = float(out["rank"].sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"personalized pagerank mass {total} != 1")
    out["rank"] = out["rank"].round(8)
    return out.sort_values("node", ignore_index=True)


def q_kg_sameas_canonical(sf_dir):
    """owl:sameAs entity canonicalization (ops.graph.sameas_canonicalize):
    min-label WCC over the sameAs graph, then a fully distributed
    bucket-join rewrite of origins AND targets to the component's
    min IRI, sameAs statements dropped, result globally deduped. The
    corpus-proportional mapping never broadcasts. Hash-checked
    against a DuckDB recursive-CTE + left-join-rewrite oracle."""
    from .ops.graph import sameas_canonicalize

    ds = tpch_linkset(sf_dir).union(_alias_links(sf_dir))
    return sameas_canonicalize(ds)


def q_links_shacl(sf_dir):
    """SHACL-lite shape validation: one origin-keyed bucket shuffle of
    tagged type rows + rule-bounded property-count partials. Rules
    chosen to exercise all three outcomes — a missing-property rule
    (customers lack inRegion), an excess rule (nations may not have a
    name), and a conforming rule (customers have exactly one name →
    no rows). Hash-checked against a SQL oracle."""
    from .ops.validate import validate_shapes

    rules = [
        {"target_type": f"{URN}Customer", "property": IN_REGION, "min": 1},
        {"target_type": f"{URN}Nation", "property": NAME, "max": 0},
        {"target_type": f"{URN}Customer", "property": NAME,
         "min": 1, "max": 1},
    ]
    return validate_shapes(tpch_linkset(sf_dir), rules)


def q_links_jsonld_nested(sf_dir):
    """Distributed INLINED JSON-LD binder over the linkset (iterative
    leaf-inlining shuffle). Self-gated by exactness: the nested
    output, flattened back to (id, key, value) triples, must equal
    the triple set derived directly from the deduped links; raises on
    any lost/duplicated/misplaced edge. RETURNS that flattened triple
    set (the nested JSON itself is not SQL-expressible, but its exact
    expansion is), so the DuckDB oracle independently rebuilds the
    same triples from the relational linkset — a failure in the
    binder now trips BOTH the self-gate and the external hash."""
    import json

    from .core import RDF_TYPE_REL
    from .serial.jsonld import bind_ds

    from .core.dsutil import rows_of

    ds = tpch_linkset(sf_dir)
    rows = rows_of(bind_ds(ds))

    got = set()

    def _walk(obj):
        oid = obj.get("@id", "_:b")
        t = obj.get("@type")
        if t:
            for tt in [t] if isinstance(t, str) else t:
                got.add((oid, "@type", tt))
        for k, v in obj.items():
            if k in ("@id", "@type"):
                continue
            for item in v if isinstance(v, list) else [v]:
                if isinstance(item, dict):
                    got.add((oid, k, item.get("@id", "?")))
                    _walk(item)
                else:
                    got.add((oid, k, item))

    for r in rows:
        _walk(json.loads(r["node"]))

    type_rels = {TYPE, str(RDF_TYPE_REL)}
    want = set()
    for l in rows_of(linkset.distinct_links(ds)):
        key = "@type" if l["rel"] in type_rels else l["rel"]
        want.add((l["origin"], key, l["target"]))
    if got != want:
        raise AssertionError(
            f"nested binder expansion drift: {len(got - want)} extra, "
            f"{len(want - got)} missing triples"
        )
    trip = sorted(got)
    return pd.DataFrame(
        {
            "origin": [t[0] for t in trip],
            "pred": [t[1] for t in trip],
            "target": [t[2] for t in trip],
        }
    )


def q_fullquery_negation(sf_dir):
    """FULL Versa query language (query/full.py — working semantics
    for the surface the reference left unfinished): safe negation
    plus a function-call match argument, evaluated over the
    distributed linkset. BUILDING-segment customers NOT in nation 3;
    relational anti-join oracle."""
    from .query import execute

    result = execute(
        tpch_linkset(sf_dir),
        "?($c, SEG, 'BUILDING') and not ?($c, NAT, concat(URNV, 'nation:3'))",
        {"SEG": SEGMENT, "NAT": IN_NATION, "URNV": URN},
    )
    return pd.DataFrame({"c": sorted(result.get("c", set()))})


def q_fullquery_disjunction(sf_dir):
    """FULL query language: conjunction threading into a grouped
    disjunction with proper precedence — entities in nation 3 that
    are suppliers OR customers; IN-list oracle."""
    from .query import execute

    result = execute(
        tpch_linkset(sf_dir),
        "?($e, NAT, URNV 'nation:3') and "
        "(?($e, T, URNV 'Supplier') or ?($e, T, URNV 'Customer'))",
        {"NAT": IN_NATION, "URNV": URN, "T": TYPE},
    )
    return pd.DataFrame({"e": sorted(result.get("e", set()))})


def q_fullquery_store(sf_dir):
    """FULL query language over the STORED link-set: every ?()
    conjunct — including the negated one — is a partition-pruned
    read_linkset call (rel literals prune rel_bucket files). Same
    answer as q_fullquery_negation's distributed-linkset evaluation;
    raises unless the rel literals actually prune the store's
    files."""
    import shutil
    import tempfile

    from .model.store import pruned_fragments, write_linkset
    from .query import execute
    from .query.mini import StoreModel

    store = tempfile.mkdtemp(prefix="vr_fqstore_")
    try:
        write_linkset(tpch_linkset(sf_dir), store,
                      num_rel_buckets=8, num_partitions=8)
        total = len(pruned_fragments(store))
        for rel in (SEGMENT, IN_NATION):
            if not len(pruned_fragments(store, rel=rel)) < total:
                raise AssertionError("store full-query: rel did not prune")
        result = execute(
            StoreModel(store),
            "?($c, SEG, 'BUILDING') and not "
            "?($c, NAT, concat(URNV, 'nation:3'))",
            {"SEG": SEGMENT, "NAT": IN_NATION, "URNV": URN},
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return pd.DataFrame({"c": sorted(result.get("c", set()))})


def q_fullquery_large(sf_dir):
    """FULL query language with DATASET-BACKED binding sets: same
    safe-negation query as q_fullquery_negation, but evaluated with
    ``ds_threshold=8`` so every variable's binding set exceeds the
    threshold and stays a Dataset — conjunction threading becomes
    distributed ``left_semi`` joins and the negation a ``left_anti``
    join (query/mini.py DSBindings); the driver never materializes
    an intermediate binding set. Gated: raises unless the final
    binding actually came back Dataset-backed. Same anti-join
    DuckDB oracle as fullquery_negation."""
    from .query import execute
    from .query.mini import DSBindings

    result = execute(
        tpch_linkset(sf_dir),
        "?($c, SEG, 'BUILDING') and not ?($c, NAT, concat(URNV, 'nation:3'))",
        {"SEG": SEGMENT, "NAT": IN_NATION, "URNV": URN},
        ds_threshold=8,
        as_datasets=True,
    )
    bound = result.get("c", set())
    if not isinstance(bound, DSBindings):
        raise AssertionError(
            "fullquery_large: binding set collapsed to a driver set "
            "(%r) — the Dataset-backed path was not exercised" % (type(bound),)
        )
    return pd.DataFrame({"c": sorted(bound.to_set())})


def q_miniquery_conj(sf_dir):
    from .query import evaluate

    ls = tpch_linkset(sf_dir)
    result = evaluate(
        "?($a, NAME, *) and ?($a, SEG, 'BUILDING')",
        ls,
        {"NAME": NAME, "SEG": SEGMENT},
    )
    return pd.DataFrame({"a": sorted(result.get("a", set()))})


def q_miniquery_store(sf_dir):
    """The same conjunctive mini-query evaluated against the STORED
    link-set: each ?() conjunct becomes a partition-PRUNED
    read_linkset call (literal rel -> rel_bucket file pruning; a
    var bound by the left conjunct prunes the right conjunct's origin
    partitions). Same SQL oracle as miniquery_conj — the pruned plan
    must not change the answer. Raises unless both conjuncts' rel
    literals AND the bound-origin set each prune to a strict subset
    of the store's files."""
    import shutil
    import tempfile

    from .model.store import pruned_fragments, write_linkset
    from .query import evaluate
    from .query.mini import StoreModel

    store = tempfile.mkdtemp(prefix="vr_mqstore_")
    try:
        write_linkset(tpch_linkset(sf_dir), store,
                      num_rel_buckets=8, num_partitions=8)
        total = len(pruned_fragments(store))
        for rel in (NAME, SEGMENT):
            if not len(pruned_fragments(store, rel=rel)) < total:
                raise AssertionError("store mini-query: rel did not prune")
        result = evaluate(
            "?($a, NAME, *) and ?($a, SEG, 'BUILDING')",
            StoreModel(store),
            {"NAME": NAME, "SEG": SEGMENT},
        )
        # the bound-$a origin set (what conjunct 2's read receives)
        # must prune origin partitions too — probe with a 3-origin
        # subset (3 < 8 part_ids, so a working pruner MUST return a
        # strict file subset; a large bound set legitimately covers
        # every partition and proves nothing)
        sample = set(sorted(result.get("a", set()))[:3]) or {"urn:none"}
        if not len(pruned_fragments(store, origin=sample)) < total:
            raise AssertionError("store mini-query: origin set did not prune")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return pd.DataFrame({"a": sorted(result.get("a", set()))})


def q_transitive_closure(sf_dir):
    ls = tpch_linkset(sf_dir)
    # inNation then inRegion form a 2-level hierarchy; closure from a customer
    seen = linkset.transitive_closure(ls, f"{URN}customer:1", IN_NATION)
    out = set(seen)
    for n in list(seen):
        out |= linkset.transitive_closure(ls, n, IN_REGION)
    return pd.DataFrame({"node": sorted(out)})


def q_csv_template_links(sf_dir):
    """Distributed record-template ingestion: each nation row fills a
    Versa Literate template, parses doc-locally, emits link rows
    (serial/csvrec.rows_to_links_ds)."""
    import ray.data as rd

    from .serial.csvrec import rows_to_links_ds

    tmpl = (
        "# urn:versa:nation:{n_nationkey} [<urn:versa:Nation>]\n\n"
        f"* <{NAME}>: {{n_name}}\n\n"
    )
    ds = rd.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    out = rows_to_links_ds(ds, tmpl)
    return out


def q_links_csv_roundtrip(sf_dir):
    """CSV projection sink -> record-template ingestion ROUND TRIP:
    nation resources project to id/type/name CSV rows through the
    distributed origin-adjacency writer (model/linkset.write_csv_ds,
    the at-scale form of serial/csv.py:177-212's write), then every
    row re-ingests through the Versa Literate template path
    (serial/csvrec.rows_to_links_ds) — ending where it started, at
    the nations' TYPE + NAME links (same oracle as
    csv_template_links)."""
    import shutil

    import pyarrow.compute as pc
    import ray.data as rd

    from .model.linkset import write_csv_ds
    from .serial.csvrec import rows_to_links_ds

    ls = tpch_linkset(sf_dir)
    sub = ls.map_batches(
        lambda t: t.filter(pc.starts_with(t["origin"], pattern=URN + "nation:")),
        batch_format="pyarrow",
    )
    root = "/tmp/versa_ray_csv_rt_q"
    shutil.rmtree(root, ignore_errors=True)
    files = write_csv_ds(sub, root, [(NAME, "name")])
    tmpl = "# {id} [<{type}>]\n\n" + f"* <{NAME}>: {{name}}\n\n"
    rows = rd.read_csv(files)
    return rows_to_links_ds(rows, tmpl)


def q_literate_corpus(sf_dir):
    """Distributed Versa Literate ingestion over a corpus of FILES:
    one .vlit document per nation is written to scratch, parsed
    doc-locally by read_literate_ds (one micro-model per file), and
    the union of links is checked against the SQL oracle."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from .serial.literate import read_literate_ds

    root = "/tmp/versa_ray_vlit_corpus_q"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    tbl = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    for k, name in zip(tbl["n_nationkey"].to_pylist(), tbl["n_name"].to_pylist()):
        with open(os.path.join(root, f"nation{k}.vlit"), "w") as f:
            f.write(
                f"# urn:versa:nation:{k} [<urn:versa:Nation>]\n\n"
                f"* <{NAME}>: {name}\n\n"
            )
    out = read_literate_ds(root)
    return out.select_columns(LINK_COLS)


def q_nt_roundtrip(sf_dir):
    """NTriples codec at scale: render NT lines from rows inside one
    map_batches, parse them back with the NT parser in the next."""
    import pyarrow as pa
    import ray.data as rd

    from .serial.ntriples import parse_links

    def _render(tbl: pa.Table) -> pa.Table:
        lines = [
            '<urn:versa:supplier:%d> <%s> "%s" .' % (k, NAME, n)
            for k, n in zip(tbl["s_suppkey"].to_pylist(), tbl["s_name"].to_pylist())
        ]
        return pa.table({"line": pa.array(lines)})

    def _parse(tbl: pa.Table) -> pa.Table:
        rows = []
        for line in tbl["line"].to_pylist():
            for o, r, t, a in parse_links(line):
                rows.append(
                    {"origin": str(o), "rel": str(r), "target": str(t)}
                )
        if not rows:
            return pa.table(
                {"origin": pa.array([], type=pa.string()),
                 "rel": pa.array([], type=pa.string()),
                 "target": pa.array([], type=pa.string())}
            )
        return pa.Table.from_pylist(rows)

    ds = rd.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    return ds.map_batches(_render, batch_format="pyarrow").map_batches(
        _parse, batch_format="pyarrow"
    )


# -- documents --------------------------------------------------------------


def _blocks_for(n_cpus_mult=1):
    """Sane block count for the small test tables: ~cpus blocks, not
    Ray's default parallelism (which shreds a 5k-row table into ~200
    near-empty blocks and drowns every shuffle in per-task overhead)."""
    import ray

    try:
        return max(8, int(ray.cluster_resources().get("CPU", 8)) * n_cpus_mult)
    except Exception:
        return 16


def _docs(sf_dir):
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", override_num_blocks=_blocks_for()
    )


def _docs_with(sf_dir, columns):
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(columns),
        override_num_blocks=_blocks_for(),
    )


def q_doc_exact_dedup(sf_dir):
    import ray.data as rd

    docs = _docs(sf_dir)
    shifted = docs.map_batches(
        lambda df: df.assign(doc_id=df.doc_id + 1000000), batch_format="pandas"
    )
    return dd.exact_dedup(docs.union(shifted), key="text", id_col="doc_id")


def q_doc_incremental_dedup(sf_dir):
    """Cross-run exact dedup replay: the corpus (plus shifted-id
    duplicates) arrives as two micro-batches through a persistent
    fingerprint-bucket state store; the union of 'new' docs from both
    calls must equal the one-shot batch dedup — hash-checked against
    the same SQL oracle shape as doc_exact_dedup. Only touched state
    partitions are read/rewritten per call."""
    import shutil
    import tempfile

    docs = _docs(sf_dir)
    shifted = docs.map_batches(
        lambda df: df.assign(doc_id=df.doc_id + 1000000), batch_format="pandas"
    )
    state = tempfile.mkdtemp(prefix="vr_incdedup_")
    try:
        first, _ = dd.incremental_exact_dedup(
            state, docs, key="text", id_col="doc_id")
        first = first.materialize()  # consume before state mutates again
        second, _ = dd.incremental_exact_dedup(
            state, shifted, key="text", id_col="doc_id")
        out = first.union(second.materialize()).to_pandas()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return out[["doc_id", "text"]]


def q_doc_line_dedup(sf_dir):
    """CCNet-style line-level dedup over 10-token line windows: the
    corpus-wide first occurrence of each distinct line survives, every
    other copy is dropped from its document, documents reassemble in
    order (ops.dedup.line_dedup — two coarse-bucket shuffles, no
    driver state). Hash-checked against a DuckDB window-function
    replay of the same first-wins rule."""
    return dd.line_dedup(_docs(sf_dir), line_words=10)


def q_doc_dup_spans(sf_dir):
    """Exact-substring dedup detection (Lee et al. 2022 policy,
    k-gram-run form): maximal per-document token spans whose every
    8-gram occurs in >= 2 distinct documents (ops.dedup.dup_spans —
    two coarse-bucket shuffles, gram strings ride the shuffle so hash
    collisions cannot merge grams). Hash-checked against a DuckDB
    gaps-and-islands replay."""
    return dd.dup_spans(
        _docs_with(sf_dir, ["doc_id", "text"]), k=8, min_docs=2)


def q_doc_strip_dup_spans(sf_dir):
    """Companion to doc_dup_spans: removes ALL copies of every
    duplicated span from its document and reassembles the survivors
    in token order (ops.dedup.remove_dup_spans — one extra doc-keyed
    bucket shuffle). Hash-checked against a DuckDB anti-join over the
    covered token positions."""
    return dd.remove_dup_spans(
        _docs_with(sf_dir, ["doc_id", "text"]), k=8, min_docs=2)


def q_doc_incremental_minhash(sf_dir):
    """Cross-run NEAR-dup dedup replay: the corpus arrives as two
    doc_id-ordered micro-batches through a persistent LSH band-bucket
    + rep-signature state store (ops.dedup.incremental_minhash_dedup);
    the concatenated per-delta assignments must equal one-shot batch
    minhash_dedup — hash-checked against the SAME exact-Jaccard
    connected-components oracle (valid because this corpus has no
    cross-delta cluster bridges; see the op's streaming caveat). Only
    touched state partitions are read/rewritten per call."""
    import shutil
    import tempfile

    docs = _docs(sf_dir).materialize()
    # id column only — never the text — reaches the driver for the split
    mid = int(docs.select_columns(["doc_id"]).to_pandas()["doc_id"].median())
    d1 = docs.map_batches(
        lambda df: df[df["doc_id"] <= mid], batch_format="pandas")
    d2 = docs.map_batches(
        lambda df: df[df["doc_id"] > mid], batch_format="pandas")
    state = tempfile.mkdtemp(prefix="vr_incminhash_")
    try:
        a1, _ = dd.incremental_minhash_dedup(state, d1, threshold=0.5)
        a1 = a1.materialize()  # consume before state mutates again
        a2, _ = dd.incremental_minhash_dedup(state, d2, threshold=0.5)
        out = a1.union(a2.materialize()).to_pandas()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def q_doc_token_stats(sf_dir):
    ds = _docs(sf_dir).map_batches(
        lambda df: textstats.token_stats(df)[
            ["doc_id", "n_chars", "n_tokens", "n_bpe_tokens", "n_digits"]
        ],
        batch_format="pandas",
    )
    return ds


def q_doc_lang_counts(sf_dir):
    """Five-language rollup — small-cardinality combiner path, no
    sort-shuffle (ops/agg.grouped_agg_small)."""
    from .ops.agg import grouped_agg_small

    return grouped_agg_small(
        _docs(sf_dir), ["lang"],
        {"n_docs": ("n_chars", "size"), "sum_chars": ("n_chars", "sum")},
    )


def q_doc_stratified_sample(sf_dir):
    """Deterministic stratified sample: 20 docs per language by
    md5(doc_id) rank — reproducible across re-runs/re-executed tasks
    and SQL-oracle-checkable (DuckDB md5 over row_number window)."""
    import ray.data as rd

    from .ops.sample import stratified_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"],
        override_num_blocks=_blocks_for(),
    )
    return stratified_sample(ds, "lang", 20, "doc_id")


def q_doc_uniform_sample(sf_dir):
    """Deterministic global sample of 50 docs by md5(doc_id) rank."""
    import ray.data as rd

    from .ops.sample import uniform_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"],
        override_num_blocks=_blocks_for(),
    )
    return uniform_sample(ds, 50, "doc_id")


def q_doc_token_budget(sf_dir):
    """Per-source token-budget selection (mixture construction): per
    language, keep docs in md5(doc_id) rank order while the running
    whitespace-token total stays <= 2000. Only a slim (lang, rank,
    doc_id, n_tokens) table shuffles; the DuckDB oracle replays the
    selection with a window cumsum over the same md5 rank."""
    import ray.data as rd

    from .ops.sample import token_budget_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"],
        override_num_blocks=_blocks_for(),
    )
    return token_budget_sample(ds, 2000, "lang", "doc_id")


def q_doc_contamination(sf_dir):
    """Benchmark-contamination flagging: snippets lifted from two
    corpus documents (deterministic, self-contained) must flag at
    least their source docs; exact substring containment is the SQL
    oracle (position(snippet IN text))."""
    import duckdb

    from .ops.contamination import flag_contaminated

    con = duckdb.connect()
    snips = [
        r[0]
        for r in con.execute(
            "SELECT substr(text, 11, 30) FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "WHERE doc_id IN (3, 7) AND length(text) > 10 ORDER BY doc_id"
        ).fetchall()
    ]
    con.close()
    out = flag_contaminated(_docs(sf_dir), snips)
    df = out.to_pandas()
    if 3 not in set(df["doc_id"]):
        raise AssertionError("snippet source doc 3 must flag itself")
    return df.sort_values("doc_id", ignore_index=True)


def q_doc_norm_text(sf_dir):
    """Canonical text normalization (NFC + lower + whitespace collapse
    + trim), vectorized; byte-exact vs the DuckDB oracle."""
    return _docs(sf_dir).map_batches(
        lambda df: textstats.normalize_text(df)[["doc_id", "norm_text"]],
        batch_format="pandas",
    )


def q_doc_chunks(sf_dir):
    """Training-window chunking (32-token windows, 8-token overlap):
    vectorized whitespace-token slicing via precomputed char offsets,
    one shuffle-free map_batches pass; byte-exact vs the DuckDB
    list-slicing oracle."""
    from .ops.chunking import chunk_documents

    return chunk_documents(_docs(sf_dir), chunk_tokens=32, overlap=8)


def q_doc_pack_sequences(sf_dir):
    """GPT-style concat-and-split sequence packing: corpus tokens
    concatenated in doc_id order, split every 512; one row per
    (doc, sequence) overlap. The global prefix sum is distributed
    (range partition + per-range totals + vectorized cumsum per
    range); DuckDB replays it with a window cumsum."""
    import ray.data as rd

    from .ops.chunking import pack_sequences

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=_blocks_for(),
    )
    return pack_sequences(ds, 512, num_ranges=16)


def q_doc_top_tokens(sf_dir):
    """Global top-50 whitespace tokens (count desc, token asc):
    per-batch vectorized counts, bucket-merged totals, bounded final
    merge."""
    return textstats.top_tokens(_docs(sf_dir), k=50)


# query strings for the sparse-retrieval entry; drawn from the
# synthetic corpus vocabulary so each query has real matches
BM25_QUERIES = [
    "spark merge join",
    "window batch stream",
    "customer line order",
    "slow scan filter",
]


def q_doc_bm25(sf_dir):
    """BM25 top-10 lexical retrieval for four fixed queries: one
    bounded stats pass (per-term df + corpus length via the two-phase
    small-agg), then one scoring pass with vectorized per-term
    str.count kernels and per-block local top-k; rank ties broken by
    doc_id after rounding scores to 9 decimals (mirrored in the SQL
    oracle)."""
    from .ops.retrieval import bm25_search

    return bm25_search(_docs(sf_dir), BM25_QUERIES, k=10)


SPLIT_WEIGHTS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_doc_split(sf_dir):
    """Deterministic train/val/test split by md5(doc_id) — pure
    streaming map, no shuffle, partition/rerun-invariant; the hex
    boundary comparison is integer-exact on both sides (SQL oracle
    compares the same fixed-width hex strings)."""
    from .ops.sample import split_by_hash

    out = split_by_hash(_docs(sf_dir), SPLIT_WEIGHTS, id_col="doc_id")
    return out.select_columns(["doc_id", "split"])



_RE2_META = set("\\^$.|?*+()[]{}")


def _re2_escape(text: str) -> str:
    """Minimal regex escape for the DuckDB (RE2) oracle side: RE2
    rejects unknown escapes, so only true metacharacters get a
    backslash (re.escape escapes spaces etc., which RE2 errors on)."""
    return "".join(
        ("\\" + c) if c in _RE2_META else c for c in text)

GAZETTEER = {
    "spark": "urn:gaz:spark",
    "window": "urn:gaz:window",
    "customer": "urn:gaz:customer",
    "hash join": "urn:gaz:hash-join",
}


def q_doc_mentions(sf_dir):
    """Gazetteer mention detection (the KG pipeline's batched
    mention-detection stage) as an actor pool: patterns compiled once
    per actor, vectorized presence tests per batch. Hash-checked
    against a SQL oracle using the shared whole-token-run contract."""
    from .ops.mentions import detect_mentions

    return detect_mentions(_docs(sf_dir), GAZETTEER, concurrency=2)


def q_doc_lm2_perplexity(sf_dir):
    """Per-document add-one BIGRAM log-perplexity against the
    corpus-estimated bigram LM (ops.lm.doc_bigram_perplexity): the
    bigram table is corpus-proportional by construction so there is
    no broadcast path — context totals derive inside the same
    w1-keyed bucket pass that merges bigram counts and attaches doc
    log-probs. Hash-checked against a DuckDB join replay."""
    from .ops.lm import doc_bigram_perplexity

    return doc_bigram_perplexity(_docs_with(sf_dir, ["doc_id", "text"]))


PLACED_BY = URN + "placedBy"


def q_kg_bfs_depth(sf_dir):
    """Minimum hop distance from a seed set (ops.graph.bfs_depths):
    breadth-first frontier expansion where the frontier stays a
    Dataset end-to-end — one fused coarse-bucket shuffle per hop over
    a tagged (visited / edge / token) working set, the driver sees a
    scalar per round. Graph: order -placedBy-> customer -inNation->
    nation -inRegion-> region (depth 3 from order seeds). Hash-checked
    against a DuckDB recursive-CTE min-depth oracle."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    from .ops.graph import bfs_depths

    def _order_links(tbl: pa.Table) -> pa.Table:
        ok = tbl["o_orderkey"].to_pylist()
        ck = tbl["o_custkey"].to_pylist()
        return _links_table(
            [f"{URN}order:{k}" for k in ok], PLACED_BY,
            [f"{URN}customer:{c}" for c in ck], True)

    order_links = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(_order_links, batch_format="pyarrow")
    links = tpch_linkset(sf_dir).union(order_links)

    keys = _pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )["o_orderkey"].to_pylist()
    seeds = [f"{URN}order:{k}" for k in keys if k % 100 == 1]
    return bfs_depths(
        links, seeds, rels=[PLACED_BY, IN_NATION, IN_REGION])


def _coorder_pairs(sf_dir):
    """(u, v) part pairs, u < v, once per order containing both."""
    import ray.data as rd

    from .core.exchange import bucketed_group_apply

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"],
        override_num_blocks=_blocks_for(),
    )

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        parts = np.unique(group["l_partkey"].to_numpy())
        ia, ib = np.triu_indices(len(parts), k=1)
        return pd.DataFrame({"u": parts[ia], "v": parts[ib]})

    def _uv(sch):
        return pa.schema([("u", sch.field("l_partkey").type),
                          ("v", sch.field("l_partkey").type)])

    return bucketed_group_apply(li, ["l_orderkey"], _pairs, _uv,
                                min_group_size=2)


def _coorder_edges(sf_dir):
    """Canonical distinct edges of the parts-co-ordered graph (two
    parts adjacent when some order contains both)."""
    from .core.exchange import distinct_rows

    return distinct_rows(_coorder_pairs(sf_dir), ["u", "v"], lambda s: s)


def _coorder_edges_multi(sf_dir, min_orders=2):
    """Canonical edges of the TWICE-co-ordered parts graph: two parts
    adjacent only when >= ``min_orders`` distinct orders contain
    both. Orders of magnitude sparser than the plain co-order graph
    (hub parts co-order with hundreds of others once, but repeat
    co-orders are rare) — the right projection for quadratic-fan-out
    consumers (wedge enumeration, peeling)."""
    from .core.exchange import exchange

    def _multi(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["u", "v"], as_index=False, sort=False).size()
        return g[g["size"] >= min_orders]

    return exchange(_coorder_pairs(sf_dir), ["u", "v"], _multi,
                    lambda s: s)


def q_part_kcore(sf_dir):
    """3-core of the twice-co-ordered parts graph (edges require >= 2
    distinct shared orders, which leaves a sparse periphery for the
    peel to remove — ~10 rounds at sf0.01): iterative distributed
    peeling (ops.graph.k_core), one degree shuffle + two endpoint
    semi-filters per round, scalar dropped-count to the driver,
    raises rather than returning a truncated core. Hash-checked
    against a DuckDB unrolled-round replay (both sides bound to the
    same 24 rounds, so disagreement can only be loud, never silent)."""
    from .ops.graph import k_core

    return k_core(_coorder_edges_multi(sf_dir), k=3, max_rounds=24)


def _lpa_sql(n_rounds=4):
    """DuckDB replay of ops.graph.label_propagation over the parts
    co-order graph, rounds UNROLLED into materialized CTE steps
    (MATERIALIZED matters: DuckDB inlines plain CTEs, and a chain
    referenced 2-3x per step explodes the scan tree exponentially).
    Deterministic rule: label_k(v) = argmax-count over neighbors'
    label_{k-1}, ties to the smallest label — replayed with a
    QUALIFY row_number ordered (count DESC, label ASC)."""
    steps = []
    for k in range(1, n_rounds + 1):
        steps.append(
            f"l{k} AS MATERIALIZED (SELECT node, label FROM ("
            f"SELECT bd.a AS node, p.label AS label, count(*) AS c "
            f"FROM bd JOIN l{k - 1} p ON p.node = bd.b GROUP BY 1, 2 "
            f"QUALIFY row_number() OVER (PARTITION BY bd.a "
            f"ORDER BY count(*) DESC, p.label ASC) = 1))")
    return (
        "WITH e AS MATERIALIZED (SELECT DISTINCT a.l_partkey AS u, "
        "b.l_partkey AS v FROM lineitem a JOIN lineitem b "
        "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey), "
        "bd AS MATERIALIZED (SELECT u AS a, v AS b FROM e "
        "UNION ALL SELECT v, u FROM e), "
        "l0 AS MATERIALIZED (SELECT DISTINCT a AS node, a AS label "
        "FROM bd), "
        + ", ".join(steps)
        + f" SELECT node, label FROM l{n_rounds}"
    )


def q_part_communities(sf_dir):
    """Communities of the parts co-order graph by 4 rounds of
    deterministic synchronous label propagation
    (ops.graph.label_propagation: argmax neighbor label, ties to the
    smallest; two coarse-bucket shuffles per round, label table never
    driver-side). The bounded round count makes the result a pure
    function of the graph, hash-checked against a DuckDB
    unrolled-round QUALIFY replay."""
    from .ops.graph import label_propagation

    return label_propagation(_coorder_edges(sf_dir), n_rounds=4)


def q_part_neighbor_jaccard(sf_dir):
    """Structural entity-resolution candidates over the
    twice-co-ordered parts graph: node pairs whose neighbor sets
    agree with Jaccard >= 0.25 (ops.graph.neighborhood_jaccard).
    Candidates come from wedge enumeration at the shared neighbor —
    never all-pairs — and degrees ride two slim tagged bucket joins.
    The m>=2 projection matters: wedge fan-out is quadratic in hub
    degree, and the PLAIN co-order graph's sf0.01 hubs (degree ~10^3)
    push the wedge set past 10^8 in both engine and oracle.
    Hash-checked against a DuckDB bidirectional self-join replay."""
    from .ops.graph import neighborhood_jaccard

    return neighborhood_jaccard(_coorder_edges_multi(sf_dir),
                                min_sim=0.25)


def q_part_assortativity(sf_dir):
    """Degree assortativity (Newman's r: Pearson correlation of
    endpoint degrees over both edge orientations) of the parts
    co-order graph; six scalar moments reduce to the driver, nothing
    edge-cardinality materializes. Hash-checked against DuckDB
    corr() over the same bidirectional degree-annotated edge list."""
    from .ops.graph import degree_assortativity

    return degree_assortativity(_coorder_edges(sf_dir))


def q_kg_hits(sf_dir):
    """Kleinberg hubs & authorities over the customer->part directed
    bipartite order graph (customer u links to every part they ever
    ordered), 2 full rounds of UNNORMALIZED integer HITS
    (ops.graph.hits_scores): hubs are broad-basket customers,
    authorities popular parts. All-integer scores make the iteration
    a pure function of the graph — the DuckDB oracle unrolls the
    same rounds as joins and hash-checks every (node, hub, auth)
    bit-exactly. Part nodes are offset by 10_000_000 to disjointify
    the key spaces."""
    import ray.data as rd

    from .core.exchange import distinct_rows
    from .ops.graph import hits_scores
    from .ops.joins import salted_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"],
        override_num_blocks=_blocks_for(),
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        override_num_blocks=_blocks_for(),
    )
    joined = salted_join(li, orders, on="l_orderkey",
                         right_on="o_orderkey", salt=4)

    def _edge(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "u": df["o_custkey"].to_numpy(dtype=np.int64),
            "v": df["l_partkey"].to_numpy(dtype=np.int64) + 10_000_000})

    edges = distinct_rows(
        joined.map_batches(_edge, batch_format="pandas"), ["u", "v"],
        pa.schema({"u": pa.int64(), "v": pa.int64()}))
    return hits_scores(edges, n_rounds=2)


def q_kg_schema_profile(sf_dir):
    """Schema induction over the urn:versa linkset
    (ops.graph.schema_profile): link counts per (rel, origin_type,
    target_type) — the usage matrix an ontology domain/range
    validator checks, computed with two type-attach bucket joins and
    only count partials leaving them. Hash-checked against a DuckDB
    double-LEFT-JOIN replay over the same linkset CTE."""
    from .ops.graph import schema_profile

    return schema_profile(tpch_linkset(sf_dir))


def q_part_clustering(sf_dir):
    """Per-node local clustering coefficient of the parts-co-ordered
    graph (ops.graph.clustering_coefficients): wedges carry their
    center through the edge semi-join, matched wedges credit all
    three corners, degrees and triangle counts merge on node-keyed
    shuffles. Hash-checked against a DuckDB three-way-join replay."""
    from .ops.graph import clustering_coefficients

    return clustering_coefficients(_coorder_edges(sf_dir))


def q_kg_negative_samples(sf_dir):
    """Deterministic TransE-style corrupted triples for KG-embedding
    training (ops.graph.negative_samples): entity vocabulary ranked
    by the distributed zip-with-index primitive (three bounded
    passes), two md5 draws per geography statement resolved to
    entities by tagged-union rank joins, true-target collisions
    shifted to the next rank. Hash-checked against a DuckDB
    row_number + hex-cast md5 replay."""
    from .ops.graph import negative_samples

    return negative_samples(
        tpch_linkset(sf_dir), n_neg=2, rels=[IN_NATION, IN_REGION])


def q_kg_mention_cooccurrence(sf_dir):
    """Entity co-occurrence edge construction from gazetteer mentions
    (ops.graph.cooccurrence_edges): distinct (doc, entity) dedup, a
    doc-keyed pair-emit pass with per-bucket partial counts, a
    pair-keyed finalize, and PMI from broadcast entity-vocab-sized
    document frequencies. Hash-checked against a DuckDB self-join +
    ln replay of the same whole-token-run mention contract."""
    import pyarrow.parquet as _pq

    from .ops.graph import cooccurrence_edges
    from .ops.mentions import detect_mentions

    n = _pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return cooccurrence_edges(
        detect_mentions(_docs(sf_dir), GAZETTEER, concurrency=2),
        total_docs=n)


MIXTURE_RATES = {"src0": 0.25, "src1": 0.75}


def q_doc_mixture(sf_dir):
    """Weighted per-source mixture sampling (downweight src0 to 25%,
    src1 to 75%, keep the rest): pure streaming md5 filter, no
    shuffle, hex-integer-exact vs the SQL oracle."""
    from .ops.sample import mixture_sample

    out = mixture_sample(
        _docs(sf_dir), MIXTURE_RATES, source_col="source", id_col="doc_id")
    return out.select_columns(["doc_id", "source"])


def q_doc_top_per_group(sf_dir):
    """Grouped top-k (best-N-docs-per-domain primitive): top-2 docs
    per (lang, source) by n_chars desc, doc_id tie-break. Per-batch
    local top-k combiner, one coarse-bucket shuffle to finalize."""
    from .ops.agg import grouped_topk

    out = grouped_topk(
        _docs(sf_dir), ["lang", "source"], "n_chars", k=2,
        ascending=False, tie_cols=["doc_id"],
    )
    return out.select_columns(["lang", "source", "doc_id", "n_chars", "rank"])


PROBE_TERMS = ("merge", "window", "customer", "vector")


def q_doc_postings(sf_dir):
    """Materialized inverted index + pruned probe: ONE shuffle-free
    pass builds term-bucket Hive-partitioned postings (per-doc term
    frequency is exact per batch because a document never spans
    rows), then the probe opens ONLY the partitions the probe terms
    hash to. Hash-exact vs the plain GROUP BY oracle."""
    import shutil
    import tempfile

    from .ops.retrieval import build_inverted_index, lookup_postings

    idx = tempfile.mkdtemp(prefix="vr_invidx_")
    try:
        build_inverted_index(_docs(sf_dir), idx, num_term_buckets=32)
        out = lookup_postings(idx, PROBE_TERMS)
        # materialize inside the guard: the probe must finish before
        # the index directory goes away
        return out.to_pandas().reset_index(drop=True)
    finally:
        shutil.rmtree(idx, ignore_errors=True)


BPE_MERGES = 10  # rounds in the replayable BPE queries (oracle unrolls them)


def q_doc_bpe_merges(sf_dir):
    """Distributed BPE tokenizer training (Sennrich et al. 2016): one
    corpus pass reduces to the vocabulary-sized word-frequency table;
    each merge round is one pass over that table + a pair-keyed
    coarse-bucket shuffle + a one-row-per-bucket driver argmax. The
    merge table (the tokenizer MODEL) is the only driver-side object.
    Hash-exact vs the unrolled-round DuckDB replay."""
    from .ops.bpe import train_bpe

    return train_bpe(_docs_with(sf_dir, ["text"]), num_merges=BPE_MERGES)


def q_doc_bpe_tokens(sf_dir):
    """Per-doc BPE token counts under the trained merge list: encode
    is one streaming corpus pass on an actor pool with the (tiny)
    merge model broadcast once and a per-actor word memo. Hash-exact
    vs the oracle that replays the same merges then re-encodes."""
    from .ops.bpe import encode_bpe, train_bpe

    docs = _docs_with(sf_dir, ["doc_id", "text"])
    merges = train_bpe(docs, num_merges=BPE_MERGES)
    return encode_bpe(docs, merges)


def _bpe_sql(n_merges, select):
    """DuckDB replay of ops.bpe.train_bpe / encode_bpe with the merge
    rounds UNROLLED into materialized CTE steps (MATERIALIZED for the
    same reason as the k-core oracle: plain CTEs get inlined and the
    per-round triple reference explodes the scan tree). The contract
    both sides share: [a-z0-9]+ lowercase pre-tokenizer; a word's
    symbol string is space-joined chars + ' </w>' padded with one
    space each side; a merge is leftmost-non-overlapping
    replace(' lhs rhs ' -> ' lhsrhs '); winner = max freq, ties to
    lexicographically smallest (lhs, rhs)."""
    parts = [
        "wf AS MATERIALIZED (SELECT word, CAST(count(*) AS BIGINT) AS freq "
        "FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
        "AS word FROM documents) GROUP BY word)",
        "w0 AS MATERIALIZED (SELECT word, ' ' || array_to_string("
        "regexp_extract_all(word, '.'), ' ') || ' </w> ' AS sym, freq "
        "FROM wf)",
    ]
    for k in range(n_merges):
        parts.append(
            f"p{k} AS MATERIALIZED (SELECT lhs, rhs, "
            f"CAST(sum(freq) AS BIGINT) AS n FROM ("
            f"SELECT syms[i] AS lhs, syms[i + 1] AS rhs, freq FROM ("
            f"SELECT syms, freq, unnest(generate_series(1, len(syms) - 1)) "
            f"AS i FROM (SELECT string_split(trim(sym), ' ') AS syms, freq "
            f"FROM w{k}))) GROUP BY lhs, rhs)"
        )
        parts.append(
            f"m{k} AS MATERIALIZED (SELECT lhs, rhs, n FROM p{k} "
            f"ORDER BY n DESC, lhs ASC, rhs ASC LIMIT 1)"
        )
        # coalesce: if the corpus exhausts its pairs before n_merges
        # rounds, m{k} is empty and the pattern degenerates to '   '
        # (never present in single-spaced syms) — a no-op round, same
        # as the engine's early break
        parts.append(
            f"w{k + 1} AS MATERIALIZED (SELECT word, replace(sym, "
            f"' ' || coalesce((SELECT lhs FROM m{k}), '') || ' ' || "
            f"coalesce((SELECT rhs FROM m{k}), '') || ' ', "
            f"' ' || coalesce((SELECT lhs || rhs FROM m{k}), '') || ' ') "
            f"AS sym, freq FROM w{k})"
        )
    if select == "merges":
        union = " UNION ALL ".join(
            f'SELECT CAST({k} AS BIGINT) AS "rank", lhs, rhs, n FROM m{k}'
            for k in range(n_merges)
        )
        tail = f'SELECT "rank", lhs, rhs, n FROM ({union}) ORDER BY "rank"'
    else:
        tail = (
            "SELECT doc.doc_id, CAST(coalesce(t.n_words, 0) AS BIGINT) AS "
            "n_words, CAST(coalesce(t.n_bpe_tokens, 0) AS BIGINT) AS "
            "n_bpe_tokens FROM documents doc LEFT JOIN ("
            "SELECT d.doc_id, CAST(count(*) AS BIGINT) AS n_words, "
            "CAST(sum(len(string_split(trim(w.sym), ' '))) AS BIGINT) AS "
            "n_bpe_tokens FROM (SELECT doc_id, unnest(regexp_extract_all("
            "lower(text), '[a-z0-9]+')) AS word FROM documents) d "
            f"JOIN w{n_merges} w USING (word) GROUP BY d.doc_id) t "
            "USING (doc_id)"
        )
    return "WITH " + ", ".join(parts) + " " + tail


COS_PAIR_THRESHOLD = 0.05  # rare-term lower-bound cosine (see docstring)


def q_doc_cos_pairs(sf_dir):
    """Sparse tf-cosine document pairs over word BIGRAMS (the
    synthetic corpus has ~31 distinct unigrams, all stopword-dense;
    bigrams give a selective term space), term-at-a-time candidates
    (never all pairs), df-pruned (the pruning rule is part of the
    operator contract and the oracle replays it). Integer dot
    products through the shuffle; hash-exact vs the SQL join replay."""
    from .ops.dedup import sparse_tf_cosine_pairs

    return sparse_tf_cosine_pairs(
        _docs_with(sf_dir, ["doc_id", "text"]),
        threshold=COS_PAIR_THRESHOLD, max_df_frac=0.06, ngram_n=2)


def q_doc_len_pct_rank(sf_dir):
    """Exact distributed percent_rank over document char lengths
    (ties share ranks): three bounded passes — boundary sample,
    per-range counts to the driver, one int per bucket, one range
    shuffle with a local searchsorted. Hash-exact vs the SQL window
    function (the final division is one IEEE op on exact integers)."""
    from .ops.agg import percent_rank

    def _prep(df):
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_chars": df["text"].fillna("").str.len().astype("int64"),
        })

    ds = _docs_with(sf_dir, ["doc_id", "text"]).map_batches(
        _prep, batch_format="pandas")
    return percent_rank(ds, "n_chars")


def q_doc_tfidf(sf_dir):
    """Top-3 TF-IDF keywords per document. Corpus-vocabulary df is
    computed and attached in ONE term-keyed coarse-bucket shuffle
    (the in-bucket group size is the global df); a second doc-keyed
    shuffle ranks per-doc top-m. Rank-exact vs the SQL oracle."""
    from .ops.retrieval import tfidf_keywords

    return tfidf_keywords(_docs(sf_dir), top_m=3)


def q_doc_gopher_quality(sf_dir):
    """Gopher-style quality gates, every feature hash-checked against
    the SQL oracle (word count, mean word length, symbol ratio,
    alpha-word fraction, combined pass flag)."""
    return _docs(sf_dir).map_batches(
        lambda df: textstats.gopher_quality(df)[
            ["doc_id", "n_words", "mean_word_len", "symbol_ratio",
             "alpha_frac", "gopher_pass"]
        ],
        batch_format="pandas",
    )


def q_doc_curation(sf_dir):
    """End-to-end curation composition (lang allow-list -> token
    floor -> digit-ratio ceiling -> normalize -> exact dedup keeping
    min id): the full deterministic flow is one SQL oracle."""
    from .ops.curation import curate_documents

    return curate_documents(
        _docs(sf_dir), lang_allow=["en", "de", "fr"], min_tokens=5,
        max_digit_ratio=0.3,
    )


def q_doc_fingerprint(sf_dir):
    return _docs(sf_dir).map_batches(
        lambda df: textstats.md5_fingerprint(df)[["doc_id", "fp_md5"]],
        batch_format="pandas",
    )


def q_doc_minhash_dedup(sf_dir):
    return dd.minhash_dedup(_docs(sf_dir), threshold=0.5, concurrency=2)


def q_doc_near_dup_keep_best(sf_dir):
    """Quality-aware near-dedup: one kept doc per near-dup cluster —
    the LONGEST (n_chars argmax, ties to smallest id) instead of the
    min-id representative. The DuckDB oracle replays the exact-Jaccard
    connected components and picks the same argmax via QUALIFY."""
    return dd.near_dup_keep_best(
        _docs_with(sf_dir, ["doc_id", "text", "n_chars"]),
        by="n_chars", threshold=0.5, concurrency=2,
    )


def q_edit_distance_pairs(sf_dir):
    """Typo-duplicate detection: all string pairs within Levenshtein
    distance 1 via FastSS deletion-neighborhood bucketing (candidates
    from one shuffle, never all pairs; exact O(len) verify). The
    corpus plants deterministic collisions (distance 0) and
    single-char insertions/substitutions (distance 1); the DuckDB
    oracle rebuilds the same strings and cross-checks with its
    built-in levenshtein()."""
    import pyarrow as pa_
    import ray.data as rd

    from .ops.dedup import edit_distance_pairs

    def _synth(tbl: pa_.Table) -> pa_.Table:
        ids, strs = [], []
        for d in tbl["doc_id"].to_pylist():
            s = "token" + str((d * 13) % 97)
            ids.append(d)
            strs.append(s)
            if d % 3 == 0:
                ids.append(d + 1000000)
                strs.append(s + "x")
            elif d % 3 == 1:
                ids.append(d + 1000000)
                strs.append("z" + s[1:])
        return pa_.table(
            {
                "doc_id": pa_.array(ids, type=pa_.int64()),
                "text": pa_.array(strs, type=pa_.string()),
            }
        )

    corpus = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .sort("doc_id")
        .limit(128)
        .map_batches(_synth, batch_format="pyarrow", batch_size=64)
    )
    return edit_distance_pairs(corpus, "text")


def q_doc_near_dup_pairs(sf_dir):
    """LSH candidates + exact word-3-shingle Jaccard verification,
    hash-checked against a DuckDB exact all-pairs oracle (possible
    because the corpus' near-dup pairs sit well above the threshold, so
    banded-LSH recall at the threshold is 1 for this data)."""
    out = dd.verified_near_dup_pairs(_docs(sf_dir), threshold=0.5, concurrency=2)
    return out.map_batches(
        lambda df: df.assign(jaccard=df.jaccard.round(6)), batch_format="pandas"
    )


def q_doc_simhash(sf_dir):
    """SimHash signatures with the md5 word hasher, hash-checked
    against a DuckDB oracle that replays the signature construction
    bit-exactly (md5_number_upper == little-endian first 8 md5 digest
    bytes; per-bit +/-count sums; sign threshold s > 0). Production
    pipelines default to the faster pandas C hasher — the algorithm
    is identical, only the word-hash primitive differs. Also gated:
    nonzero signatures for nonempty docs and near-full distinctness."""
    out = dd.simhash_ds(_docs(sf_dir), hasher="md5").map_batches(
        lambda df: df.assign(simhash=df.simhash.astype("uint64").astype("int64")
                             if df.simhash.dtype != "int64" else df.simhash),
        batch_format="pandas",
    ).materialize()
    sig = out.to_pandas()["simhash"]
    if (sig == 0).any() or sig.nunique() < 0.9 * len(sig):
        raise AssertionError("simhash signature collapse")
    return out


def q_doc_simhash_pairs(sf_dir):
    """SimHash near-dup pairs (pigeonhole chunk bucketing + exact
    hamming verify, so the output IS the exact hamming<=3 pair set).
    With the md5 hasher the whole flow is hash-checked against a
    DuckDB all-pairs oracle (SQL-computed signatures, bit_count of
    xor) — pair-set EXACTNESS is externally verified, replacing the
    old recall gate as the primary check. A recall floor vs the
    exact-Jaccard>=0.8 ground truth remains as an algorithm-quality
    sanity bound; it is hasher-dependent noise (pandas hash ~0.64,
    md5 ~0.48 on this corpus at hamming<=3), so the floor is 0.35."""
    from concurrent.futures import ThreadPoolExecutor

    # the candidate pipeline and the ground-truth gate pipeline are
    # independent — build them serially (read_parquet schema inference
    # is not thread-safe) but CONSUME them concurrently so Ray
    # interleaves their stages instead of paying two full fixed-cost
    # sequences back to back
    pairs_ds = dd.simhash_near_dups(_docs(sf_dir), max_hamming=3, hasher="md5")
    truth_ds = dd.verified_near_dup_pairs(
        _docs(sf_dir), threshold=0.8, concurrency=2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        fut_pairs = pool.submit(pairs_ds.to_pandas)
        fut_truth = pool.submit(truth_ds.to_pandas)
        pairs = fut_pairs.result()
        truth = fut_truth.result()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    want = set(zip(truth["id_a"], truth["id_b"]))
    if want:
        recall = len(got & want) / len(want)
        if recall < 0.35:
            raise AssertionError(
                f"simhash hamming<=3 recall {recall:.3f} < 0.35 "
                f"vs exact-Jaccard>=0.8 pairs"
            )
    return pairs.sort_values(["id_a", "id_b"], ignore_index=True)


def q_doc_langid(sf_dir):
    """Rows-only, lightly gated: predictions must come from the known
    profile set (the synthetic corpus' lang labels are random, so
    accuracy against them is meaningless — see COVERAGE; the
    classifier's own pytest uses real multilingual text)."""
    out = textstats.langid_ds(_docs(sf_dir), concurrency=2).map_batches(
        lambda df: df[["doc_id", "lang_pred"]], batch_format="pandas"
    ).materialize()
    preds = set(out.to_pandas()["lang_pred"])
    allowed = set(textstats.LangID.PROFILES) | {"und"}
    if not preds or not preds <= allowed:
        raise AssertionError(f"langid emitted unknown labels: {preds - allowed}")
    return out


def q_doc_quality(sf_dir):
    return textstats.quality_ds(_docs(sf_dir)).map_batches(
        lambda df: df[["doc_id", "stopword_ratio", "mean_token_len", "upper_ratio", "punct_ratio"]],
        batch_format="pandas",
    )


_URL_HOSTS = [
    "Example.COM", "news.Example.co.uk", "a.b.example.org",
    "shop.example.com.au", "CDN.example.io:8080", "www.example.de",
    "example.net",
]


def _plant_urls(df):
    """Deterministic synthetic URLs exercising every normalization
    rule (case, default/explicit ports, empty paths, tracking params,
    unsorted params, fragments) — mirrored verbatim in the SQL
    oracles."""
    import numpy as np

    ids = df["doc_id"]
    host = pd.Series(np.array(_URL_HOSTS, dtype=object)[ids % 7],
                     index=df.index)
    scheme = pd.Series(np.where(ids % 5 == 0, "HTTP", "https"),
                       index=df.index)
    port = pd.Series(
        np.where((ids % 11 == 0) & (ids % 7 != 4),
                 np.where(ids % 5 == 0, ":80", ":443"), ""),
        index=df.index)
    path = pd.Series(
        np.where(ids % 13 == 0, "", "/p/" + (ids % 13).astype(str)),
        index=df.index)
    q = pd.Series(
        np.select([ids % 3 == 0, ids % 3 == 1],
                  ["?utm_source=x&b=2&a=1&fbclid=zz", "?z=9&a=1"], ""),
        index=df.index)
    frag = pd.Series(np.where(ids % 4 == 0, "#top", ""), index=df.index)
    df = df.copy()
    df["url"] = scheme + "://" + host + port + path + q + frag
    return df


# the SQL mirror of _plant_urls (CTE named u, column url)
_URL_DOCS_SQL = (
    "u AS (SELECT doc_id, "
    "(CASE WHEN doc_id % 5 = 0 THEN 'HTTP' ELSE 'https' END) || '://' || "
    "(['" + "', '".join(_URL_HOSTS) + "'])[(doc_id % 7) + 1] || "
    "(CASE WHEN doc_id % 11 = 0 AND doc_id % 7 <> 4 THEN "
    "(CASE WHEN doc_id % 5 = 0 THEN ':80' ELSE ':443' END) ELSE '' END) || "
    "(CASE WHEN doc_id % 13 = 0 THEN '' ELSE '/p/' || (doc_id % 13) END) || "
    "(CASE doc_id % 3 WHEN 0 THEN '?utm_source=x&b=2&a=1&fbclid=zz' "
    "WHEN 1 THEN '?z=9&a=1' ELSE '' END) || "
    "(CASE WHEN doc_id % 4 = 0 THEN '#top' ELSE '' END) AS url "
    "FROM documents)"
)


def q_doc_url_normalize(sf_dir):
    """URL parsing + canonicalization (lowercase scheme/host, default-
    port strip, fragment drop, tracking-param removal, query-param
    sort, registered-domain extraction) over deterministically planted
    URLs; every component byte-checked against the SQL oracle."""
    from .ops.urltools import parse_urls

    return (
        _docs(sf_dir)
        .map_batches(_plant_urls, batch_format="pandas")
        .map_batches(
            lambda df: parse_urls(df)[
                ["doc_id", "scheme", "host", "port", "path", "query",
                 "reg_domain", "canonical_url"]
            ],
            batch_format="pandas",
        )
    )


def q_host_doc_counts(sf_dir):
    """Documents per registered domain (partial combine + single
    merge — domain cardinality is tiny next to the corpus)."""
    from .ops.urltools import host_doc_counts

    return host_doc_counts(
        _docs(sf_dir).map_batches(_plant_urls, batch_format="pandas")
    )


def q_doc_lm_perplexity(sf_dir):
    """Corpus-trained unigram-LM log-perplexity per document (CCNet-
    style quality signal, add-one smoothing, OOV below min_count=2):
    one token-cardinality count shuffle trains the LM, scoring
    attaches log-probs by broadcast (distributed token-join above the
    vocabulary threshold). Full SQL oracle replays the exact model."""
    from .ops.lm import doc_perplexity

    return doc_perplexity(_docs(sf_dir), min_count=2)


def _plant_pii(df):
    """Deterministically plant PII in 1-of-7 docs (the synthetic
    corpus contains none) — mirrored verbatim in the SQL oracle."""
    ids = df["doc_id"]
    extra = (
        " Contact user" + ids.astype(str)
        + "@example.org call 555-010-9876 at 10.0."
        + (ids % 256).astype(str) + "." + (ids % 100).astype(str) + "."
    )
    df = df.copy()
    df["text"] = df["text"].fillna("") + extra.where(ids % 7 == 0, "")
    return df


def q_doc_pii_scrub(sf_dir):
    """PII detection + masking (email -> IPv4 -> phone, each counted
    on the text as scrubbed by the previous stage; RE2-compatible
    patterns). Counts and the scrubbed text are byte-checked against a
    DuckDB oracle replaying the same regexes in the same order."""
    return (
        _docs(sf_dir)
        .map_batches(_plant_pii, batch_format="pandas")
        .map_batches(
            lambda df: textstats.pii_scrub(df)[
                ["doc_id", "n_emails", "n_ips", "n_phones", "scrubbed_text"]
            ],
            batch_format="pandas",
        )
    )


def _chunk3(ws):
    return "\n".join(" ".join(ws[i:i + 3]) for i in range(0, len(ws), 3))


def _lineify(df):
    """Re-chunk each doc into 3-token lines and plant a boilerplate
    footer on 1-of-3 docs (the synthetic corpus has no newlines, so
    line-based operators need deterministic line structure) —
    mirrored verbatim in the SQL oracles."""
    import numpy as np

    toks = df["text"].fillna("").str.split()
    footer = np.where(
        df["doc_id"] % 3 == 0, "\nsubscribe to our newsletter today", ""
    )
    df = df.copy()
    df["text"] = toks.map(_chunk3) + footer
    return df


def _docs_lines(sf_dir):
    return _docs(sf_dir).map_batches(_lineify, batch_format="pandas")


def q_doc_compression(sf_dir):
    """Deflate compression-ratio quality signal per doc (no SQL
    deflate — SELF-GATED): ratios must be finite in (0, 1.5], take
    many distinct values, and the corpus's most word-repetitive
    decile must compress strictly better on average than the least
    repetitive decile (the property curation relies on)."""
    # the gate's repetitiveness signal rides in the SAME distributed
    # pass as the ratio (one corpus read; only the small per-doc
    # feature frame ever reaches the driver)
    def _feat(df):
        out = textstats.compression_ratio(df)
        toks = df["text"].fillna("").str.split()
        out["uniq_frac"] = [len(set(ws)) / max(1, len(ws)) for ws in toks]
        return out

    m = _docs(sf_dir).map_batches(_feat, batch_format="pandas").to_pandas()
    r = m["compression_ratio"]
    if not ((r > 0).all() and (r <= 1.5).all()):
        raise AssertionError("compression ratios out of range")
    if r.nunique() < 20:
        raise AssertionError("compression ratios suspiciously coarse")
    uniq_frac = m["uniq_frac"]
    rep = m.loc[uniq_frac.nsmallest(len(m) // 10).index,
                "compression_ratio"].mean()
    var = m.loc[uniq_frac.nlargest(len(m) // 10).index,
                "compression_ratio"].mean()
    if not rep < var:
        raise AssertionError(
            f"repetitive decile compresses worse ({rep:.3f} >= {var:.3f})")
    out = m[["doc_id", "compression_ratio"]].copy()
    out["compression_ratio"] = out["compression_ratio"].round(6)
    return out


def q_doc_repetition(sf_dir):
    """Gopher-style repetition signals (duplicate-line fraction,
    duplicate-line char fraction, densest word-2-gram char coverage)
    over the line-chunked corpus, every value hash-checked vs SQL."""
    return _docs_lines(sf_dir).map_batches(
        lambda df: textstats.repetition_stats(df)[
            ["doc_id", "dup_line_frac", "dup_line_char_frac",
             "top_2gram_char_frac"]
        ],
        batch_format="pandas",
    )


def q_doc_boilerplate(sf_dir):
    """Corpus-wide boilerplate line removal (a non-blank line in >= 10
    distinct docs is stripped from every doc, docs reassembled in
    order): two line-cardinality bucket shuffles + one doc-cardinality
    reassembly shuffle, raw text never a shuffle key, nothing
    corpus-sized on the driver. Full SQL oracle."""
    from .ops.boilerplate import remove_boilerplate

    return remove_boilerplate(_docs_lines(sf_dir), min_docs=10)


_STOPWORD_SQL = "[%s]" % ", ".join(
    "'%s'" % w for w in sorted(textstats.STOPWORDS)
)

# documents re-chunked into 3-token lines + boilerplate footer on 1-of-3
# docs — the SQL mirror of _lineify (CTE named lndocs, column tx)
_LINEIFIED_SQL = (
    "t0 AS (SELECT doc_id, CASE WHEN trim(coalesce(text,'')) = '' THEN [] "
    "ELSE list_filter(regexp_split_to_array(trim(text), "
    "'[ \\t\\r\\n\\f\\v]+'), w -> w <> '') END AS toks FROM documents), "
    "lndocs AS (SELECT doc_id, coalesce(array_to_string(list_transform("
    "range(CAST(ceil(len(toks)/3.0) AS BIGINT)), "
    "i -> array_to_string(toks[i*3+1:i*3+3], ' ')), chr(10)), '') "
    "|| CASE WHEN doc_id % 3 = 0 THEN chr(10) || "
    "'subscribe to our newsletter today' ELSE '' END AS tx FROM t0)"
)

# the SQL mirror of _plant_pii (CTE named piidocs, column tx)
_PII_DOCS_SQL = (
    "piidocs AS (SELECT doc_id, coalesce(text,'') || "
    "CASE WHEN doc_id % 7 = 0 THEN ' Contact user' || doc_id || "
    "'@example.org call 555-010-9876 at 10.0.' || (doc_id % 256) || '.' "
    "|| (doc_id % 100) || '.' ELSE '' END AS tx FROM documents)"
)


def q_doc_above_median_chars(sf_dir):
    """'Keep the best half per language' curation primitive: exact
    per-group discrete median from ONE coarse-bucket shuffle of
    (lang, n_chars) partial counts, broadcast thresholds, streaming
    strictly-above filter — the corpus never shuffles
    (ops.agg.filter_above_group_quantile). Hash-checked against the
    DuckDB quantile_disc window replay."""
    from .ops.agg import filter_above_group_quantile

    return filter_above_group_quantile(
        _docs_with(sf_dir, ["doc_id", "lang", "n_chars"]),
        key="lang", col="n_chars", q=0.5)


def q_part_triangles(sf_dir):
    """Exact triangle count of the parts-co-ordered graph (two parts
    are adjacent when some order contains both): per-order pair
    explosion (item counts are bounded per order) → distinct
    canonical edges → distributed node-iterator wedge/edge semi-join
    (`ops/graph.triangle_count`). DuckDB replays it with a three-way
    edge self-join, hash-exact."""
    from .ops.graph import triangle_count

    return triangle_count(_coorder_edges(sf_dir))


def q_links_intersect(sf_dir):
    """Statement-set intersection of two derived link-sets (neither a
    subset of the other): TYPE/NAME statements ∩ nation/region-origin
    statements. Both sides stay distributed — quad keys meet in one
    coarse-bucket semi-join, no driver-side key set. DuckDB replays
    it with INTERSECT."""
    import pyarrow.compute as pc_

    from .model import linkset

    ls = tpch_linkset(sf_dir)
    a = linkset.union(
        linkset.match(ls, rel=TYPE), linkset.match(ls, rel=NAME),
        dedup=False,
    )

    def _prefix(tbl):
        mask = pc_.or_(
            pc_.starts_with(tbl["origin"], "urn:versa:nation:"),
            pc_.starts_with(tbl["origin"], "urn:versa:region:"),
        )
        return tbl.filter(mask)

    b = ls.map_batches(_prefix, batch_format="pyarrow")
    return linkset.intersect_statements(a, b)


def q_links_diff(sf_dir):
    """KG snapshot diff: symmetric statement-set difference of the
    same two derived link-sets as links_intersect, tagged
    'removed' (left-only) / 'added' (right-only). One tagged-union
    coarse-bucket shuffle; DuckDB replays with two EXCEPTs."""
    import pyarrow.compute as pc_

    from .model import linkset

    ls = tpch_linkset(sf_dir)
    a = linkset.union(
        linkset.match(ls, rel=TYPE), linkset.match(ls, rel=NAME),
        dedup=False,
    )

    def _prefix(tbl):
        mask = pc_.or_(
            pc_.starts_with(tbl["origin"], "urn:versa:nation:"),
            pc_.starts_with(tbl["origin"], "urn:versa:region:"),
        )
        return tbl.filter(mask)

    b = ls.map_batches(_prefix, batch_format="pyarrow")
    return linkset.diff_statements(a, b)


WALK_LEN = 4


def q_kg_random_walks(sf_dir):
    """Deterministic node2vec-style random walks (length 4 from every
    node) over the bidirectional twice-co-ordered parts graph: the
    md5-draw next-hop rule makes the walk corpus a pure function of
    the graph, so DuckDB replays it bit-exactly with unrolled
    step CTEs. One tagged-union shuffle per step; frontier stays
    seeds-sized."""
    from .ops.graph import random_walks

    e = _coorder_edges_multi(sf_dir)

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
            "dst": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
        })

    return random_walks(
        e.map_batches(_bidir, batch_format="pandas"), walk_len=WALK_LEN)


def _walks_sql(walk_len):
    """DuckDB replay of ops.graph.random_walks over the bidirectional
    twice-co-ordered parts graph, steps UNROLLED into materialized CTE
    rounds. Shared contract: adjacency rank = row_number ordered by
    dst within src (0-based); next hop = rank md5(walk_id || '|' ||
    step)[:15 hex] % degree — the repo's md5-draw convention
    (kg_negative_samples uses the same hex-cast replay)."""
    steps = []
    for k in range(walk_len):
        steps.append(
            f"w{k + 1} AS MATERIALIZED (SELECT w.walk_id, a.dst AS node "
            f"FROM w{k} w JOIN adj a ON a.src = w.node AND a.rnk = "
            f"CAST(('0x' || left(md5(CAST(w.walk_id AS VARCHAR) || "
            f"'|{k}'), 15)) AS BIGINT) % a.deg)"
        )
    union = " UNION ALL ".join(
        f"SELECT walk_id, CAST({k} AS BIGINT) AS step, node FROM w{k}"
        for k in range(walk_len + 1)
    )
    return (
        "WITH e0 AS MATERIALIZED (SELECT u, v FROM (SELECT a.l_partkey "
        "AS u, b.l_partkey AS v, count(DISTINCT a.l_orderkey) AS m "
        "FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey "
        "AND a.l_partkey < b.l_partkey GROUP BY 1, 2) WHERE m >= 2), "
        "ed AS MATERIALIZED (SELECT u AS src, v AS dst FROM e0 "
        "UNION ALL SELECT v, u FROM e0), "
        "adj AS MATERIALIZED (SELECT src, dst, row_number() OVER "
        "(PARTITION BY src ORDER BY dst) - 1 AS rnk, count(*) OVER "
        "(PARTITION BY src) AS deg FROM ed), "
        "w0 AS MATERIALIZED (SELECT DISTINCT src AS walk_id, src AS node "
        "FROM ed), "
        + ", ".join(steps) + " " + union
    )


# -- flagship KG (non-SQL) --------------------------------------------------


def q_kg_linkset(sf_dir):
    """Flagship KG pipeline over the synthetic page corpus; rows-only
    check (HTML->triples is not SQL-expressible) but SELF-GATED: the
    200-page seed-42 corpus deterministically yields exactly 1,717
    distinct triples (independently ground-truthed at P/R=1.0 in
    tests/test_precision_recall.py), and the query raises on any
    drift — extraction/transform/dedup regressions fail loudly
    instead of shifting a row count nobody checks."""
    from .web.kgpipeline import extract_links
    from .web.synth import pages_dataset

    n = 200
    pages = pages_dataset(n)
    links = extract_links(pages, check_text=True)
    out = linkset.distinct_links(links).materialize()
    n_triples = out.count()
    if n_triples != 1717:
        raise AssertionError(
            f"flagship KG drift: {n_triples} triples != expected 1717 "
            "for the 200-page seed-42 corpus"
        )
    return out


def q_part_link_prediction(sf_dir):
    """Common-neighbor link prediction over the twice-co-ordered parts
    graph (ops.graph.link_prediction): every NON-edge pair at distance
    2 scored by its exact common-neighbor count and the INTEGER-SCALED
    resource-allocation index sum(10^9 // deg(z)) over shared
    neighbors z — integer partials sum associatively through the pair
    shuffle, so scores are partition-invariant and replay bit-exactly
    (a float sum(1/deg) would drift with summation order). Candidates
    come from wedge enumeration at the shared neighbor, never
    all-pairs. min_cn=1 keeps the fixture non-vacuous at every scale
    tier (repeat co-orders thin out as the key space grows, so cn>=2
    pairs vanish at sf0.1). Hash-checked against a DuckDB adjacency
    self-join oracle with the same anti-join on existing edges."""
    from .ops.graph import link_prediction

    return link_prediction(_coorder_edges_multi(sf_dir), min_cn=1)


def q_kg_shortest_paths(sf_dir):
    """Weighted shortest distances from seed orders (distributed
    Bellman-Ford, ops.graph.shortest_paths) over the order -placedBy->
    customer -inNation-> nation -inRegion-> region DAG with
    deterministic integer weights (orderkey%97+1, custkey%89+1,
    nationkey+1) — unlike kg_bfs_depth's hop counts, a node's settled
    distance can improve in a later round, so this exercises true
    relaxation. The distance table and frontier stay Datasets
    end-to-end (one fused coarse-bucket shuffle per round; the driver
    sees one improved-count scalar). Integer distances replay
    bit-exactly against a DuckDB recursive-CTE min-distance oracle."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    from .ops.graph import shortest_paths

    def _o(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["o_orderkey"].to_numpy()
        return pd.DataFrame({
            "src": [f"{URN}order:{k}" for k in ok.tolist()],
            "dst": [f"{URN}customer:{c}" for c in df["o_custkey"].tolist()],
            "w": (ok % 97 + 1).astype(np.int64),
        })

    def _c(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["c_custkey"].to_numpy()
        return pd.DataFrame({
            "src": [f"{URN}customer:{k}" for k in ck.tolist()],
            "dst": [f"{URN}nation:{n}" for n in df["c_nationkey"].tolist()],
            "w": (ck % 89 + 1).astype(np.int64),
        })

    def _n(df: pd.DataFrame) -> pd.DataFrame:
        nk = df["n_nationkey"].to_numpy()
        return pd.DataFrame({
            "src": [f"{URN}nation:{k}" for k in nk.tolist()],
            "dst": [f"{URN}region:{r}" for r in df["n_regionkey"].tolist()],
            "w": (nk + 1).astype(np.int64),
        })

    edges = (
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"])
        .map_batches(_o, batch_format="pandas")
        .union(
            rd.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_nationkey"])
            .map_batches(_c, batch_format="pandas"))
        .union(
            rd.read_parquet(f"{sf_dir}/nation.parquet",
                            columns=["n_nationkey", "n_regionkey"])
            .map_batches(_n, batch_format="pandas"))
    )
    keys = _pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )["o_orderkey"].to_pylist()
    seeds = [f"{URN}order:{k}" for k in keys if k % 100 == 1]
    return shortest_paths(edges, seeds)


def _conflict_links(sf_dir):
    """Planted functional-property violations on the customer
    linkset: customers with ``c_custkey % 50 == 3`` assert a SECOND,
    different inNation ((c_nationkey + 7) % 25 — never equal to the
    original); customers with ``c_custkey % 50 == 17`` RE-assert their
    existing inNation verbatim (an exact duplicate, which the
    dup-refusing statement semantics must NOT flag as a conflict)."""
    import ray.data as rd

    def _mk(tbl: pa.Table) -> pa.Table:
        ck = tbl["c_custkey"].to_pylist()
        nk = tbl["c_nationkey"].to_pylist()
        conf = [(c, n) for c, n in zip(ck, nk) if c % 50 == 3]
        dup = [(c, n) for c, n in zip(ck, nk) if c % 50 == 17]
        return pa.concat_tables([
            _links_table(
                [f"{URN}customer:{c}" for c, _ in conf], IN_NATION,
                [f"{URN}nation:{(n + 7) % 25}" for _, n in conf], True),
            _links_table(
                [f"{URN}customer:{c}" for c, _ in dup], IN_NATION,
                [f"{URN}nation:{n}" for _, n in dup], True),
        ])

    return rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(_mk, batch_format="pyarrow")


def q_er_typo_match(sf_dir):
    """Bipartite record linkage (ops.dedup.edit_distance_join): clean
    customer names (every 10th customer) matched against a
    deterministically CORRUPTED re-crawl of all customer names (the
    char at position custkey % len replaced by 'x') at Levenshtein
    distance <= 1. Candidates come from cross-side FastSS
    deletion-variant collisions — one tagged coarse-bucket shuffle,
    never a cross join — each verified exactly, so blocking changes
    cost, never the answer. Hash-checked against a DuckDB
    levenshtein-join oracle."""
    import ray.data as rd

    from .ops.dedup import edit_distance_join

    def _left(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["c_custkey"] % 10 == 1]
        return pd.DataFrame({"cid": sub["c_custkey"].to_numpy(),
                             "name": sub["c_name"].to_numpy()})

    def _right(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["c_custkey"].to_numpy()
        names = df["c_name"].to_numpy(object)
        out = []
        for k, s in zip(ks.tolist(), names):
            p = k % len(s)
            out.append(s[:p] + "x" + s[p + 1:])
        return pd.DataFrame({"cid": ks, "name": out})

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    return edit_distance_join(
        cust.map_batches(_left, batch_format="pandas"),
        cust.map_batches(_right, batch_format="pandas"),
        col="name", id_col="cid")


def q_kg_scc(sf_dir):
    """Strongly connected components
    (ops.graph.strongly_connected_components, distributed FB-MIN
    peeling) over a deterministic directed graph on the customer key
    space: 10-node cycles within each key block (c -> bs + ((c-bs+1)
    % 10), bs = (c//10)*10), cross edges c -> c+10 for c % 20 == 5
    linking even-indexed blocks into the next block (a depth-1
    condensation DAG, so the peel terminates in ~3 outer rounds), and
    partial tail blocks whose nodes become ISOLATED singletons after
    their neighbors peel — exercising the explicit live-node carry.
    Hash-checked against a DuckDB recursive mutual-reachability
    oracle."""
    import ray.data as rd

    from .ops.graph import strongly_connected_components

    def _mk(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["c_custkey"].to_numpy().astype(np.int64)
        bs = (ck // 10) * 10
        cyc = pd.DataFrame({"src": ck, "dst": bs + ((ck - bs + 1) % 10)})
        cross = ck[ck % 20 == 5]
        return pd.concat([
            cyc, pd.DataFrame({"src": cross, "dst": cross + 10})],
            ignore_index=True)

    edges = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).map_batches(_mk, batch_format="pandas")
    return strongly_connected_components(edges)


def q_part_closeness(sf_dir):
    """Seed-sampled closeness centrality over the twice-co-ordered
    parts graph (ops.graph.closeness_from_seeds): K landmark seeds
    (p_partkey % 251 == 1) expand in ONE multi-source BFS traversal —
    per-(node, seed) visited markers share each hop's fused
    coarse-bucket shuffle instead of K sequential BFS runs — then a
    node-keyed rollup emits exact integer (n_reached, sum_depth).
    Hash-checked against a DuckDB recursive-CTE min-depth oracle."""
    import pyarrow.parquet as _pq

    from .ops.graph import closeness_from_seeds

    edges = _coorder_edges_multi(sf_dir)

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
            "dst": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
        })

    keys = _pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    )["p_partkey"].to_pylist()
    seeds = [int(k) for k in keys if k % 251 == 1]
    return closeness_from_seeds(
        edges.map_batches(_bidir, batch_format="pandas"), seeds)


def q_doc_jsonl_roundtrip(sf_dir):
    """JSONL sink -> source identity: the corpus shard-writes as JSON
    Lines (ops.io.write_jsonl_ds, one resolved target filesystem) and
    reads back with ray.data.read_json — the trainer-handoff format
    round-trips losslessly, text column included (escaped newlines).
    Hash-checked against the identity SELECT."""
    import shutil
    import tempfile

    import ray.data as rd

    from .ops.io import write_jsonl_ds

    tmp = tempfile.mkdtemp(prefix="vr_jsonl_")
    try:
        files = write_jsonl_ds(
            _docs(sf_dir), tmp, columns=["doc_id", "text", "lang",
                                         "n_chars"])
        back = rd.read_json(sorted(files)).to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    back["doc_id"] = back["doc_id"].astype("int64")
    back["n_chars"] = back["n_chars"].astype("int64")
    return back[["doc_id", "text", "lang", "n_chars"]].sort_values(
        "doc_id", ignore_index=True)


def q_doc_len_pct_by_source(sf_dir):
    """Within-stratum normalization: percent_rank of n_chars PER
    source (ops.agg.grouped_percent_rank — one group-key bucket
    shuffle, sort+searchsorted per group, one exact-integer IEEE
    division). Hash-checked against the SQL window function without
    rounding."""
    from .ops.agg import grouped_percent_rank

    out = grouped_percent_rank(
        _docs_with(sf_dir, ["doc_id", "source", "n_chars"]),
        key="source", col="n_chars")
    return out.map_batches(
        lambda df: df.assign(n_chars=df.n_chars.astype("int64")),
        batch_format="pandas")


def q_doc_weighted_sample(sf_dir):
    """Deterministic weighted sampling without replacement (priority
    sampling, Duffield et al. 2007): 100 docs drawn proportional to
    n_chars via priority w/u with u from md5(doc_id) —
    ops.sample.weighted_sample, per-batch local top-n then a
    blocks x n driver merge. One IEEE division and no
    transcendentals, so the DuckDB QUALIFY replay is bit-exact."""
    from .ops.sample import weighted_sample

    out = weighted_sample(
        _docs_with(sf_dir, ["doc_id", "n_chars"]), n=100,
        weight_col="n_chars", id_col="doc_id")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out.sort_values("doc_id", ignore_index=True)


def q_doc_profile(sf_dir):
    """Ingest-gate table profile: per column (n_rows, n_null,
    stringified min/max) in ONE column-pruned pass with native-typed
    cross-batch merging (ops.validate.profile_table; driver sees
    blocks x columns partials). Hash-checked against per-column SQL
    aggregates."""
    from .ops.validate import profile_table

    return profile_table(
        _docs(sf_dir), ["doc_id", "lang", "n_chars", "source"])


def q_part_ktruss(sf_dir):
    """3-truss of the twice-co-ordered parts graph — every surviving
    edge in >= 1 triangle after iterative peeling
    (ops.graph.k_truss: wedge enumeration at the smaller endpoint,
    per-triangle support partials for all three edges, edge-keyed
    keep pass; three coarse-bucket shuffles per round, one scalar to
    the driver). Hash-checked against a DuckDB unrolled-round peel
    (MATERIALIZED CTEs — the part_kcore lesson)."""
    from .ops.graph import k_truss

    return k_truss(_coorder_edges_multi(sf_dir), k=3)


def q_part_mis(sf_dir):
    """Deterministic Luby maximal independent set over the
    twice-co-ordered parts graph (ops.graph.maximal_independent_set):
    md5 priorities replace Luby's randomness, so the MIS is a pure
    function of the edge set; one winner pass + the k_core peel idiom
    per round, O(log n) rounds. Hash-checked against a DuckDB
    unrolled-round NOT EXISTS replay."""
    from .ops.graph import maximal_independent_set

    return maximal_independent_set(_coorder_edges_multi(sf_dir))


def _mis_sql(rounds=10):
    """Unrolled deterministic-Luby replay over the twice-co-ordered
    parts graph (measured fixpoint: 3-4 rounds at sf0.001/sf0.01;
    extra rounds are idempotent — an empty live set elects nobody).
    Priorities are md5_number_upper(node), ties by node id, matching
    the engine's convention bit-exactly."""
    parts = [
        "WITH e0m AS MATERIALIZED (SELECT u, v FROM ("
        "SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v, "
        "a.l_orderkey AS o FROM lineitem a JOIN lineitem b "
        "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey) "
        "GROUP BY u, v HAVING COUNT(*) >= 2)",
        "E0 AS MATERIALIZED (SELECT u AS a, v AS b FROM e0m "
        "UNION ALL SELECT v, u FROM e0m)",
        "L0 AS MATERIALIZED (SELECT DISTINCT a AS node FROM E0)",
        "P AS MATERIALIZED (SELECT node, "
        "md5_number_upper(CAST(node AS VARCHAR)) AS pri FROM L0)",
    ]
    for r in range(1, rounds + 1):
        p = r - 1
        parts.append(
            f"m{r} AS MATERIALIZED (SELECT l.node FROM L{p} l "
            "JOIN P lp ON lp.node = l.node WHERE NOT EXISTS ("
            f"SELECT 1 FROM E{p} e JOIN P np ON np.node = e.b "
            "WHERE e.a = l.node AND (np.pri < lp.pri OR "
            "(np.pri = lp.pri AND e.b < l.node))))")
        parts.append(
            f"rm{r} AS MATERIALIZED (SELECT node FROM m{r} UNION "
            f"SELECT e.b FROM E{p} e JOIN m{r} m ON e.a = m.node)")
        parts.append(
            f"L{r} AS MATERIALIZED (SELECT l.node FROM L{p} l "
            f"LEFT JOIN rm{r} x ON x.node = l.node "
            "WHERE x.node IS NULL)")
        parts.append(
            f"E{r} AS MATERIALIZED (SELECT e.a, e.b FROM E{p} e "
            f"JOIN L{r} x ON x.node = e.a "
            f"JOIN L{r} y ON y.node = e.b)")
    final = " UNION ALL ".join(f"SELECT node FROM m{r}"
                               for r in range(1, rounds + 1))
    return ", ".join(parts) + f" SELECT node FROM ({final}) ORDER BY node"


def _ktruss_sql(rounds=8):
    """Unrolled k=3 truss peel over the twice-co-ordered parts graph.
    ``rounds`` must be >= the actual fixpoint round count (measured: 2
    at sf0.001/sf0.01); extra rounds are idempotent. Every CTE is
    MATERIALIZED — DuckDB inlines plain CTEs referenced 3x per round
    and the scan tree explodes exponentially."""
    parts = [
        "WITH e0 AS MATERIALIZED (SELECT u, v FROM ("
        "SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v, "
        "a.l_orderkey AS o FROM lineitem a JOIN lineitem b "
        "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey) "
        "GROUP BY u, v HAVING COUNT(*) >= 2)"
    ]
    for r in range(1, rounds + 1):
        p = r - 1
        parts.append(
            f"t{r} AS MATERIALIZED (SELECT a.u AS c, a.v AS x, b.v AS y "
            f"FROM e{p} a JOIN e{p} b ON a.u = b.u AND a.v < b.v "
            f"JOIN e{p} ed ON ed.u = a.v AND ed.v = b.v)")
        parts.append(
            f"sup{r} AS MATERIALIZED (SELECT u, v, COUNT(*) AS s FROM ("
            f"SELECT x AS u, y AS v FROM t{r} "
            f"UNION ALL SELECT c, x FROM t{r} "
            f"UNION ALL SELECT c, y FROM t{r}) GROUP BY u, v)")
        parts.append(
            f"e{r} AS MATERIALIZED (SELECT e.u, e.v FROM e{p} e "
            f"JOIN sup{r} s ON s.u = e.u AND s.v = e.v WHERE s.s >= 1)")
    return (", ".join(parts)
            + f" SELECT u, v FROM e{rounds} ORDER BY u, v")


def q_part_harmonic(sf_dir):
    """Seed-sampled harmonic centrality (the disconnected-graph-safe
    centrality, Boldi & Vigna 2014) over the twice-co-ordered parts
    graph — ops.graph.harmonic_from_seeds: one multi-source BFS
    traversal, then exact integer sum of 1e9 // depth per node (the
    link_prediction integer-scaling convention, so the shuffle sum is
    associative and the DuckDB recursive-CTE oracle replays it
    bit-exactly)."""
    import pyarrow.parquet as _pq

    from .ops.graph import harmonic_from_seeds

    edges = _coorder_edges_multi(sf_dir)

    def _bidir(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
            "dst": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
        })

    keys = _pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    )["p_partkey"].to_pylist()
    seeds = [int(k) for k in keys if k % 251 == 1]
    return harmonic_from_seeds(
        edges.map_batches(_bidir, batch_format="pandas"), seeds)


def q_kg_latest_statements(sf_dir):
    """Temporal latest-assertion-wins snapshot
    (model.linkset.latest_statements): each customer asserts its
    market segment 1-3 times with deterministic integer timestamps
    ((custkey*7 + j*13) % 1000 — distinct within a customer); the
    snapshot keeps the most recent assertion per (origin, rel).
    Two-phase grouped argmax, one coarse-bucket shuffle. Hash-checked
    against a DuckDB QUALIFY row_number replay."""
    import ray.data as rd

    from .model.linkset import latest_statements

    def _mk(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["c_custkey"].to_numpy()
        k = (ck % 3) + 1
        reps = np.repeat(ck, k)
        j = np.arange(int(k.sum())) - np.repeat(np.cumsum(k) - k, k)
        return pd.DataFrame({
            "origin": [f"{URN}customer:{c}" for c in reps.tolist()],
            "rel": SEGMENT,
            "target": [f"seg:{v}" for v in ((reps + j) % 5).tolist()],
            "target_is_iri": True,
            "attrs": "{}",
            "ts": ((reps * 7 + j * 13) % 1000).astype(np.int64),
        })

    stmts = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).map_batches(_mk, batch_format="pandas")
    return latest_statements(stmts)


SUBCLASS_TYPE_RULES = {
    IN_NATION: (URN + "GeoLocated", URN + "Nation"),
    IN_REGION: (URN + "GeoLocated", URN + "Region"),
}


def q_kg_domain_range(sf_dir):
    """RDFS domain/range entailment (ops.graph.entail_domain_range,
    rules rdfs2+rdfs3) over the TPC-H linkset: inNation / inRegion
    declare domain urn:versa:GeoLocated and ranges Nation / Region, so
    customers, suppliers and nations entail GeoLocated and their link
    targets entail Nation / Region — merged distinct with the direct
    types. One vectorized map pass + coarse-bucket distinct; the
    property schema rides the stage closure (no class-keyed shuffle).
    Hash-checked against a DuckDB UNION replay."""
    from .ops.graph import entail_domain_range

    return entail_domain_range(tpch_linkset(sf_dir), SUBCLASS_TYPE_RULES)


def q_doc_dsir_weights(sf_dir):
    """DSIR-style importance weights (ops.curation.dsir_weights, Xie
    et al. 2023): every document scored by the length-normalized log
    ratio of its add-one unigram likelihood under the TARGET LM (the
    lang='en' docs — the curated seed) vs the SOURCE LM (the rest).
    Two token-keyed coarse-bucket shuffles + one doc-keyed finalize;
    the driver sees three scalars (T_t, T_s, V); no broadcast.
    Hash-checked against a DuckDB replay of both LMs and the per-doc
    term sum."""
    from .ops.curation import dsir_weights

    return dsir_weights(
        _docs_with(sf_dir, ["doc_id", "text", "lang"]),
        is_target=lambda df: df["lang"].to_numpy() == "en")


def q_kg_functional_conflicts(sf_dir):
    """Functional-property violation detection
    (ops.validate.functional_conflicts): (origin, rel) pairs asserting
    more than one DISTINCT value for a declared-functional rel, over
    the TPC-H linkset with planted second-nation conflicts AND planted
    exact-duplicate re-assertions (which must dedup away, not count).
    Rel filter prunes at the scan; one (origin, rel)-keyed
    coarse-bucket shuffle dedups and counts. Hash-checked against a
    DuckDB DISTINCT + GROUP BY HAVING replay of the full statement
    union."""
    from .ops.validate import functional_conflicts

    links = tpch_linkset(sf_dir).union(_conflict_links(sf_dir))
    return functional_conflicts(links, [IN_NATION, IN_REGION])


def q_doc_len_winsorize(sf_dir):
    """Exact-quantile winsorization: n_chars clipped to its discrete
    [P10, P90] (ops.agg.winsorize — thresholds from the bounded
    sparse-histogram exact_quantiles, then one streaming clip pass).
    Hash-checked against a DuckDB quantile_disc + LEAST/GREATEST
    replay."""
    from .ops.agg import winsorize

    out = winsorize(_docs_with(sf_dir, ["doc_id", "n_chars"]),
                    "n_chars", q_lo=0.1, q_hi=0.9)
    return out.map_batches(
        lambda df: df.assign(
            n_chars=df.n_chars.astype("int64"),
            n_chars_wins=df.n_chars_wins.astype("int64")),
        batch_format="pandas")


def q_doc_len_ntile(sf_dir):
    """Global equal-frequency length tiers: NTILE(7) over
    (n_chars, doc_id) — ops.agg.ntile, rank from zip_with_index's one
    range-bucket exchange, tile as a pure rank formula. Hash-checked
    against SQL NTILE."""
    from .ops.agg import ntile

    out = ntile(_docs_with(sf_dir, ["doc_id", "n_chars"]),
                col="n_chars", tie_col="doc_id", n_tiles=7)
    return out.map_batches(
        lambda df: df.assign(n_chars=df.n_chars.astype("int64")),
        batch_format="pandas")


def q_kg_bipartite(sf_dir):
    """Per-component bipartiteness (odd-cycle detection) via BFS-layer
    parity — ops.graph.bipartite_check: min-label components, ONE
    multi-source BFS seeded at each component's min node, parity
    attached to edges through tagged bucket joins. Fixture: customers
    partitioned into rings by c_custkey mod G (G scaled so rings stay
    ~40 nodes at any sf), so even rings are bipartite and odd rings
    carry exactly one odd edge. Hash-checked against a DuckDB
    recursive min-depth + parity replay."""
    import ray.data as rd

    from .core.exchange import bucketed_group_apply
    from .ops.graph import bipartite_check

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    G = max(23, cust.count() // 40)

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        k = df["c_custkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"k": k, "g": k % G})

    def _cycle(group: pd.DataFrame) -> pd.DataFrame:
        ks = np.sort(group["k"].to_numpy(dtype=np.int64))
        src, dst = ks[:-1], ks[1:]
        if len(ks) >= 3:  # close the ring
            src = np.append(src, ks[-1])
            dst = np.append(dst, ks[0])
        return pd.DataFrame({"src": src, "dst": dst})

    edges = bucketed_group_apply(
        cust.map_batches(_tag, batch_format="pandas"), ["g"], _cycle,
        pa.schema({"src": pa.int64(), "dst": pa.int64()}), min_group_size=2)
    return bipartite_check(edges)


def q_doc_winnow_containment(sf_dir):
    """Asymmetric overlap (containment) on winnowing sketches:
    overlap pairs annotated with BOTH docs' distinct-fingerprint
    sketch sizes (ops.dedup.winnow_containment_pairs — pair candidates
    from fingerprint equality, sizes attached via two tagged bucket
    joins against the doc-cardinality count table). All integers;
    hash-checked against the SQL join replay."""
    return dd.winnow_containment_pairs(
        _docs_with(sf_dir, ["doc_id", "text"]),
        k=WINNOW_K, w=WINNOW_W,
        min_shared=WINNOW_MIN_SHARED, max_fp_docs=WINNOW_CAP)


def q_doc_len_outliers(sf_dir):
    """Per-source robust length outliers: |n_chars - median| > 3*MAD
    with both medians exact-discrete (ops.agg.mad_outliers — two
    distinct-value-partial quantile shuffles + a broadcast flag pass;
    the corpus never shuffles). Integer-exact, hash-checked against a
    DuckDB quantile_disc replay."""
    from .ops.agg import mad_outliers

    out = mad_outliers(
        _docs_with(sf_dir, ["doc_id", "source", "n_chars"]),
        key="source", col="n_chars", k=3)
    return out.map_batches(
        lambda df: df.assign(n_chars=df.n_chars.astype("int64")),
        batch_format="pandas")


WINNOW_K, WINNOW_W = 16, 12
WINNOW_CAP, WINNOW_MIN_SHARED = 32, 2


def q_doc_winnow(sf_dir):
    """Winnowing document fingerprints (MOSS sketch): char-16-gram md5
    hashes, window-of-12 minimum selection, ties to the rightmost
    minimal hash (ops.dedup.winnow_fingerprints — a pure per-document
    map, no shuffle). Hash-checked against a DuckDB replay of the
    selection rule (windowed self-join + QUALIFY rightmost-argmin)."""
    return dd.winnow_fingerprints(
        _docs_with(sf_dir, ["doc_id", "text"]), k=WINNOW_K, w=WINNOW_W)


def q_doc_winnow_pairs(sf_dir):
    """Document-overlap pairs sharing >= 2 winnowing fingerprints
    (ops.dedup.winnow_overlap_pairs — fingerprint-keyed coarse-bucket
    pair emission + pair-keyed count shuffle; never all-pairs;
    fingerprints in > 32 docs hub-capped). Hash-checked against a
    DuckDB shared-fingerprint self-join with the same cap."""
    return dd.winnow_overlap_pairs(
        _docs_with(sf_dir, ["doc_id", "text"]),
        k=WINNOW_K, w=WINNOW_W,
        min_shared=WINNOW_MIN_SHARED, max_fp_docs=WINNOW_CAP)


def build_queries():
    return {
        "doc_langid": q_doc_langid,
        "doc_quality": q_doc_quality,
        "doc_lm_perplexity": q_doc_lm_perplexity,
        "doc_lm2_perplexity": q_doc_lm2_perplexity,
        "doc_url_normalize": q_doc_url_normalize,
        "host_doc_counts": q_host_doc_counts,
        "doc_pii_scrub": q_doc_pii_scrub,
        "doc_repetition": q_doc_repetition,
        "doc_compression": q_doc_compression,
        "doc_boilerplate": q_doc_boilerplate,
        "doc_above_median_chars": q_doc_above_median_chars,
        "part_triangles": q_part_triangles,
        "links_intersect": q_links_intersect,
        "links_diff": q_links_diff,
        "kg_random_walks": q_kg_random_walks,
        "part_link_prediction": q_part_link_prediction,
        "kg_shortest_paths": q_kg_shortest_paths,
        "kg_functional_conflicts": q_kg_functional_conflicts,
        "doc_dsir_weights": q_doc_dsir_weights,
        "kg_latest_statements": q_kg_latest_statements,
        "kg_domain_range": q_kg_domain_range,
        "part_closeness": q_part_closeness,
        "kg_scc": q_kg_scc,
        "er_typo_match": q_er_typo_match,
        "kg_linkset": q_kg_linkset,
        "fullquery_negation": q_fullquery_negation,
        "fullquery_disjunction": q_fullquery_disjunction,
        "fullquery_store": q_fullquery_store,
        "fullquery_large": q_fullquery_large,
        "doc_incremental_minhash": q_doc_incremental_minhash,
        "doc_line_dedup": q_doc_line_dedup,
        "doc_dup_spans": q_doc_dup_spans,
        "doc_strip_dup_spans": q_doc_strip_dup_spans,
        "kg_pagerank": q_kg_pagerank,
        "kg_personalized_pagerank": q_kg_personalized_pagerank,
        "links_jsonld_nested": q_links_jsonld_nested,
        "doc_simhash": q_doc_simhash,
        "doc_simhash_pairs": q_doc_simhash_pairs,
        "links_all": q_links_all,
        "links_match_rel": q_links_match_rel,
        "links_multimatch": q_links_multimatch,
        "links_match_attrs": q_links_match_attrs,
        "links_dedup": q_links_dedup,
        "links_remove": q_links_remove,
        "links_store_match_rel": q_links_store_match_rel,
        "links_store_incremental": q_links_store_incremental,
        "links_all_origins": q_links_all_origins,
        "links_origins_of_type": q_links_origins_of_type,
        "links_column_targets": q_links_column_targets,
        "links_follow2": q_links_follow2,
        "links_join_hop": q_links_join_hop,
        "links_zoom": q_links_zoom,
        "links_replace_values": q_links_replace_values,
        "links_duplicate_statements": q_links_duplicate_statements,
        "links_out_degrees": q_links_out_degrees,
        "graph_wcc": q_graph_wcc,
        "kg_sameas_canonical": q_kg_sameas_canonical,
        "kg_mention_cooccurrence": q_kg_mention_cooccurrence,
        "kg_negative_samples": q_kg_negative_samples,
        "part_kcore": q_part_kcore,
        "kg_hits": q_kg_hits,
        "kg_schema_profile": q_kg_schema_profile,
        "part_communities": q_part_communities,
        "part_neighbor_jaccard": q_part_neighbor_jaccard,
        "part_assortativity": q_part_assortativity,
        "part_clustering": q_part_clustering,
        "kg_bfs_depth": q_kg_bfs_depth,
        "kg_type_entailment": q_kg_type_entailment,
        "links_shacl": q_links_shacl,
        "miniquery_conj": q_miniquery_conj,
        "miniquery_store": q_miniquery_store,
        "transitive_closure": q_transitive_closure,
        "csv_template_links": q_csv_template_links,
        "links_csv_roundtrip": q_links_csv_roundtrip,
        "literate_corpus": q_literate_corpus,
        "nt_roundtrip": q_nt_roundtrip,
        "doc_exact_dedup": q_doc_exact_dedup,
        "doc_incremental_dedup": q_doc_incremental_dedup,
        "doc_token_stats": q_doc_token_stats,
        "doc_stratified_sample": q_doc_stratified_sample,
        "doc_uniform_sample": q_doc_uniform_sample,
        "doc_token_budget": q_doc_token_budget,
        "doc_contamination": q_doc_contamination,
        "doc_norm_text": q_doc_norm_text,
        "doc_chunks": q_doc_chunks,
        "doc_pack_sequences": q_doc_pack_sequences,
        "doc_curation": q_doc_curation,
        "doc_gopher_quality": q_doc_gopher_quality,
        "doc_top_tokens": q_doc_top_tokens,
        "doc_bm25": q_doc_bm25,
        "doc_tfidf": q_doc_tfidf,
        "doc_postings": q_doc_postings,
        "doc_bpe_merges": q_doc_bpe_merges,
        "doc_bpe_tokens": q_doc_bpe_tokens,
        "doc_cos_pairs": q_doc_cos_pairs,
        "doc_len_pct_rank": q_doc_len_pct_rank,
        "doc_split": q_doc_split,
        "doc_mixture": q_doc_mixture,
        "doc_mentions": q_doc_mentions,
        "doc_top_per_group": q_doc_top_per_group,
        "doc_lang_counts": q_doc_lang_counts,
        "doc_fingerprint": q_doc_fingerprint,
        "doc_minhash_dedup": q_doc_minhash_dedup,
        "doc_near_dup_pairs": q_doc_near_dup_pairs,
        "edit_distance_pairs": q_edit_distance_pairs,
        "doc_near_dup_keep_best": q_doc_near_dup_keep_best,
        "doc_winnow": q_doc_winnow,
        "doc_winnow_pairs": q_doc_winnow_pairs,
        "doc_len_outliers": q_doc_len_outliers,
        "kg_bipartite": q_kg_bipartite,
        "doc_len_ntile": q_doc_len_ntile,
        "doc_len_winsorize": q_doc_len_winsorize,
        "part_harmonic": q_part_harmonic,
        "doc_profile": q_doc_profile,
        "doc_weighted_sample": q_doc_weighted_sample,
        "doc_len_pct_by_source": q_doc_len_pct_by_source,
        "doc_jsonl_roundtrip": q_doc_jsonl_roundtrip,
        "part_ktruss": q_part_ktruss,
        "part_mis": q_part_mis,
        "doc_winnow_containment": q_doc_winnow_containment,
    }


def _pagerank_sql(n_iters=10, damping=0.85, seed_pred=None):
    """DuckDB replay of ops.graph.pagerank with the iteration count
    UNROLLED into CTE steps (aggregation inside a recursive CTE member
    is not portable SQL): r0 = 1/N over the src+dst node set; step k
    computes r_k = (1-d)/N + d*(inflow_k + dangling(r_{k-1})/N) where
    inflow sums r_{k-1}/out_degree over edge ROWS (parallel edges
    count, as in _iri_edges) and dangling is the previous ranks' mass
    on zero-out-degree nodes. n_iters=10 in the engine means the
    first loop iteration emits r0 unchanged, then 9 updates — so the
    oracle emits r9. Rounded to 8 decimals to absorb summation-order
    float drift (both sides round identically).

    ``seed_pred``: optional SQL predicate over ``node`` selecting the
    personalization seeds — teleport/dangling then flow to the
    uniform-over-seeds vector s instead of 1/N, and r0 = s (the
    personalized replay of ops.graph.pagerank(personalize=...))."""
    if seed_pred is None:
        svec = ("svec AS MATERIALIZED (SELECT node, "
                "1.0/(SELECT n FROM meta) AS s FROM nodes), ")
    else:
        svec = (
            "seeds AS MATERIALIZED (SELECT node FROM nodes "
            f"WHERE {seed_pred}), "
            "smeta AS MATERIALIZED (SELECT CAST(COUNT(*) AS DOUBLE) AS k "
            "FROM seeds), "
            "svec AS MATERIALIZED (SELECT n.node, CASE WHEN sd.node IS "
            "NOT NULL THEN 1.0/(SELECT k FROM smeta) ELSE 0.0 END AS s "
            "FROM nodes n LEFT JOIN seeds sd USING (node)), ")
    steps = []
    prev = "r0"
    for k in range(1, n_iters):
        steps.append(
            f"r{k} AS MATERIALIZED (SELECT n.node, "
            f"(1 - {damping}) * v.s + {damping} * "
            f"(COALESCE(f.inflow, 0) + dg.mass * v.s) AS rank "
            f"FROM nodes n JOIN svec v USING (node) "
            f"LEFT JOIN (SELECT e.dst AS node, SUM(p.rank / dd.d) AS inflow "
            f"FROM edges e JOIN {prev} p ON p.node = e.src "
            f"JOIN deg dd ON dd.src = e.src GROUP BY e.dst) f USING (node) "
            f"CROSS JOIN (SELECT COALESCE(SUM(p.rank), 0) AS mass "
            f"FROM {prev} p LEFT JOIN deg dd ON dd.src = p.node "
            f"WHERE dd.src IS NULL) dg)"
        )
        prev = f"r{k}"
    return (
        f"WITH links AS ({LINKSET_SQL}), "
        "edges AS MATERIALIZED (SELECT origin AS src, target AS dst FROM links "
        "WHERE target_is_iri AND target IS NOT NULL), "
        "nodes AS MATERIALIZED (SELECT src AS node FROM edges "
        "UNION SELECT dst FROM edges), "
        "deg AS MATERIALIZED (SELECT src, CAST(COUNT(*) AS DOUBLE) AS d "
        "FROM edges GROUP BY src), "
        "meta AS MATERIALIZED (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM nodes), "
        + svec +
        "r0 AS MATERIALIZED (SELECT node, s AS rank FROM svec), "
        + ", ".join(steps)
        + f" SELECT node, round(rank, 8) AS rank FROM {prev} ORDER BY node"
    )


SIMHASH_CTES = (
    # bit-exact SQL replay of ops.dedup.simhash64_batch(hasher="md5"):
    # tokens = whitespace split (same class the green doc_top_tokens
    # oracle uses), word hash = md5_number_upper (little-endian first
    # 8 md5 digest bytes, matching _hash_words_md5), per-bit sum of
    # +count/-count, bit set iff sum > 0
    "toks AS MATERIALIZED (SELECT doc_id, t AS w, CAST(COUNT(*) AS BIGINT)"
    " AS cnt FROM (SELECT doc_id, unnest(regexp_split_to_array(text,"
    " '[ \\t\\r\\n\\f\\v]+')) AS t FROM documents) WHERE t <> ''"
    " GROUP BY doc_id, t), "
    "wh AS MATERIALIZED (SELECT doc_id, md5_number_upper(w) AS h, cnt"
    " FROM toks), "
    "bits AS (SELECT unnest(generate_series(0, 63)) AS b), "
    "v AS MATERIALIZED (SELECT doc_id, b, SUM(CASE WHEN (h >> b) & 1 = 1"
    " THEN cnt ELSE -cnt END) AS s FROM wh CROSS JOIN bits"
    " GROUP BY doc_id, b), "
    "sig AS MATERIALIZED (SELECT d.doc_id, COALESCE(x.u, 0) AS u"
    " FROM documents d LEFT JOIN (SELECT doc_id, SUM(CASE WHEN s > 0"
    " THEN (1::UBIGINT << b) ELSE 0::UBIGINT END) AS u FROM v"
    " GROUP BY doc_id) x USING (doc_id))"
)


def _winnow_ctes(k=WINNOW_K, w=WINNOW_W):
    """SQL replay of ops.dedup.winnow_fingerprints: char k-gram hashes
    via md5_number_upper (same little-endian-first-8-bytes convention
    as _hash_words_md5), window min over the w grams ending at each
    position with the rightmost-min tie rule expressed as QUALIFY
    row_number ORDER BY h ASC, p DESC. Positions are 1-based substr
    positions on both sides."""
    return (
        "grams AS MATERIALIZED (SELECT doc_id, p, "
        f"md5_number_upper(substr(text, p, {k})) AS h "
        "FROM (SELECT doc_id, text, "
        f"unnest(generate_series(1, length(text) - {k} + 1)) AS p "
        f"FROM documents WHERE length(text) >= {k})), "
        "wsel AS MATERIALIZED (SELECT g1.doc_id, g2.p, g2.h "
        "FROM grams g1 JOIN grams g2 ON g1.doc_id = g2.doc_id "
        f"AND g2.p BETWEEN g1.p - {w - 1} AND g1.p "
        f"WHERE g1.p >= {w} "
        "QUALIFY row_number() OVER (PARTITION BY g1.doc_id, g1.p "
        "ORDER BY g2.h ASC, g2.p DESC) = 1)"
    )


def build_oracles():
    L = f"WITH links AS ({LINKSET_SQL})"
    out = {
        "kg_pagerank": _pagerank_sql(n_iters=10, damping=0.85),
        "kg_personalized_pagerank": _pagerank_sql(
            n_iters=10, damping=0.85,
            seed_pred="node LIKE 'urn:versa:region:%'"),
        "fullquery_negation": (
            f"{L} SELECT DISTINCT origin AS c FROM links "
            f"WHERE rel = '{SEGMENT}' AND target = 'BUILDING' "
            "AND origin NOT IN (SELECT origin FROM links "
            f"WHERE rel = '{IN_NATION}' AND target = 'urn:versa:nation:3') "
            "ORDER BY c"
        ),
        "fullquery_disjunction": (
            f"{L} SELECT DISTINCT origin AS e FROM links "
            f"WHERE rel = '{IN_NATION}' AND target = 'urn:versa:nation:3' "
            "AND origin IN (SELECT origin FROM links "
            f"WHERE rel = '{TYPE}' AND target IN "
            "('urn:versa:Supplier', 'urn:versa:Customer')) ORDER BY e"
        ),
        "doc_simhash": (
            f"WITH {SIMHASH_CTES} "
            "SELECT doc_id, CAST(CASE WHEN u >= 9223372036854775808 "
            "THEN u - 18446744073709551616 ELSE u END AS BIGINT) "
            "AS simhash FROM sig ORDER BY doc_id"
        ),
        "doc_simhash_pairs": (
            f"WITH {SIMHASH_CTES}, "
            "sp AS MATERIALIZED (SELECT doc_id, CAST(u AS UBIGINT) AS u "
            "FROM sig) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(bit_count(xor(a.u, b.u)) AS BIGINT) AS hamming "
            "FROM sp a JOIN sp b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.u, b.u)) <= 3 ORDER BY id_a, id_b"
        ),
        "doc_winnow": (
            f"WITH {_winnow_ctes()} "
            "SELECT DISTINCT doc_id, CAST(p AS BIGINT) AS pos, "
            "CAST(CASE WHEN h >= 9223372036854775808 "
            "THEN h - 18446744073709551616 ELSE h END AS BIGINT) AS fp "
            "FROM wsel ORDER BY doc_id, pos"
        ),
        "doc_winnow_pairs": (
            f"WITH {_winnow_ctes()}, "
            "dfp AS MATERIALIZED (SELECT DISTINCT doc_id, h FROM wsel), "
            "ok AS (SELECT h FROM dfp GROUP BY h "
            f"HAVING COUNT(*) <= {WINNOW_CAP}) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(COUNT(*) AS BIGINT) AS shared "
            "FROM dfp a JOIN dfp b ON a.h = b.h AND a.doc_id < b.doc_id "
            "JOIN ok ON ok.h = a.h GROUP BY a.doc_id, b.doc_id "
            f"HAVING COUNT(*) >= {WINNOW_MIN_SHARED} ORDER BY id_a, id_b"
        ),
        "doc_winnow_containment": (
            f"WITH {_winnow_ctes()}, "
            "dfp AS MATERIALIZED (SELECT DISTINCT doc_id, h FROM wsel), "
            "cnt AS MATERIALIZED (SELECT doc_id, CAST(COUNT(*) AS BIGINT) "
            "AS n_fp FROM dfp GROUP BY doc_id), "
            "ok AS (SELECT h FROM dfp GROUP BY h "
            f"HAVING COUNT(*) <= {WINNOW_CAP}), "
            "pr AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(COUNT(*) AS BIGINT) AS shared "
            "FROM dfp a JOIN dfp b ON a.h = b.h AND a.doc_id < b.doc_id "
            "JOIN ok ON ok.h = a.h GROUP BY a.doc_id, b.doc_id "
            f"HAVING COUNT(*) >= {WINNOW_MIN_SHARED}) "
            "SELECT pr.id_a, pr.id_b, pr.shared, ca.n_fp AS n_a, "
            "cb.n_fp AS n_b FROM pr "
            "JOIN cnt ca ON ca.doc_id = pr.id_a "
            "JOIN cnt cb ON cb.doc_id = pr.id_b "
            "ORDER BY id_a, id_b"
        ),
        "doc_len_outliers": (
            "WITH med AS (SELECT source, quantile_disc(n_chars, 0.5) "
            "AS med FROM documents GROUP BY source), "
            "mad AS (SELECT d.source, "
            "quantile_disc(abs(d.n_chars - m.med), 0.5) AS mad "
            "FROM documents d JOIN med m USING (source) GROUP BY d.source) "
            "SELECT d.doc_id, d.source, CAST(d.n_chars AS BIGINT) AS n_chars, "
            "CAST(m.med AS BIGINT) AS med, CAST(a.mad AS BIGINT) AS mad, "
            "abs(d.n_chars - m.med) > 3 * a.mad AS is_outlier "
            "FROM documents d JOIN med m USING (source) "
            "JOIN mad a ON a.source = d.source ORDER BY d.doc_id"
        ),
        # bipartiteness replay: same ring fixture (customers mod G,
        # G = max(23, n//40)), min depth from each ring's min node via
        # the capped recursive walk (UNION dedups states; rings stay
        # ~40 nodes so min depth < 40), odd edge = endpoints with
        # equal depth parity
        "kg_bipartite": (
            "WITH RECURSIVE gsz AS (SELECT GREATEST(23, COUNT(*) // 40) "
            "AS g FROM customer), "
            "mem AS MATERIALIZED (SELECT c_custkey AS k, "
            "c_custkey % (SELECT g FROM gsz) AS g, "
            "row_number() OVER (PARTITION BY c_custkey % (SELECT g FROM gsz) "
            "ORDER BY c_custkey) AS i, "
            "COUNT(*) OVER (PARTITION BY c_custkey % (SELECT g FROM gsz)) "
            "AS s FROM customer), "
            "e AS MATERIALIZED (SELECT DISTINCT LEAST(u0, v0) AS u, "
            "GREATEST(u0, v0) AS v FROM ("
            "SELECT a.k AS u0, b.k AS v0 FROM mem a "
            "JOIN mem b ON a.g = b.g AND b.i = a.i + 1 "
            "UNION ALL SELECT a.k, b.k FROM mem a "
            "JOIN mem b ON a.g = b.g AND a.i = a.s AND b.i = 1 "
            "WHERE a.s >= 3)), "
            "bd AS MATERIALIZED (SELECT u AS a, v AS b FROM e "
            "UNION ALL SELECT v, u FROM e), "
            "seeds AS (SELECT MIN(k) AS seed FROM mem GROUP BY g "
            "HAVING COUNT(*) >= 2), "
            "walk(seed, node, depth) AS ("
            "SELECT seed, seed, 0 FROM seeds "
            "UNION SELECT w.seed, bd.b, w.depth + 1 FROM walk w "
            "JOIN bd ON bd.a = w.node WHERE w.depth < 40), "
            "md AS MATERIALIZED (SELECT seed, node, MIN(depth) AS d "
            "FROM walk GROUP BY 1, 2), "
            "oe AS (SELECT du.seed AS component, "
            "CAST(COUNT(*) AS BIGINT) AS n_edges, "
            "CAST(COUNT(*) FILTER ((du.d % 2) = (dv.d % 2)) AS BIGINT) "
            "AS odd_edges FROM e JOIN md du ON du.node = e.u "
            "JOIN md dv ON dv.node = e.v AND dv.seed = du.seed "
            "GROUP BY 1), "
            "nn AS (SELECT seed AS component, CAST(COUNT(*) AS BIGINT) "
            "AS n_nodes FROM md GROUP BY 1) "
            "SELECT nn.component, n_nodes, n_edges, odd_edges, "
            "odd_edges = 0 AS is_bipartite FROM nn "
            "JOIN oe USING (component) ORDER BY component"
        ),
        "doc_len_ntile": (
            "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
            "CAST(NTILE(7) OVER (ORDER BY n_chars, doc_id) AS BIGINT) "
            "AS tile FROM documents ORDER BY doc_id"
        ),
        "doc_len_winsorize": (
            "WITH th AS (SELECT quantile_disc(n_chars, 0.1) AS lo, "
            "quantile_disc(n_chars, 0.9) AS hi FROM documents) "
            "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
            "CAST(LEAST(GREATEST(n_chars, th.lo), th.hi) AS BIGINT) "
            "AS n_chars_wins, "
            "n_chars < th.lo OR n_chars > th.hi AS clipped "
            "FROM documents, th ORDER BY doc_id"
        ),
        # the binder query returns its nested output FLATTENED back to
        # (origin, pred, target) triples (self-gated exact vs the
        # deduped links); SQL rebuilds the same triples relationally
        "links_jsonld_nested": (
            f"{L} SELECT DISTINCT origin, CASE WHEN rel = '{TYPE}' "
            "THEN '@type' ELSE rel END AS pred, target FROM links "
            "ORDER BY origin, pred, target"
        ),
        "links_all": f"{L} SELECT * FROM links",
        "links_match_rel": f"{L} SELECT * FROM links WHERE rel = '{NAME}'",
        "links_multimatch": (
            f"{L} SELECT * FROM links WHERE rel IN ('{NAME}', '{IN_REGION}') "
            "AND origin IN ('urn:versa:nation:0','urn:versa:nation:1',"
            "'urn:versa:nation:2','urn:versa:nation:3','urn:versa:nation:4')"
        ),
        "links_match_attrs": f"{L} SELECT * FROM links WHERE attrs = '{SRC_ATTRS}'",
        "links_dedup": f"{L} SELECT DISTINCT * FROM links",
        "links_intersect": (
            f"{L} SELECT * FROM links WHERE rel IN ('{TYPE}', '{NAME}') "
            "INTERSECT SELECT * FROM links WHERE "
            "origin LIKE 'urn:versa:nation:%' "
            "OR origin LIKE 'urn:versa:region:%'"
        ),
        # KG snapshot diff: left-only quads 'removed', right-only
        # 'added' (set semantics — EXCEPT dedups like the engine)
        "links_diff": (
            f"{L}, a AS (SELECT * FROM links WHERE rel IN "
            f"('{TYPE}', '{NAME}')), "
            "b AS (SELECT * FROM links WHERE "
            "origin LIKE 'urn:versa:nation:%' "
            "OR origin LIKE 'urn:versa:region:%') "
            "SELECT *, 'removed' AS change FROM (SELECT * FROM a "
            "EXCEPT SELECT * FROM b) "
            "UNION ALL SELECT *, 'added' AS change FROM ("
            "SELECT * FROM b EXCEPT SELECT * FROM a)"
        ),
        "links_remove": (
            f"{L} SELECT * FROM links WHERE NOT (rel = '{NAME}' AND origin IN "
            "('urn:versa:nation:0','urn:versa:nation:1','urn:versa:nation:2',"
            "'urn:versa:nation:3','urn:versa:nation:4'))"
        ),
        "links_store_match_rel": f"{L} SELECT * FROM links WHERE rel = '{NAME}'",
        "links_store_incremental": f"{L} SELECT DISTINCT * FROM links",
        "links_all_origins": f"{L} SELECT DISTINCT origin FROM links",
        "links_origins_of_type": (
            f"{L} SELECT DISTINCT origin FROM links "
            f"WHERE rel = '{TYPE}' AND target = 'urn:versa:Customer'"
        ),
        "links_column_targets": f"{L} SELECT DISTINCT target FROM links WHERE rel = '{NAME}'",
        "links_follow2": (
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR) AS origin, "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) AS target "
            "FROM customer JOIN nation ON c_nationkey = n_nationkey "
            "WHERE c_custkey BETWEEN 1 AND 20"
        ),
        "links_join_hop": (
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR) AS origin, "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) AS target "
            "FROM customer JOIN nation ON c_nationkey = n_nationkey "
            "UNION ALL "
            "SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR), "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) "
            "FROM supplier JOIN nation ON s_nationkey = n_nationkey"
        ),
        "links_zoom": (
            f"{L}, hop0 AS (SELECT * FROM links WHERE origin = 'urn:versa:customer:1'), "
            "hop1 AS (SELECT l.* FROM links l JOIN hop0 ON l.origin = hop0.target "
            "AND hop0.target_is_iri), "
            "hop2 AS (SELECT l.* FROM links l JOIN hop1 ON l.origin = hop1.target "
            "AND hop1.target_is_iri) "
            "SELECT DISTINCT origin, rel, target FROM "
            "(SELECT * FROM hop0 UNION ALL SELECT * FROM hop1 UNION ALL SELECT * FROM hop2)"
        ),
        "links_replace_values": (
            f"{L} SELECT CASE WHEN origin = 'urn:versa:nation:1' "
            "THEN 'urn:versa:nation:merged-1' ELSE origin END AS origin, rel, "
            "CASE WHEN target = 'urn:versa:nation:1' "
            "THEN 'urn:versa:nation:merged-1' ELSE target END AS target, "
            "target_is_iri, attrs FROM links"
        ),
        "links_duplicate_statements": (
            f"{L} SELECT * FROM links UNION ALL "
            "SELECT 'urn:versa:customer:copy-1' AS origin, rel, target, "
            "target_is_iri, attrs FROM links WHERE origin = 'urn:versa:customer:1'"
        ),
        "links_out_degrees": (
            f"{L} SELECT origin, count(*) AS out_degree FROM links GROUP BY origin"
        ),
        "miniquery_conj": (
            "SELECT DISTINCT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR) AS a "
            "FROM customer WHERE c_mktsegment = 'BUILDING'"
        ),
        # same answer through the stored, partition-pruned plan
        "miniquery_store": (
            "SELECT DISTINCT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR) AS a "
            "FROM customer WHERE c_mktsegment = 'BUILDING'"
        ),
        "links_shacl": (
            f"WITH links AS ({LINKSET_SQL}), "
            f"types AS (SELECT origin, target AS cls FROM links "
            f"WHERE rel = '{TYPE}' "
            f"AND target IN ('{URN}Customer', '{URN}Nation')), "
            f"counts AS (SELECT origin, rel AS prop, "
            f"CAST(count(*) AS BIGINT) AS n FROM links "
            f"WHERE rel IN ('{IN_REGION}', '{NAME}') "
            "GROUP BY origin, rel) "
            # rule 1: Customer min 1 inRegion -> all customers missing
            f"SELECT t.origin, t.cls, '{IN_REGION}' AS prop, "
            "coalesce(c.n, 0) AS n, 'missing' AS kind FROM types t "
            f"LEFT JOIN counts c ON c.origin = t.origin "
            f"AND c.prop = '{IN_REGION}' "
            f"WHERE t.cls = '{URN}Customer' AND coalesce(c.n, 0) < 1 "
            "UNION ALL "
            # rule 2: Nation max 0 name -> all nations excess
            f"SELECT t.origin, t.cls, '{NAME}' AS prop, "
            "coalesce(c.n, 0) AS n, 'excess' AS kind FROM types t "
            f"LEFT JOIN counts c ON c.origin = t.origin "
            f"AND c.prop = '{NAME}' "
            f"WHERE t.cls = '{URN}Nation' AND coalesce(c.n, 0) > 0 "
            "UNION ALL "
            # rule 3 (conforming): Customer name in [1, 1] -> no rows
            f"SELECT t.origin, t.cls, '{NAME}' AS prop, "
            "coalesce(c.n, 0) AS n, 'missing' AS kind FROM types t "
            f"LEFT JOIN counts c ON c.origin = t.origin "
            f"AND c.prop = '{NAME}' "
            f"WHERE t.cls = '{URN}Customer' AND (coalesce(c.n, 0) < 1) "
            "UNION ALL "
            f"SELECT t.origin, t.cls, '{NAME}' AS prop, "
            "coalesce(c.n, 0) AS n, 'excess' AS kind FROM types t "
            f"LEFT JOIN counts c ON c.origin = t.origin "
            f"AND c.prop = '{NAME}' "
            f"WHERE t.cls = '{URN}Customer' AND coalesce(c.n, 0) > 1"
        ),
        "kg_type_entailment": (
            f"WITH RECURSIVE links AS ({LINKSET_SQL}), "
            "sub(c, p) AS (VALUES "
            + ", ".join(f"('{c}', '{p}')" for c, p in SUBCLASS_PAIRS)
            + "), "
            "closure(c, p) AS (SELECT c, p FROM sub UNION "
            "SELECT closure.c, sub.p FROM closure "
            "JOIN sub ON closure.p = sub.c), "
            f"types AS (SELECT origin, target AS cls FROM links "
            f"WHERE rel = '{TYPE}') "
            "SELECT DISTINCT origin, cls FROM ("
            "SELECT origin, cls FROM types UNION ALL "
            "SELECT t.origin, c.p AS cls FROM types t "
            "JOIN closure c ON t.cls = c.c)"
        ),
        "kg_sameas_canonical": (
            f"WITH RECURSIVE links AS ({LINKSET_SQL}), "
            "aliased AS (SELECT CAST(c_custkey AS VARCHAR) AS k "
            "FROM customer WHERE c_custkey % 10 = 1), "
            "extra(origin, rel, target, target_is_iri, attrs) AS ("
            f"SELECT 'urn:versa:alias:a:' || k, '{SAMEAS_REL}', "
            "'urn:versa:customer:' || k, TRUE, '{}' FROM aliased "
            "UNION ALL "
            f"SELECT 'urn:versa:alias:b:' || k, '{SAMEAS_REL}', "
            "'urn:versa:alias:a:' || k, TRUE, '{}' FROM aliased "
            "UNION ALL "
            f"SELECT 'urn:versa:alias:b:' || k, '{NAME}', "
            "'Alias of customer ' || k, FALSE, '{}' FROM aliased "
            "UNION ALL "
            f"SELECT 'urn:versa:ref:' || k, '{MENTIONS_REL}', "
            "'urn:versa:alias:a:' || k, TRUE, '{}' FROM aliased), "
            "all_links AS (SELECT * FROM links UNION ALL SELECT * FROM extra), "
            "e0 AS (SELECT origin AS a, target AS b FROM all_links "
            f"WHERE rel = '{SAMEAS_REL}'), "
            "edges AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0), "
            "reach(node, lab) AS ("
            "SELECT DISTINCT a, a FROM edges "
            "UNION "
            "SELECT e.b, r.lab FROM reach r JOIN edges e ON e.a = r.node), "
            "canon AS (SELECT node, min(lab) AS authority "
            "FROM reach GROUP BY node) "
            "SELECT DISTINCT coalesce(co.authority, l.origin) AS origin, "
            "l.rel, coalesce(ct.authority, l.target) AS target, "
            "l.target_is_iri, l.attrs "
            "FROM all_links l "
            "LEFT JOIN canon co ON co.node = l.origin "
            "LEFT JOIN canon ct ON ct.node = l.target "
            f"WHERE l.rel <> '{SAMEAS_REL}'"
        ),
        "doc_above_median_chars": (
            "SELECT doc_id, lang, n_chars FROM ("
            "SELECT doc_id, lang, n_chars, "
            "quantile_disc(n_chars, 0.5) OVER (PARTITION BY lang) AS med "
            "FROM documents) WHERE n_chars > med"
        ),
        "kg_negative_samples": (
            f"WITH links AS ({LINKSET_SQL}), "
            "ents AS (SELECT DISTINCT origin AS entity FROM links), "
            "idx AS (SELECT entity, "
            "row_number() OVER (ORDER BY entity) - 1 AS ix FROM ents), "
            "nn AS (SELECT count(*) AS n FROM ents), "
            "pos AS (SELECT origin, rel, target FROM links "
            "WHERE target_is_iri "
            f"AND rel IN ('{IN_NATION}', '{IN_REGION}')), "
            "ii AS (SELECT 1 AS neg_i UNION ALL SELECT 2), "
            "draws AS (SELECT p.origin, p.rel, p.target, i.neg_i, "
            "CAST(('0x' || left(md5(p.origin || '|' || p.rel || '|' || "
            "p.target || '|' || CAST(i.neg_i AS VARCHAR)), 15)) AS BIGINT) "
            "AS raw FROM pos p CROSS JOIN ii i), "
            "res1 AS (SELECT d.origin, d.rel, d.target, d.neg_i, d.raw, "
            "e.entity AS ent FROM draws d CROSS JOIN nn "
            "JOIN idx e ON e.ix = d.raw % nn.n) "
            "SELECT origin, rel, target, neg_i, ent AS neg_entity "
            "FROM res1 WHERE ent <> target "
            "UNION ALL "
            "SELECT r.origin, r.rel, r.target, r.neg_i, e2.entity "
            "FROM res1 r CROSS JOIN nn JOIN idx e2 "
            "ON e2.ix = (r.raw + 1) % nn.n WHERE r.ent = r.target"
        ),
        "kg_bfs_depth": (
            "WITH RECURSIVE edges AS ("
            "SELECT 'urn:versa:order:' || CAST(o_orderkey AS VARCHAR) AS a, "
            "'urn:versa:customer:' || CAST(o_custkey AS VARCHAR) AS b "
            "FROM orders "
            "UNION ALL "
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), "
            "'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR) "
            "FROM customer "
            "UNION ALL "
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) "
            "FROM nation), "
            "walk(node, depth) AS ("
            "SELECT 'urn:versa:order:' || CAST(o_orderkey AS VARCHAR), 0 "
            "FROM orders WHERE o_orderkey % 100 = 1 "
            "UNION "
            "SELECT e.b, w.depth + 1 FROM walk w "
            "JOIN edges e ON e.a = w.node WHERE w.depth < 40) "
            "SELECT node, CAST(min(depth) AS BIGINT) AS depth "
            "FROM walk GROUP BY node"
        ),
        "graph_wcc": (
            "WITH RECURSIVE e0 AS ("
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR) AS a, "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) AS b "
            "FROM nation "
            "UNION ALL "
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), "
            "'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR) FROM customer "
            "UNION ALL "
            "SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR), "
            "'urn:versa:nation:' || CAST(s_nationkey AS VARCHAR) FROM supplier"
            "), edges AS ("
            "SELECT a, b FROM e0 UNION SELECT b, a FROM e0"
            "), reach(node, lab) AS ("
            "SELECT DISTINCT a, a FROM edges "
            "UNION "
            "SELECT e.b, r.lab FROM reach r JOIN edges e ON e.a = r.node"
            ") "
            "SELECT node, min(lab) AS component FROM reach GROUP BY node"
        ),
        "transitive_closure": (
            "SELECT 'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR) AS node "
            "FROM customer WHERE c_custkey = 1 "
            "UNION SELECT 'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) "
            "FROM customer JOIN nation ON c_nationkey = n_nationkey WHERE c_custkey = 1"
        ),
        "csv_template_links": (
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR) AS origin, "
            f"'{TYPE}' AS rel, 'urn:versa:Nation' AS target, TRUE AS target_is_iri, "
            "'{}' AS attrs FROM nation "
            "UNION ALL "
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), "
            f"'{NAME}', n_name, FALSE, '{{}}' FROM nation"
        ),
        "links_csv_roundtrip": (
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR) AS origin, "
            f"'{TYPE}' AS rel, 'urn:versa:Nation' AS target, TRUE AS target_is_iri, "
            "'{}' AS attrs FROM nation "
            "UNION ALL "
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), "
            f"'{NAME}', n_name, FALSE, '{{}}' FROM nation"
        ),
        "nt_roundtrip": (
            "SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR) AS origin, "
            f"'{NAME}' AS rel, s_name AS target FROM supplier"
        ),
        "literate_corpus": (
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR) AS origin, "
            f"'{TYPE}' AS rel, 'urn:versa:Nation' AS target, TRUE AS target_is_iri, "
            "'{}' AS attrs FROM nation "
            "UNION ALL "
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), "
            f"'{NAME}', n_name, FALSE, '{{}}' FROM nation"
        ),
        "doc_exact_dedup": (
            "SELECT min(doc_id) AS doc_id, text FROM ("
            "SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents) GROUP BY text"
        ),
        # replaying (docs, shifted-dups) through the persistent state
        # converges to the same batch answer
        "doc_incremental_dedup": (
            "SELECT min(doc_id) AS doc_id, text FROM ("
            "SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents) GROUP BY text"
        ),
        "doc_token_stats": (
            "SELECT doc_id, length(text) AS n_chars, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens, "
            "len(regexp_extract_all(text, "
            "'[A-Za-z]+|[0-9]+|[^\\sA-Za-z0-9]')) AS n_bpe_tokens, "
            "length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS n_digits "
            "FROM documents"
        ),
        "doc_lang_counts": (
            "SELECT lang, count(*) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents GROUP BY lang"
        ),
        "doc_stratified_sample": (
            "SELECT doc_id, lang FROM ("
            "SELECT doc_id, lang, row_number() OVER ("
            "PARTITION BY lang "
            "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn "
            "FROM documents) WHERE rn <= 20"
        ),
        "doc_uniform_sample": (
            "SELECT doc_id, lang FROM documents "
            "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT 50"
        ),
        "doc_token_budget": (
            "SELECT doc_id, lang, n_tokens FROM ("
            "SELECT doc_id, lang, n_tokens, SUM(n_tokens) OVER ("
            "PARTITION BY lang "
            "ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id "
            "ROWS UNBOUNDED PRECEDING) AS cum FROM ("
            "SELECT doc_id, lang, CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens "
            "FROM documents)) WHERE cum <= 2000"
        ),
        "doc_contamination": (
            "WITH snips AS (SELECT substr(text, 11, 30) AS s FROM documents "
            "WHERE doc_id IN (3, 7) AND length(text) > 10) "
            "SELECT d.doc_id, CAST(count(*) AS BIGINT) AS n_hits "
            "FROM documents d JOIN snips ON position(snips.s IN d.text) > 0 "
            "GROUP BY d.doc_id"
        ),
        "doc_gopher_quality": (
            "WITH t AS (SELECT doc_id, "
            "CASE WHEN trim(text) = '' THEN [] ELSE list_filter("
            "regexp_split_to_array(trim(text), '[ \\t\\r\\n\\f\\v]+'), "
            "w -> w <> '') END AS toks, "
            "length(regexp_replace(text, '[ \\t\\r\\n\\f\\v]', '', 'g')) "
            "AS word_chars, "
            "length(text) - length(replace(text, '#', '')) AS n_hash, "
            "(length(text) - length(replace(text, '...', ''))) / 3.0 AS n_ell "
            "FROM documents), "
            "f AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS n_words, "
            "round(word_chars::DOUBLE / greatest(len(toks), 1), 6) "
            "AS mean_word_len, "
            "round((n_hash + n_ell) / greatest(len(toks), 1), 6) "
            "AS symbol_ratio, "
            "round(len(list_filter(toks, w -> regexp_matches(w, '[A-Za-z]')))"
            "::DOUBLE / greatest(len(toks), 1), 6) AS alpha_frac FROM t) "
            "SELECT doc_id, n_words, mean_word_len, symbol_ratio, alpha_frac, "
            "(n_words BETWEEN 50 AND 100000) AND "
            "(mean_word_len BETWEEN 3.0 AND 10.0) AND "
            "(symbol_ratio <= 0.1) AND (alpha_frac >= 0.8) AS gopher_pass "
            "FROM f"
        ),
        "doc_pack_sequences": (
            "WITH tok AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 "
            "ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n "
            "FROM documents), "
            "pre AS (SELECT doc_id, n, CAST(SUM(n) OVER (ORDER BY doc_id "
            "ROWS UNBOUNDED PRECEDING) - n AS BIGINT) AS strt FROM tok), "
            "spans AS (SELECT doc_id, n, strt, strt // 512 AS s0, "
            "(strt + n - 1) // 512 AS s1 FROM pre WHERE n > 0), "
            "sq AS (SELECT doc_id, n, strt, "
            "unnest(generate_series(s0, s1)) AS seq_id FROM spans) "
            "SELECT doc_id, CAST(seq_id AS BIGINT) AS seq_id, "
            "CAST(LEAST((seq_id + 1) * 512, strt + n) "
            "- GREATEST(seq_id * 512, strt) AS BIGINT) AS n_tokens FROM sq"
        ),
        "doc_chunks": (
            "WITH t AS (SELECT doc_id, "
            "CASE WHEN trim(text) = '' THEN [] ELSE "
            "regexp_split_to_array(trim(text), '[ \\t\\r\\n\\f\\v]+') "
            "END AS toks FROM documents), "
            "n AS (SELECT doc_id, toks, CAST(len(toks) AS BIGINT) "
            "AS ntok FROM t), "
            "c AS (SELECT doc_id, toks, ntok, "
            "unnest(range(0, CAST(ceil(ntok / 24.0) AS BIGINT))) "
            "AS chunk_id FROM n WHERE ntok > 0) "
            "SELECT doc_id, chunk_id, "
            "array_to_string(toks[chunk_id * 24 + 1 : "
            "CAST(least(chunk_id * 24 + 32, ntok) AS BIGINT)], ' ') "
            "AS chunk_text, "
            "least(chunk_id * 24 + 32, ntok) - chunk_id * 24 AS n_tokens "
            "FROM c"
        ),
        "doc_curation": (
            "WITH f AS (SELECT doc_id, lang, text, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens, "
            "length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) "
            "AS n_digits, length(text) AS n_chars "
            "FROM documents WHERE lang IN ('de', 'en', 'fr')), "
            "g AS (SELECT doc_id, lang, "
            "trim(regexp_replace(lower(nfc_normalize(text)), "
            "'[ \\t\\r\\n\\f\\v]+', ' ', 'g'), ' ') AS norm_text "
            "FROM f WHERE n_tokens >= 5 AND n_digits <= 0.3 * n_chars) "
            "SELECT doc_id, lang, norm_text FROM ("
            "SELECT *, row_number() OVER ("
            "PARTITION BY norm_text ORDER BY doc_id) AS rn FROM g) "
            "WHERE rn = 1"
        ),
        "doc_norm_text": (
            "SELECT doc_id, trim(regexp_replace(lower(nfc_normalize(text)), "
            "'[ \\t\\r\\n\\f\\v]+', ' ', 'g'), ' ') AS norm_text FROM documents"
        ),
        "doc_top_tokens": (
            "SELECT token, n FROM (SELECT token, "
            "CAST(count(*) AS BIGINT) AS n FROM (SELECT unnest("
            "regexp_split_to_array(text, '[ \\t\\r\\n\\f\\v]+')) AS token "
            "FROM documents) WHERE token <> '' GROUP BY token) "
            "ORDER BY n DESC, token LIMIT 50"
        ),
        # inverted-index probe: per-doc term frequency of the probe
        # terms, same [a-z0-9]+ tokenizer contract
        "doc_postings": (
            "SELECT doc_id, term, count(*)::BIGINT AS tf FROM ("
            "SELECT doc_id, unnest(string_split_regex(lower(text), "
            "'[^a-z0-9]+')) AS term FROM documents) "
            "WHERE term IN ("
            + ", ".join(f"'{t}'" for t in PROBE_TERMS)
            + ") GROUP BY doc_id, term"
        ),
        # BPE tokenizer training / encoding, merge rounds unrolled
        # into materialized CTE steps (see _bpe_sql contract notes)
        "doc_bpe_merges": _bpe_sql(BPE_MERGES, "merges"),
        "doc_bpe_tokens": _bpe_sql(BPE_MERGES, "encode"),
        # sparse tf-cosine pairs over the df-pruned term space: dot is
        # an integer sum (associativity-proof); the cosine is one IEEE
        # division on exact ints, so the threshold compare replays
        "doc_cos_pairs": (
            "WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), "
            "'[a-z0-9]+') AS t FROM documents), "
            "grams AS (SELECT doc_id, t[i] || ' ' || t[i + 1] AS term "
            "FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 1)) "
            "AS i FROM toks)), "
            "tf AS MATERIALIZED (SELECT doc_id, term, "
            "CAST(count(*) AS BIGINT) AS tf FROM grams "
            "GROUP BY doc_id, term), "
            "norm AS MATERIALIZED (SELECT doc_id, "
            "CAST(sum(tf * tf) AS BIGINT) AS n2 FROM tf GROUP BY doc_id), "
            "keep AS MATERIALIZED (SELECT term FROM tf GROUP BY term "
            "HAVING count(*) >= 2 AND count(*) <= greatest(2, CAST(floor("
            "0.06 * (SELECT count(*) FROM documents)) AS BIGINT))), "
            "pair AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(sum(a.tf * b.tf) AS BIGINT) AS dot "
            "FROM tf a JOIN keep USING (term) JOIN tf b USING (term) "
            "WHERE a.doc_id < b.doc_id GROUP BY a.doc_id, b.doc_id) "
            "SELECT id_a, id_b, dot, round(dot / sqrt(CAST(na.n2 * nb.n2 "
            "AS DOUBLE)), 6) AS cos FROM pair "
            "JOIN norm na ON na.doc_id = pair.id_a "
            "JOIN norm nb ON nb.doc_id = pair.id_b "
            "WHERE dot / sqrt(CAST(na.n2 * nb.n2 AS DOUBLE)) >= "
            + repr(COS_PAIR_THRESHOLD)
        ),
        # exact percent_rank over char lengths; the division is one
        # IEEE op on exact ints so no rounding is needed on either side
        "doc_len_pct_rank": (
            "SELECT doc_id, CAST(length(coalesce(text, '')) AS BIGINT) AS "
            "n_chars, percent_rank() OVER (ORDER BY "
            "length(coalesce(text, ''))) AS pct_rank FROM documents"
        ),
        # BM25 (Lucene idf variant, k1=1.2 b=0.75) over [a-z0-9]+
        # tokens of lowercased text; scores rounded to 9 decimals
        # before ranking, ties by doc_id — mirrors ops.retrieval
        "doc_bm25": (
            "WITH q(qid, qtext) AS (VALUES "
            + ", ".join(
                f"({i}::BIGINT, '{s}')" for i, s in enumerate(BM25_QUERIES)
            )
            + "), "
            "qt AS (SELECT DISTINCT qid, t AS term FROM (SELECT qid, "
            "unnest(string_split_regex(lower(qtext), '[^a-z0-9]+')) AS t "
            "FROM q) WHERE t <> ''), "
            "toks AS (SELECT doc_id, t AS term FROM (SELECT doc_id, "
            "unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t "
            "FROM documents) WHERE t <> ''), "
            "dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl "
            "FROM documents d LEFT JOIN toks t ON t.doc_id = d.doc_id "
            "GROUP BY d.doc_id), "
            "s AS (SELECT count(*)::DOUBLE AS n, avg(dl) AS avgdl FROM dl), "
            "tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks "
            "WHERE term IN (SELECT term FROM qt) GROUP BY doc_id, term), "
            "df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df "
            "FROM tf GROUP BY term), "
            "sc AS (SELECT qt.qid, tf.doc_id, "
            "SUM(ln((s.n - df.df + 0.5)/(df.df + 0.5) + 1) * "
            "tf.tf*(1.2+1)/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/s.avgdl))) "
            "AS score FROM qt JOIN tf USING (term) JOIN df USING (term) "
            "JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN s "
            "GROUP BY qt.qid, tf.doc_id) "
            "SELECT qid, doc_id, rank FROM (SELECT qid, doc_id, "
            "row_number() OVER (PARTITION BY qid "
            "ORDER BY round(score, 9) DESC, doc_id) AS rank FROM sc) "
            "WHERE rank <= 10 ORDER BY qid, rank"
        ),
        # whole-token-run presence: Python uses lookarounds, RE2 here
        # pads with '#' + character classes — equivalent for presence
        "doc_mentions": (
            "WITH gaz(surface, pat, entity) AS (VALUES "
            + ", ".join(
                "('{}', '{}', '{}')".format(
                    surf.lower().replace("'", "''"),
                    _re2_escape(surf.lower()).replace("'", "''"),
                    iri.replace("'", "''"),
                )
                for surf, iri in sorted(GAZETTEER.items())
            )
            + ") "
            "SELECT d.doc_id, g.surface, g.entity FROM documents d, gaz g "
            "WHERE regexp_matches('#' || lower(d.text) || '#', "
            "'[^a-z0-9]' || g.pat || '[^a-z0-9]')"
        ),
        "kg_mention_cooccurrence": (
            "WITH gaz(surface, pat, entity) AS (VALUES "
            + ", ".join(
                "('{}', '{}', '{}')".format(
                    surf.lower().replace("'", "''"),
                    _re2_escape(surf.lower()).replace("'", "''"),
                    iri.replace("'", "''"),
                )
                for surf, iri in sorted(GAZETTEER.items())
            )
            + "), "
            "m AS (SELECT DISTINCT d.doc_id, g.entity "
            "FROM documents d, gaz g "
            "WHERE regexp_matches('#' || lower(d.text) || '#', "
            "'[^a-z0-9]' || g.pat || '[^a-z0-9]')), "
            "ec AS (SELECT entity, CAST(count(*) AS BIGINT) AS n "
            "FROM m GROUP BY entity), "
            "pairs AS (SELECT a.entity AS entity_a, b.entity AS entity_b, "
            "CAST(count(*) AS BIGINT) AS n_docs "
            "FROM m a JOIN m b ON a.doc_id = b.doc_id "
            "AND a.entity < b.entity GROUP BY 1, 2) "
            "SELECT p.entity_a, p.entity_b, p.n_docs, "
            "ln(CAST(p.n_docs AS DOUBLE) "
            "* (SELECT count(*) FROM documents) / (ea.n * eb.n)) AS pmi "
            "FROM pairs p "
            "JOIN ec ea ON ea.entity = p.entity_a "
            "JOIN ec eb ON eb.entity = p.entity_b"
        ),
        # per-source keep-rate boundaries from
        # ops.sample.mixture_bound_hex(MIXTURE_RATES)
        "doc_mixture": (
            "SELECT doc_id, source FROM documents WHERE "
            "left(md5(cast(doc_id AS varchar)), 16) < CASE source "
            + " ".join(
                "WHEN '{}' THEN '{}'".format(
                    src,
                    __import__(
                        "versa_ray.ops.sample",
                        fromlist=["mixture_bound_hex"],
                    ).mixture_bound_hex(rate),
                )
                for src, rate in MIXTURE_RATES.items()
            )
            + " ELSE 'gggggggggggggggg' END"
        ),
        # boundaries derived from ops.sample.split_bound_hex(
        # SPLIT_WEIGHTS) so the oracle tracks the query's weights
        "doc_split": (
            "SELECT doc_id, CASE "
            "WHEN left(md5(cast(doc_id AS varchar)), 16) < '{}' "
            "THEN 'train' "
            "WHEN left(md5(cast(doc_id AS varchar)), 16) < '{}' "
            "THEN 'val' ELSE 'test' END AS split FROM documents".format(
                *__import__(
                    "versa_ray.ops.sample", fromlist=["split_bound_hex"]
                ).split_bound_hex(SPLIT_WEIGHTS)[:2]
            )
        ),
        "doc_top_per_group": (
            "SELECT lang, source, doc_id, n_chars, rank FROM ("
            "SELECT lang, source, doc_id, n_chars, "
            "row_number() OVER (PARTITION BY lang, source "
            "ORDER BY n_chars DESC, doc_id) AS rank FROM documents) "
            "WHERE rank <= 2 ORDER BY lang, source, rank"
        ),
        # TF-IDF top-3 keywords per doc: score = (tf/dl)*ln(N/df)
        # over [a-z0-9]+ tokens of lowercased text; scores rounded to
        # 9 decimals before ranking, ties by term asc
        "doc_tfidf": (
            "WITH toks AS (SELECT doc_id, t AS term FROM (SELECT doc_id, "
            "unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t "
            "FROM documents) WHERE t <> ''), "
            "tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks "
            "GROUP BY doc_id, term), "
            "dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks "
            "GROUP BY doc_id), "
            "dft AS (SELECT term, count(*)::DOUBLE AS df FROM tf "
            "GROUP BY term), "
            "n AS (SELECT count(*)::DOUBLE AS n FROM documents), "
            "sc AS (SELECT tf.doc_id, tf.term, "
            "(tf.tf/dl.dl)*ln(n.n/dft.df) AS score FROM tf "
            "JOIN dl USING (doc_id) JOIN dft USING (term) CROSS JOIN n) "
            "SELECT doc_id, term, rank FROM (SELECT doc_id, term, "
            "row_number() OVER (PARTITION BY doc_id "
            "ORDER BY round(score, 9) DESC, term) AS rank FROM sc) "
            "WHERE rank <= 3 ORDER BY doc_id, rank"
        ),
        "doc_fingerprint": "SELECT doc_id, md5(text) AS fp_md5 FROM documents",
        # exact word-3-shingle Jaccard over all pairs; mirrors
        # ops.dedup.word_shingles ('\\s+' split; <3-word docs collapse
        # to one whole-text shingle)
        "doc_near_dup_pairs": (
            "WITH words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(coalesce(text,'')), '\\s+') AS w "
            "FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(w) >= 3 THEN "
            "list_distinct(list_transform(range(1, len(w)-1), "
            "i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) "
            "ELSE [array_to_string(w, ' ')] END AS s FROM words), "
            "j AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "len(list_intersect(a.s, b.s))::DOUBLE / "
            "len(list_distinct(list_concat(a.s, b.s))) AS jac "
            "FROM sh a JOIN sh b ON a.doc_id < b.doc_id) "
            "SELECT id_a, id_b, round(jac, 6) AS jaccard FROM j "
            "WHERE jac >= 0.5"
        ),
        "edit_distance_pairs": (
            "WITH ids AS (SELECT doc_id FROM documents ORDER BY doc_id "
            "LIMIT 128), "
            "base AS (SELECT doc_id AS id, "
            "'token' || CAST((doc_id * 13) % 97 AS VARCHAR) AS s FROM ids), "
            "mut AS (SELECT doc_id + 1000000 AS id, "
            "'token' || CAST((doc_id * 13) % 97 AS VARCHAR) || 'x' AS s "
            "FROM ids WHERE doc_id % 3 = 0 "
            "UNION ALL SELECT doc_id + 1000000, "
            "'z' || substr('token' || CAST((doc_id * 13) % 97 AS VARCHAR), 2) "
            "FROM ids WHERE doc_id % 3 = 1), "
            "allr AS (SELECT * FROM base UNION ALL SELECT * FROM mut) "
            "SELECT a.id AS id_a, b.id AS id_b, "
            "CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist "
            "FROM allr a JOIN allr b ON a.id < b.id "
            "WHERE levenshtein(a.s, b.s) <= 1 ORDER BY id_a, id_b"
        ),
        "part_kcore": 'WITH e0 AS MATERIALIZED (SELECT u, v FROM (SELECT a.l_partkey AS u, b.l_partkey AS v, count(DISTINCT a.l_orderkey) AS m FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey GROUP BY 1, 2) WHERE m >= 2), d1 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0) GROUP BY node), e1 AS MATERIALIZED (SELECT e.u, e.v FROM e0 e JOIN d1 du ON du.node = e.u JOIN d1 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d2 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e1 UNION ALL SELECT v FROM e1) GROUP BY node), e2 AS MATERIALIZED (SELECT e.u, e.v FROM e1 e JOIN d2 du ON du.node = e.u JOIN d2 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d3 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e2 UNION ALL SELECT v FROM e2) GROUP BY node), e3 AS MATERIALIZED (SELECT e.u, e.v FROM e2 e JOIN d3 du ON du.node = e.u JOIN d3 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d4 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e3 UNION ALL SELECT v FROM e3) GROUP BY node), e4 AS MATERIALIZED (SELECT e.u, e.v FROM e3 e JOIN d4 du ON du.node = e.u JOIN d4 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d5 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e4 UNION ALL SELECT v FROM e4) GROUP BY node), e5 AS MATERIALIZED (SELECT e.u, e.v FROM e4 e JOIN d5 du ON du.node = e.u JOIN d5 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d6 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e5 UNION ALL SELECT v FROM e5) GROUP BY node), e6 AS MATERIALIZED (SELECT e.u, e.v FROM e5 e JOIN d6 du ON du.node = e.u JOIN d6 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d7 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e6 UNION ALL SELECT v FROM e6) GROUP BY node), e7 AS MATERIALIZED (SELECT e.u, e.v FROM e6 e JOIN d7 du ON du.node = e.u JOIN d7 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d8 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e7 UNION ALL SELECT v FROM e7) GROUP BY node), e8 AS MATERIALIZED (SELECT e.u, e.v FROM e7 e JOIN d8 du ON du.node = e.u JOIN d8 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d9 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e8 UNION ALL SELECT v FROM e8) GROUP BY node), e9 AS MATERIALIZED (SELECT e.u, e.v FROM e8 e JOIN d9 du ON du.node = e.u JOIN d9 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d10 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e9 UNION ALL SELECT v FROM e9) GROUP BY node), e10 AS MATERIALIZED (SELECT e.u, e.v FROM e9 e JOIN d10 du ON du.node = e.u JOIN d10 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d11 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e10 UNION ALL SELECT v FROM e10) GROUP BY node), e11 AS MATERIALIZED (SELECT e.u, e.v FROM e10 e JOIN d11 du ON du.node = e.u JOIN d11 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d12 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e11 UNION ALL SELECT v FROM e11) GROUP BY node), e12 AS MATERIALIZED (SELECT e.u, e.v FROM e11 e JOIN d12 du ON du.node = e.u JOIN d12 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d13 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e12 UNION ALL SELECT v FROM e12) GROUP BY node), e13 AS MATERIALIZED (SELECT e.u, e.v FROM e12 e JOIN d13 du ON du.node = e.u JOIN d13 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d14 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e13 UNION ALL SELECT v FROM e13) GROUP BY node), e14 AS MATERIALIZED (SELECT e.u, e.v FROM e13 e JOIN d14 du ON du.node = e.u JOIN d14 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d15 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e14 UNION ALL SELECT v FROM e14) GROUP BY node), e15 AS MATERIALIZED (SELECT e.u, e.v FROM e14 e JOIN d15 du ON du.node = e.u JOIN d15 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d16 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e15 UNION ALL SELECT v FROM e15) GROUP BY node), e16 AS MATERIALIZED (SELECT e.u, e.v FROM e15 e JOIN d16 du ON du.node = e.u JOIN d16 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d17 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e16 UNION ALL SELECT v FROM e16) GROUP BY node), e17 AS MATERIALIZED (SELECT e.u, e.v FROM e16 e JOIN d17 du ON du.node = e.u JOIN d17 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d18 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e17 UNION ALL SELECT v FROM e17) GROUP BY node), e18 AS MATERIALIZED (SELECT e.u, e.v FROM e17 e JOIN d18 du ON du.node = e.u JOIN d18 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d19 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e18 UNION ALL SELECT v FROM e18) GROUP BY node), e19 AS MATERIALIZED (SELECT e.u, e.v FROM e18 e JOIN d19 du ON du.node = e.u JOIN d19 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d20 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e19 UNION ALL SELECT v FROM e19) GROUP BY node), e20 AS MATERIALIZED (SELECT e.u, e.v FROM e19 e JOIN d20 du ON du.node = e.u JOIN d20 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d21 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e20 UNION ALL SELECT v FROM e20) GROUP BY node), e21 AS MATERIALIZED (SELECT e.u, e.v FROM e20 e JOIN d21 du ON du.node = e.u JOIN d21 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d22 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e21 UNION ALL SELECT v FROM e21) GROUP BY node), e22 AS MATERIALIZED (SELECT e.u, e.v FROM e21 e JOIN d22 du ON du.node = e.u JOIN d22 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d23 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e22 UNION ALL SELECT v FROM e22) GROUP BY node), e23 AS MATERIALIZED (SELECT e.u, e.v FROM e22 e JOIN d23 du ON du.node = e.u JOIN d23 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3), d24 AS MATERIALIZED (SELECT node, count(*) AS d FROM (SELECT u AS node FROM e23 UNION ALL SELECT v FROM e23) GROUP BY node), e24 AS MATERIALIZED (SELECT e.u, e.v FROM e23 e JOIN d24 du ON du.node = e.u JOIN d24 dv ON dv.node = e.v WHERE du.d >= 3 AND dv.d >= 3) SELECT DISTINCT node FROM (SELECT u AS node FROM e24 UNION ALL SELECT v FROM e24)',
        "part_communities": _lpa_sql(n_rounds=4),
        "kg_random_walks": _walks_sql(WALK_LEN),
        "part_neighbor_jaccard": (
            "WITH e AS MATERIALIZED (SELECT u, v FROM ("
            "SELECT a.l_partkey AS u, b.l_partkey AS v, "
            "count(DISTINCT a.l_orderkey) AS m "
            "FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey "
            "GROUP BY 1, 2) WHERE m >= 2), "
            "bd AS MATERIALIZED (SELECT u AS a, v AS b FROM e "
            "UNION ALL SELECT v, u FROM e), "
            "deg AS MATERIALIZED (SELECT a AS node, "
            "CAST(count(*) AS BIGINT) AS d FROM bd GROUP BY a), "
            "com AS MATERIALIZED (SELECT x.b AS u, y.b AS v, "
            "CAST(count(*) AS BIGINT) AS common FROM bd x JOIN bd y "
            "ON x.a = y.a AND x.b < y.b GROUP BY 1, 2) "
            "SELECT c.u, c.v, c.common, "
            "CAST(c.common AS DOUBLE) / (du.d + dv.d - c.common) AS jaccard "
            "FROM com c JOIN deg du ON du.node = c.u "
            "JOIN deg dv ON dv.node = c.v "
            "WHERE CAST(c.common AS DOUBLE) / (du.d + dv.d - c.common) "
            ">= 0.25"
        ),
        "kg_schema_profile": (
            f"{L}, typed AS (SELECT origin AS key, target AS t "
            f"FROM links WHERE rel = '{TYPE}') "
            "SELECT l.rel AS rel, "
            "COALESCE(ot.t, 'urn:versa:Untyped') AS origin_type, "
            "CASE WHEN NOT l.target_is_iri THEN 'urn:versa:Literal' "
            "ELSE COALESCE(tt.t, 'urn:versa:Untyped') END AS target_type, "
            "COUNT(*)::BIGINT AS n FROM links l "
            "LEFT JOIN typed ot ON ot.key = l.origin "
            "LEFT JOIN typed tt ON l.target_is_iri AND tt.key = l.target "
            f"WHERE l.rel <> '{TYPE}' GROUP BY 1, 2, 3"
        ),
        "kg_hits": (
            "WITH e AS MATERIALIZED (SELECT DISTINCT o.o_custkey AS u, "
            "10000000 + l.l_partkey AS v FROM lineitem l "
            "JOIN orders o ON o.o_orderkey = l.l_orderkey), "
            "nodes AS (SELECT u AS node FROM e UNION SELECT v FROM e), "
            "a1 AS (SELECT v AS node, COUNT(*)::BIGINT AS s FROM e GROUP BY v), "
            "h1 AS (SELECT e.u AS node, SUM(a1.s)::BIGINT AS s FROM e "
            "JOIN a1 ON a1.node = e.v GROUP BY e.u), "
            "a2 AS (SELECT e.v AS node, SUM(h1.s)::BIGINT AS s FROM e "
            "JOIN h1 ON h1.node = e.u GROUP BY e.v), "
            "h2 AS (SELECT e.u AS node, SUM(a2.s)::BIGINT AS s FROM e "
            "JOIN a2 ON a2.node = e.v GROUP BY e.u) "
            "SELECT n.node AS node, COALESCE(h2.s, 0)::BIGINT AS hub, "
            "COALESCE(a2.s, 0)::BIGINT AS auth FROM nodes n "
            "LEFT JOIN h2 ON h2.node = n.node "
            "LEFT JOIN a2 ON a2.node = n.node"
        ),
        "part_assortativity": (
            "WITH e AS MATERIALIZED (SELECT DISTINCT a.l_partkey AS u, "
            "b.l_partkey AS v FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey), "
            "bd AS MATERIALIZED (SELECT u AS a, v AS b FROM e "
            "UNION ALL SELECT v, u FROM e), "
            "deg AS MATERIALIZED (SELECT a AS node, "
            "CAST(count(*) AS BIGINT) AS d FROM bd GROUP BY a) "
            "SELECT corr(du.d, dv.d) AS assortativity "
            "FROM bd JOIN deg du ON du.node = bd.a "
            "JOIN deg dv ON dv.node = bd.b"
        ),
        "part_clustering": (
            "WITH e AS (SELECT DISTINCT a.l_partkey AS u, "
            "b.l_partkey AS v FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey), "
            "nodes AS (SELECT u AS node FROM e "
            "UNION ALL SELECT v FROM e), "
            "deg AS (SELECT node, CAST(count(*) AS BIGINT) AS degree "
            "FROM nodes GROUP BY node), "
            "tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c "
            "FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v "
            "JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v), "
            "tcnt AS (SELECT node, CAST(count(*) AS BIGINT) AS triangles "
            "FROM (SELECT a AS node FROM tri UNION ALL SELECT b FROM tri "
            "UNION ALL SELECT c FROM tri) GROUP BY node) "
            "SELECT d.node, d.degree, "
            "coalesce(t.triangles, 0) AS triangles, "
            "CASE WHEN d.degree >= 2 THEN 2.0 * coalesce(t.triangles, 0) "
            "/ (d.degree * (d.degree - 1)) ELSE 0.0 END AS cc "
            "FROM deg d LEFT JOIN tcnt t USING (node)"
        ),
        "part_link_prediction": (
            "WITH e0 AS (SELECT DISTINCT a.l_partkey AS u, "
            "b.l_partkey AS v, a.l_orderkey AS o "
            "FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey), "
            "e AS MATERIALIZED (SELECT u, v FROM e0 "
            "GROUP BY u, v HAVING count(*) >= 2), "
            "adj AS MATERIALIZED (SELECT u AS c, v AS n FROM e "
            "UNION ALL SELECT v, u FROM e), "
            "deg AS MATERIALIZED (SELECT c, CAST(count(*) AS BIGINT) AS d "
            "FROM adj GROUP BY c), "
            "wd AS (SELECT a1.n AS u, a2.n AS v, a1.c AS c "
            "FROM adj a1 JOIN adj a2 ON a1.c = a2.c AND a1.n < a2.n), "
            "s AS (SELECT wd.u, wd.v, CAST(count(*) AS BIGINT) AS cn, "
            "CAST(sum(1000000000 // deg.d) AS BIGINT) AS ra_e9 "
            "FROM wd JOIN deg ON deg.c = wd.c GROUP BY wd.u, wd.v) "
            "SELECT s.u, s.v, s.cn, s.ra_e9 FROM s "
            "WHERE s.cn >= 1 AND NOT EXISTS "
            "(SELECT 1 FROM e WHERE e.u = s.u AND e.v = s.v)"
        ),
        "kg_shortest_paths": (
            "WITH RECURSIVE edges AS ("
            "SELECT 'urn:versa:order:' || CAST(o_orderkey AS VARCHAR) AS a, "
            "'urn:versa:customer:' || CAST(o_custkey AS VARCHAR) AS b, "
            "o_orderkey % 97 + 1 AS w FROM orders "
            "UNION ALL "
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), "
            "'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR), "
            "c_custkey % 89 + 1 FROM customer "
            "UNION ALL "
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR), "
            "n_nationkey + 1 FROM nation), "
            "walk(node, dist) AS ("
            "SELECT 'urn:versa:order:' || CAST(o_orderkey AS VARCHAR), "
            "CAST(0 AS BIGINT) FROM orders WHERE o_orderkey % 100 = 1 "
            "UNION "
            "SELECT e.b, w.dist + e.w FROM walk w "
            "JOIN edges e ON e.a = w.node) "
            "SELECT node, CAST(min(dist) AS BIGINT) AS dist "
            "FROM walk GROUP BY node"
        ),
        "er_typo_match": (
            "WITH l AS (SELECT c_custkey AS id_l, c_name AS s "
            "FROM customer WHERE c_custkey % 10 = 1), "
            "r AS (SELECT c_custkey AS id_r, "
            "substr(c_name, 1, c_custkey % length(c_name)) || 'x' || "
            "substr(c_name, c_custkey % length(c_name) + 2) AS s "
            "FROM customer) "
            "SELECT l.id_l, r.id_r, "
            "CAST(levenshtein(l.s, r.s) AS BIGINT) AS dist "
            "FROM l JOIN r ON levenshtein(l.s, r.s) <= 1"
        ),
        "kg_scc": (
            "WITH RECURSIVE edges AS ("
            "SELECT c_custkey AS a, (c_custkey // 10) * 10 + "
            "((c_custkey - (c_custkey // 10) * 10 + 1) % 10) AS b "
            "FROM customer "
            "UNION ALL SELECT c_custkey, c_custkey + 10 FROM customer "
            "WHERE c_custkey % 20 = 5), "
            "reach(a, b) AS ("
            "SELECT a, b FROM edges "
            "UNION "
            "SELECT r.a, e.b FROM reach r JOIN edges e ON e.a = r.b), "
            "nodes AS (SELECT a AS n FROM edges "
            "UNION SELECT b FROM edges), "
            "mutual AS (SELECT r1.a AS v, r1.b AS u FROM reach r1 "
            "JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a) "
            "SELECT n.n AS node, CAST(least(n.n, coalesce(min(m.u), n.n)) "
            "AS BIGINT) AS comp FROM nodes n "
            "LEFT JOIN mutual m ON m.v = n.n GROUP BY n.n"
        ),
        "part_closeness": (
            "WITH RECURSIVE e0 AS (SELECT DISTINCT a.l_partkey AS u, "
            "b.l_partkey AS v, a.l_orderkey AS o "
            "FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey), "
            "e AS MATERIALIZED (SELECT u, v FROM e0 "
            "GROUP BY u, v HAVING count(*) >= 2), "
            "bd AS MATERIALIZED (SELECT u AS a, v AS b FROM e "
            "UNION ALL SELECT v, u FROM e), "
            "walk(seed, node, depth) AS ("
            "SELECT p_partkey, p_partkey, 0 FROM part "
            "WHERE p_partkey % 251 = 1 "
            "UNION "
            "SELECT w.seed, bd.b, w.depth + 1 FROM walk w "
            "JOIN bd ON bd.a = w.node WHERE w.depth < 40), "
            "md AS (SELECT seed, node, min(depth) AS d FROM walk "
            "GROUP BY seed, node) "
            "SELECT node, CAST(count(*) AS BIGINT) AS n_reached, "
            "CAST(sum(d) AS BIGINT) AS sum_depth FROM md GROUP BY node"
        ),
        "part_harmonic": (
            "WITH RECURSIVE e0 AS (SELECT DISTINCT a.l_partkey AS u, "
            "b.l_partkey AS v, a.l_orderkey AS o "
            "FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey), "
            "e AS MATERIALIZED (SELECT u, v FROM e0 "
            "GROUP BY u, v HAVING count(*) >= 2), "
            "bd AS MATERIALIZED (SELECT u AS a, v AS b FROM e "
            "UNION ALL SELECT v, u FROM e), "
            "walk(seed, node, depth) AS ("
            "SELECT p_partkey, p_partkey, 0 FROM part "
            "WHERE p_partkey % 251 = 1 "
            "UNION "
            "SELECT w.seed, bd.b, w.depth + 1 FROM walk w "
            "JOIN bd ON bd.a = w.node WHERE w.depth < 40), "
            "md AS (SELECT seed, node, min(depth) AS d FROM walk "
            "GROUP BY seed, node) "
            "SELECT node, CAST(count(*) AS BIGINT) AS n_reached, "
            "CAST(sum(CASE WHEN d > 0 THEN 1000000000 // d ELSE 0 END) "
            "AS BIGINT) AS harmonic_e9 FROM md GROUP BY node"
        ),
        "doc_jsonl_roundtrip": (
            "SELECT doc_id, text, lang, CAST(n_chars AS BIGINT) AS "
            "n_chars FROM documents ORDER BY doc_id"
        ),
        "part_ktruss": _ktruss_sql(rounds=8),
        "part_mis": _mis_sql(rounds=10),
        "doc_len_pct_by_source": (
            "SELECT doc_id, source, CAST(n_chars AS BIGINT) AS n_chars, "
            "percent_rank() OVER (PARTITION BY source ORDER BY n_chars) "
            "AS pct_rank FROM documents ORDER BY doc_id"
        ),
        "doc_weighted_sample": (
            "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars FROM ("
            "SELECT doc_id, n_chars, row_number() OVER (ORDER BY "
            "CAST(n_chars AS DOUBLE) / "
            "((CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) AS DOUBLE) "
            "+ 1.0) / 18446744073709551616.0) DESC, doc_id) AS rn "
            "FROM documents) WHERE rn <= 100 ORDER BY doc_id"
        ),
        "doc_profile": " UNION ALL ".join(
            "SELECT '%s' AS \"column\", CAST(COUNT(*) AS BIGINT) AS n_rows, "
            "CAST(COUNT(*) - COUNT(%s) AS BIGINT) AS n_null, "
            "CAST(MIN(%s) AS VARCHAR) AS min_v, "
            "CAST(MAX(%s) AS VARCHAR) AS max_v FROM documents"
            % (c, c, c, c)
            for c in ["doc_id", "lang", "n_chars", "source"]
        ) + " ORDER BY \"column\"",
        "kg_latest_statements": (
            "WITH s AS (SELECT "
            "'urn:versa:customer:' || CAST(c_custkey AS VARCHAR) AS origin, "
            f"'{SEGMENT}' AS rel, "
            "'seg:' || CAST((c_custkey + j) % 5 AS VARCHAR) AS target, "
            "true AS target_is_iri, '{}' AS attrs, "
            "CAST((c_custkey * 7 + j * 13) % 1000 AS BIGINT) AS ts "
            "FROM customer, unnest(range(0, 3)) AS t(j) "
            "WHERE j <= c_custkey % 3) "
            "SELECT origin, rel, target, target_is_iri, attrs, ts FROM s "
            "QUALIFY row_number() OVER (PARTITION BY origin, rel "
            "ORDER BY ts DESC, target ASC, target_is_iri ASC) = 1"
        ),
        "kg_domain_range": (
            "SELECT node, cls FROM ("
            "SELECT 'urn:versa:region:' || CAST(r_regionkey AS VARCHAR) "
            "AS node, 'urn:versa:Region' AS cls FROM region "
            "UNION SELECT 'urn:versa:nation:' || CAST(n_nationkey AS "
            "VARCHAR), 'urn:versa:Nation' FROM nation "
            "UNION SELECT 'urn:versa:customer:' || CAST(c_custkey AS "
            "VARCHAR), 'urn:versa:Customer' FROM customer "
            "UNION SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS "
            "VARCHAR), 'urn:versa:Supplier' FROM supplier "
            "UNION SELECT 'urn:versa:customer:' || CAST(c_custkey AS "
            "VARCHAR), 'urn:versa:GeoLocated' FROM customer "
            "UNION SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS "
            "VARCHAR), 'urn:versa:GeoLocated' FROM supplier "
            "UNION SELECT 'urn:versa:nation:' || CAST(c_nationkey AS "
            "VARCHAR), 'urn:versa:Nation' FROM customer "
            "UNION SELECT 'urn:versa:nation:' || CAST(s_nationkey AS "
            "VARCHAR), 'urn:versa:Nation' FROM supplier "
            "UNION SELECT 'urn:versa:nation:' || CAST(n_nationkey AS "
            "VARCHAR), 'urn:versa:GeoLocated' FROM nation "
            "UNION SELECT 'urn:versa:region:' || CAST(n_regionkey AS "
            "VARCHAR), 'urn:versa:Region' FROM nation)"
        ),
        "doc_dsir_weights": (
            "WITH tok AS (SELECT doc_id, unnest(regexp_split_to_array("
            "coalesce(text,''), '[ \\t\\r\\n\\f\\v]+')) AS token "
            "FROM documents), "
            "tk AS (SELECT doc_id, token FROM tok WHERE token <> ''), "
            "fl AS (SELECT t.doc_id, t.token, d.lang = 'en' AS tgt "
            "FROM tk t JOIN documents d USING (doc_id)), "
            "cnt AS (SELECT token, "
            "sum(CASE WHEN tgt THEN 1 ELSE 0 END) AS ct, "
            "sum(CASE WHEN tgt THEN 0 ELSE 1 END) AS cs "
            "FROM fl GROUP BY token), "
            "scal AS (SELECT sum(ct) AS tt, sum(cs) AS ts, "
            "count(*) AS v FROM cnt), "
            "dtc AS (SELECT doc_id, token, count(*) AS m FROM tk "
            "GROUP BY doc_id, token), "
            "terms AS (SELECT d.doc_id, d.m, "
            "ln((c.ct + 1.0) / (s.tt + s.v)) - "
            "ln((c.cs + 1.0) / (s.ts + s.v)) AS lr "
            "FROM dtc d JOIN cnt c USING (token) CROSS JOIN scal s), "
            "agg AS (SELECT doc_id, sum(m) AS n, sum(m * lr) AS slr "
            "FROM terms GROUP BY doc_id) "
            "SELECT doc.doc_id, "
            "CAST(coalesce(a.n, 0) AS BIGINT) AS n_tokens, "
            "round(CASE WHEN coalesce(a.n, 0) > 0 "
            "THEN a.slr / a.n ELSE 0.0 END, 6) AS log_ratio "
            "FROM documents doc LEFT JOIN agg a USING (doc_id)"
        ),
        "kg_functional_conflicts": (
            "WITH stmts AS ("
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR) "
            "AS origin, 'http://bibfra.me/vocab/lite/inNation' AS rel, "
            "'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR) AS target "
            "FROM customer "
            "UNION ALL "
            "SELECT 'urn:versa:supplier:' || CAST(s_suppkey AS VARCHAR), "
            "'http://bibfra.me/vocab/lite/inNation', "
            "'urn:versa:nation:' || CAST(s_nationkey AS VARCHAR) "
            "FROM supplier "
            "UNION ALL "
            "SELECT 'urn:versa:nation:' || CAST(n_nationkey AS VARCHAR), "
            "'http://bibfra.me/vocab/lite/inRegion', "
            "'urn:versa:region:' || CAST(n_regionkey AS VARCHAR) "
            "FROM nation "
            "UNION ALL "
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), "
            "'http://bibfra.me/vocab/lite/inNation', "
            "'urn:versa:nation:' || CAST((c_nationkey + 7) % 25 AS VARCHAR) "
            "FROM customer WHERE c_custkey % 50 = 3 "
            "UNION ALL "
            "SELECT 'urn:versa:customer:' || CAST(c_custkey AS VARCHAR), "
            "'http://bibfra.me/vocab/lite/inNation', "
            "'urn:versa:nation:' || CAST(c_nationkey AS VARCHAR) "
            "FROM customer WHERE c_custkey % 50 = 17), "
            "d AS (SELECT DISTINCT origin, rel, target FROM stmts) "
            "SELECT origin, rel, CAST(count(*) AS BIGINT) AS n_values "
            "FROM d GROUP BY origin, rel HAVING count(*) > 1"
        ),
        "part_triangles": (
            "WITH e AS (SELECT DISTINCT a.l_partkey AS u, "
            "b.l_partkey AS v FROM lineitem a JOIN lineitem b "
            "ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey) "
            "SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles "
            "FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v "
            "JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v"
        ),
        # near-dup clustering as SQL: exact-Jaccard edges (the LSH
        # signature-estimate pair set equals the exact >=0.5 set on
        # this corpus — verified at both sf tiers) + connected
        # components via a recursive reachability CTE, cluster = min
        # reachable id. Mirrors ops.dedup.minhash_dedup end to end.
        "doc_near_dup_keep_best": (
            "WITH RECURSIVE "
            "words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(coalesce(text,'')), '\\s+') AS w "
            "FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(w) >= 3 THEN "
            "list_distinct(list_transform(range(1, len(w)-1), "
            "i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) "
            "ELSE [array_to_string(w, ' ')] END AS s FROM words), "
            "p AS (SELECT a.doc_id AS src, b.doc_id AS dst "
            "FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
            "WHERE len(list_intersect(a.s, b.s))::DOUBLE / "
            "len(list_distinct(list_concat(a.s, b.s))) >= 0.5), "
            "edges AS (SELECT src, dst FROM p "
            "UNION ALL SELECT dst, src FROM p), "
            "reach(node, r) AS ("
            "SELECT doc_id, doc_id FROM documents "
            "UNION "
            "SELECT reach.node, e.dst FROM reach JOIN edges e ON e.src = reach.r), "
            "cl AS (SELECT node AS doc_id, CAST(min(r) AS BIGINT) AS cluster "
            "FROM reach GROUP BY node) "
            "SELECT d.doc_id, cl.cluster, d.n_chars "
            "FROM cl JOIN documents d USING (doc_id) "
            "QUALIFY row_number() OVER (PARTITION BY cl.cluster "
            "ORDER BY d.n_chars DESC, d.doc_id) = 1"
        ),
        "doc_minhash_dedup": (
            "WITH RECURSIVE "
            "words AS (SELECT doc_id, "
            "regexp_split_to_array(trim(coalesce(text,'')), '\\s+') AS w "
            "FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(w) >= 3 THEN "
            "list_distinct(list_transform(range(1, len(w)-1), "
            "i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) "
            "ELSE [array_to_string(w, ' ')] END AS s FROM words), "
            "p AS (SELECT a.doc_id AS src, b.doc_id AS dst "
            "FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
            "WHERE len(list_intersect(a.s, b.s))::DOUBLE / "
            "len(list_distinct(list_concat(a.s, b.s))) >= 0.5), "
            "edges AS (SELECT src, dst FROM p "
            "UNION ALL SELECT dst, src FROM p), "
            "reach(node, r) AS ("
            "SELECT doc_id, doc_id FROM documents "
            "UNION "
            "SELECT reach.node, e.dst FROM reach JOIN edges e ON e.src = reach.r) "
            "SELECT node AS doc_id, CAST(min(r) AS BIGINT) AS cluster "
            "FROM reach GROUP BY node"
        ),
        # quality heuristics mirrored exactly: ratios are single IEEE
        # divisions of integer counts on ASCII text, so values match
        # bit-for-bit (textstats.quality_scores)
        "doc_quality": (
            "WITH t AS (SELECT doc_id, coalesce(text,'') AS tx FROM documents), "
            "tok AS (SELECT doc_id, tx, CASE WHEN trim(tx) = '' THEN [] "
            "ELSE regexp_split_to_array(trim(tx), '\\s+') END AS ws FROM t) "
            "SELECT doc_id, "
            "len(list_filter(ws, w -> list_contains(" + _STOPWORD_SQL + ", lower(w))))::DOUBLE "
            "/ greatest(len(ws), 1) AS stopword_ratio, "
            "CASE WHEN len(ws) = 0 THEN 0.0 ELSE "
            "list_sum(list_transform(ws, w -> length(w)))::DOUBLE / len(ws) END "
            "AS mean_token_len, "
            "(length(tx) - length(regexp_replace(tx, '[A-Z]', '', 'g')))::DOUBLE "
            "/ greatest(length(tx), 1) AS upper_ratio, "
            "(length(tx) - length(regexp_replace(tx, '[^\\w\\s]', '', 'g')))::DOUBLE "
            "/ greatest(length(tx), 1) AS punct_ratio "
            "FROM tok"
        ),
        # URL canonicalization replayed rule-for-rule: same regexes
        # (regexp_extract returns '' on no match, matching the
        # engine's fillna('')), same tracking-param filter, same
        # lexicographic param sort, same two-level-suffix
        # registered-domain rule
        "doc_url_normalize": (
            "WITH " + _URL_DOCS_SQL + ", "
            "p0 AS (SELECT doc_id, "
            "lower(coalesce(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.\\-]*)://', 1), '')) "
            "AS scheme, regexp_replace(url, '#.*$', '') AS nofrag FROM u), "
            "p1 AS (SELECT *, regexp_replace(nofrag, "
            "'^[A-Za-z][A-Za-z0-9+.\\-]*://', '') AS rest FROM p0), "
            "p2 AS (SELECT *, lower(coalesce(regexp_extract(rest, '^([^/?]*)', 1), '')) "
            "AS hostport, regexp_replace(rest, '^[^/?]*', '') AS tail "
            "FROM p1), "
            "p3 AS (SELECT *, coalesce(regexp_extract(hostport, '^([^:]*)', 1), '') AS host, "
            "CASE WHEN coalesce(regexp_extract(hostport, ':([0-9]+)$', 1), '') = "
            "(CASE scheme WHEN 'http' THEN '80' WHEN 'https' THEN '443' "
            "ELSE '' END) THEN '' ELSE "
            "coalesce(regexp_extract(hostport, ':([0-9]+)$', 1), '') END AS port, "
            "CASE WHEN coalesce(regexp_extract(tail, '^([^?]*)', 1), '') = '' THEN '/' "
            "ELSE coalesce(regexp_extract(tail, '^([^?]*)', 1), '') END AS path, "
            "coalesce(array_to_string(list_sort(list_filter(list_filter("
            "string_split(coalesce(regexp_extract(tail, '\\?(.*)$', 1), ''), '&'), "
            "x -> x <> ''), x -> NOT (starts_with(x, 'utm_') OR "
            "coalesce(regexp_extract(x, '^([^=]*)', 1), '') IN ('fbclid', 'gclid')))), "
            "'&'), '') AS q FROM p2), "
            "p4 AS (SELECT *, "
            "coalesce(regexp_extract(host, '([^.]+\\.[^.]+)$', 1), '') AS last2, "
            "coalesce(regexp_extract(host, '([^.]+\\.[^.]+\\.[^.]+)$', 1), '') AS last3 "
            "FROM p3) "
            "SELECT doc_id, scheme, host, port, path, q AS \"query\", "
            "CASE WHEN last2 IN ('co.uk', 'org.uk', 'ac.uk', 'gov.uk', "
            "'com.au', 'net.au', 'org.au', 'co.jp', 'ne.jp', 'or.jp', "
            "'com.br', 'com.cn', 'co.in', 'co.nz', 'co.za') "
            "AND last3 <> '' THEN last3 "
            "WHEN last2 <> '' THEN last2 ELSE host END AS reg_domain, "
            "CASE WHEN scheme <> '' AND host <> '' THEN "
            "scheme || '://' || host || "
            "(CASE WHEN port <> '' THEN ':' || port ELSE '' END) || path || "
            "(CASE WHEN q <> '' THEN '?' || q ELSE '' END) "
            "ELSE '' END AS canonical_url FROM p4"
        ),
        "host_doc_counts": (
            "WITH " + _URL_DOCS_SQL + ", "
            "h AS (SELECT doc_id, lower(coalesce(regexp_extract(regexp_extract("
            "regexp_replace(regexp_replace(url, '#.*$', ''), "
            "'^[A-Za-z][A-Za-z0-9+.\\-]*://', ''), '^([^/?]*)', 1), "
            "'^([^:]*)', 1), '')) AS host FROM u), "
            "d AS (SELECT doc_id, "
            "coalesce(regexp_extract(host, '([^.]+\\.[^.]+)$', 1), '') AS last2, "
            "coalesce(regexp_extract(host, '([^.]+\\.[^.]+\\.[^.]+)$', 1), '') AS last3, "
            "host FROM h) "
            "SELECT CASE WHEN last2 IN ('co.uk', 'org.uk', 'ac.uk', "
            "'gov.uk', 'com.au', 'net.au', 'org.au', 'co.jp', 'ne.jp', "
            "'or.jp', 'com.br', 'com.cn', 'co.in', 'co.nz', 'co.za') "
            "AND last3 <> '' THEN last3 "
            "WHEN last2 <> '' THEN last2 ELSE host END AS reg_domain, "
            "CAST(count(*) AS BIGINT) AS n_docs FROM d GROUP BY 1"
        ),
        # the unigram LM replayed exactly: same tokenization, same
        # add-one smoothing with OOV below min_count=2, same per-doc
        # -mean-log-prob (terms summed as m * ln p, matching the
        # engine's per-(doc,token) products)
        "doc_lm_perplexity": (
            "WITH tok AS (SELECT doc_id, unnest(regexp_split_to_array("
            "coalesce(text,''), '[ \\t\\r\\n\\f\\v]+')) AS token "
            "FROM documents), "
            "tk AS (SELECT doc_id, token FROM tok WHERE token <> ''), "
            "cnt AS (SELECT token, count(*) AS c FROM tk GROUP BY token), "
            "scal AS (SELECT sum(c) AS t, "
            "sum(CASE WHEN c >= 2 THEN 1 ELSE 0 END) AS v FROM cnt), "
            "dtc AS (SELECT doc_id, token, count(*) AS m FROM tk "
            "GROUP BY doc_id, token), "
            "terms AS (SELECT d.doc_id, d.m, CASE WHEN c.c >= 2 THEN "
            "ln((c.c + 1.0) / (s.t + s.v + 1.0)) ELSE "
            "ln(1.0 / (s.t + s.v + 1.0)) END AS lp "
            "FROM dtc d JOIN cnt c USING (token) CROSS JOIN scal s), "
            "agg AS (SELECT doc_id, sum(m) AS n_tokens, sum(m * lp) AS slp "
            "FROM terms GROUP BY doc_id) "
            "SELECT doc.doc_id, "
            "CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens, "
            "round(CASE WHEN coalesce(a.n_tokens, 0) > 0 "
            "THEN -a.slp / a.n_tokens ELSE 0.0 END, 6) AS log_ppl "
            "FROM documents doc LEFT JOIN agg a USING (doc_id)"
        ),
        "doc_lm2_perplexity": (
            "WITH tok AS (SELECT doc_id, unnest(regexp_split_to_array("
            "coalesce(text,''), '[ \\t\\r\\n\\f\\v]+')) AS token "
            "FROM documents), "
            "tk AS (SELECT doc_id, token FROM tok WHERE token <> ''), "
            "vocab AS (SELECT CAST(count(DISTINCT token) AS DOUBLE) AS v "
            "FROM tk), "
            "docs2 AS (SELECT doc_id, regexp_split_to_array(trim("
            "coalesce(text,'')), '[ \\t\\r\\n\\f\\v]+') AS toks "
            "FROM documents "
            "WHERE length(trim(coalesce(text,''))) > 0), "
            "big AS (SELECT doc_id, toks[i+1] AS w1, toks[i+2] AS w2 "
            "FROM docs2, unnest(range(0, greatest(len(toks)-1, 0))) "
            "AS t(i)), "
            "c2 AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n2 "
            "FROM big GROUP BY 1, 2), "
            "c1 AS (SELECT w1, CAST(count(*) AS BIGINT) AS n1 "
            "FROM big GROUP BY 1), "
            "terms AS (SELECT b.doc_id, "
            "ln((c2.n2 + 1.0) / (c1.n1 + vocab.v)) AS lp "
            "FROM big b JOIN c2 USING (w1, w2) JOIN c1 USING (w1) "
            "CROSS JOIN vocab), "
            "agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams, "
            "sum(lp) AS slp FROM terms GROUP BY doc_id) "
            "SELECT doc.doc_id, "
            "CAST(coalesce(a.n_bigrams, 0) AS BIGINT) AS n_bigrams, "
            "round(CASE WHEN coalesce(a.n_bigrams, 0) > 0 "
            "THEN -a.slp / a.n_bigrams ELSE 0.0 END, 6) AS log_ppl2 "
            "FROM documents doc LEFT JOIN agg a USING (doc_id)"
        ),
        # PII scrub replayed in the exact engine order (email -> ip ->
        # phone, each counted on the previously-scrubbed text) with the
        # same RE2-safe pattern strings the engine compiles
        "doc_pii_scrub": (
            "WITH " + _PII_DOCS_SQL + ", "
            "e AS (SELECT doc_id, len(regexp_extract_all(tx, "
            f"'{textstats.PII_EMAIL_PAT}')) AS n_emails, "
            f"regexp_replace(tx, '{textstats.PII_EMAIL_PAT}', '<EMAIL>', 'g') "
            "AS t1 FROM piidocs), "
            "i AS (SELECT doc_id, n_emails, len(regexp_extract_all(t1, "
            f"'{textstats.PII_IP_PAT}')) AS n_ips, "
            f"regexp_replace(t1, '{textstats.PII_IP_PAT}', '<IP>', 'g') "
            "AS t2 FROM e) "
            "SELECT doc_id, CAST(n_emails AS BIGINT) AS n_emails, "
            "CAST(n_ips AS BIGINT) AS n_ips, "
            f"CAST(len(regexp_extract_all(t2, '{textstats.PII_PHONE_PAT}')) "
            "AS BIGINT) AS n_phones, "
            f"regexp_replace(t2, '{textstats.PII_PHONE_PAT}', '<PHONE>', 'g') "
            "AS scrubbed_text FROM i"
        ),
        "doc_repetition": (
            "WITH " + _LINEIFIED_SQL + ", "
            "ls AS (SELECT doc_id, unnest(string_split(tx, chr(10))) AS line "
            "FROM lndocs), "
            "nl AS (SELECT doc_id, line, count(*) AS c FROM ls "
            "WHERE trim(line) <> '' GROUP BY doc_id, line), "
            "agg AS (SELECT doc_id, sum(c) AS n_lines, "
            "sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS dupl, "
            "sum(c * length(line)) AS chars, "
            "sum(CASE WHEN c > 1 THEN c * length(line) ELSE 0 END) AS dupch "
            "FROM nl GROUP BY doc_id), "
            "tk AS (SELECT doc_id, CASE WHEN trim(tx) = '' THEN [] ELSE "
            "list_filter(regexp_split_to_array(trim(tx), "
            "'[ \\t\\r\\n\\f\\v]+'), w -> w <> '') END AS toks FROM lndocs), "
            "bg AS (SELECT doc_id, unnest(list_transform("
            "range(greatest(len(toks) - 1, 0)), "
            "i -> toks[i+1] || ' ' || toks[i+2])) AS bigram FROM tk), "
            "bgc AS (SELECT doc_id, bigram, count(*) AS c FROM bg "
            "GROUP BY doc_id, bigram), "
            "topg AS (SELECT doc_id, max(c * length(bigram)) AS cov "
            "FROM bgc GROUP BY doc_id) "
            "SELECT d.doc_id, "
            "round(coalesce(a.dupl, 0)::DOUBLE / "
            "greatest(coalesce(a.n_lines, 0), 1), 6) AS dup_line_frac, "
            "round(coalesce(a.dupch, 0)::DOUBLE / "
            "greatest(coalesce(a.chars, 0), 1), 6) AS dup_line_char_frac, "
            "round(coalesce(tg.cov, 0)::DOUBLE / "
            "greatest(length(d.tx), 1), 6) AS top_2gram_char_frac "
            "FROM lndocs d LEFT JOIN agg a USING (doc_id) "
            "LEFT JOIN topg tg ON d.doc_id = tg.doc_id"
        ),
        "doc_boilerplate": (
            "WITH " + _LINEIFIED_SQL + ", "
            "l AS (SELECT doc_id, generate_subscripts(ls, 1) AS pos, "
            "unnest(ls) AS line FROM (SELECT doc_id, "
            "string_split(tx, chr(10)) AS ls FROM lndocs)), "
            "bp AS (SELECT line FROM (SELECT line, "
            "count(DISTINCT doc_id) AS c FROM l WHERE trim(line) <> '' "
            "GROUP BY line) WHERE c >= 10), "
            "kept AS (SELECT * FROM l WHERE trim(line) = '' OR "
            "line NOT IN (SELECT line FROM bp)) "
            "SELECT d.doc_id, coalesce(string_agg(k.line, chr(10) "
            "ORDER BY k.pos), '') AS clean_text "
            "FROM lndocs d LEFT JOIN kept k ON d.doc_id = k.doc_id "
            "GROUP BY d.doc_id"
        ),
        # doc_minhash_dedup / doc_simhash / doc_langid / doc_quality /
        # kg_linkset: not SQL-expressible -> rows-only checks
    }
    # incremental replay must equal the batch result -> same oracle
    out["doc_incremental_minhash"] = out["doc_minhash_dedup"]
    # doc_langid: the trigram profiles are constants of the algorithm —
    # embed them as SQL lists so DuckDB replays classify() bit-exactly
    # (distinct trigrams of ' '+lower(text)+' ', per-profile overlap
    # ratio, strict-> tie-break = alphabetically first language)
    def _langid_sql():
        # the engine's OWN compiled profiles are the source of truth
        profiles = textstats.LangID().profiles
        vals = ", ".join(
            "('%s', [%s], %d)" % (
                lang,
                ", ".join("'%s'" % gr for gr in sorted(grams)),
                len(grams),
            )
            for lang, grams in sorted(profiles.items())
        )
        return (
            "WITH t AS (SELECT doc_id, ' ' || lower(coalesce(text,'')) || "
            "' ' AS s FROM documents), "
            "g AS (SELECT doc_id, list_distinct(list_transform("
            "range(1, greatest(len(s)-1, 1)), i -> s[i:i+2])) AS grams "
            "FROM t), "
            "scores AS (SELECT doc_id, p.lang, "
            "len(list_intersect(g.grams, p.grams))::DOUBLE / p.n AS score "
            f"FROM g CROSS JOIN (VALUES {vals}) p(lang, grams, n)), "
            "ranked AS (SELECT doc_id, lang, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY score DESC, lang) AS rn "
            "FROM scores) "
            "SELECT doc_id, lang AS lang_pred FROM ranked WHERE rn = 1"
        )

    out["doc_langid"] = _langid_sql()
    # the pruned store plan must not change the answer, and neither
    # may the Dataset-backed (semi/anti-join threaded) binding path
    out["fullquery_store"] = out["fullquery_negation"]
    out["fullquery_large"] = out["fullquery_negation"]
    out["doc_line_dedup"] = "WITH words AS (\n  SELECT doc_id, regexp_split_to_array(trim(coalesce(text,'')), '\\s+') AS w FROM documents),\nlns AS (\n  SELECT doc_id, i AS line_idx,\n         array_to_string(w[(i*10+1):((i*10)+10)], ' ') AS line\n  FROM words, unnest(range(0, CAST(greatest(ceil(len(w)/10.0),1) AS BIGINT))) AS t(i)),\nmarked AS (\n  SELECT doc_id, line_idx, line,\n         row_number() OVER (PARTITION BY line ORDER BY doc_id, line_idx) AS rn\n  FROM lns)\nSELECT d.doc_id,\n  coalesce(string_agg(CASE WHEN m.rn=1 THEN m.line END, ' ' ORDER BY m.line_idx), '') AS text\nFROM documents d LEFT JOIN marked m USING (doc_id)\nGROUP BY d.doc_id"
    _dup_grams = """WITH docs2 AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS toks
  FROM documents WHERE length(trim(coalesce(text,''))) > 0),
grams AS (
  SELECT doc_id, CAST(i AS BIGINT) AS pos,
         array_to_string(toks[(i+1):(i+8)], ' ') AS gram
  FROM docs2, unnest(range(0, greatest(len(toks)-7, 0))) AS t(i)),
dups AS (
  SELECT gram FROM grams GROUP BY gram HAVING count(DISTINCT doc_id) >= 2)"""
    out["doc_dup_spans"] = _dup_grams + """,
hits AS (
  SELECT g.doc_id, g.pos,
         g.pos - row_number() OVER (PARTITION BY g.doc_id ORDER BY g.pos) AS isl
  FROM grams g JOIN dups USING (gram))
SELECT doc_id, MIN(pos) AS span_start, MAX(pos) + 7 AS span_end
FROM hits GROUP BY doc_id, isl"""
    out["doc_strip_dup_spans"] = _dup_grams + """,
cover AS (
  SELECT DISTINCT g.doc_id, g.pos + o AS tokpos
  FROM grams g JOIN dups USING (gram), unnest(range(0, 8)) AS t(o)),
toks AS (
  SELECT d.doc_id, CAST(i AS BIGINT) AS tokpos, d.toks[i+1] AS tok
  FROM docs2 d, unnest(range(0, len(d.toks))) AS t(i))
SELECT dd.doc_id,
  coalesce((SELECT string_agg(t.tok, ' ' ORDER BY t.tokpos) FROM toks t
    WHERE t.doc_id = dd.doc_id
      AND NOT EXISTS (SELECT 1 FROM cover c
                      WHERE c.doc_id = t.doc_id AND c.tokpos = t.tokpos)),
    '') AS text
FROM documents dd GROUP BY dd.doc_id"""
    return out
