"""Distributed link-set operators over ray.data.Dataset.

The linkset is a Dataset of canonical link rows (core.canon.LINK_SCHEMA
plus optional lineage columns). Each reference model/driver verb maps
to a vectorized Dataset transform:

    match/multimatch  -> map_batches mask filter (pyarrow.compute)
    add_many/update   -> from_arrow / union (+ dedup shuffle)
    uniquify/add-dedup-> distinct_links: local pre-dedup + groupby(qkey)
    all_origins       -> unique / type-filtered semi-join
    canonical repr    -> global sort by quad key
    replace_values    -> broadcast-map rewrite in map_batches

Design notes for 100 TB scale: every filter is a zero-copy Arrow mask;
dedup pre-collapses per batch before the shuffle (combiner pattern);
the shuffle key is a 64-bit row hash (pandas hash_pandas_object — a
vectorized, process-stable hash), with true-quad comparison inside
each group so hash collisions can never merge distinct quads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..core import EMPTY_ATTRS, I, VTYPE_REL, attrs_to_json
from ..core.canon import LINK_SCHEMA, link_to_row

QUAD_COLS = ["origin", "rel", "target", "target_is_iri", "attrs"]


def from_links(links, extra_cols=None):
    """Build a links Dataset from Python link tuples (driver-side,
    small inputs / tests)."""
    import ray.data as rd

    rows = []
    for l in links:
        o, r, t = l[0], l[1], l[2]
        a = l[3] if len(l) > 3 else None
        row = link_to_row(o, r, t, a)
        if extra_cols:
            row.update(extra_cols)
        rows.append(row)
    if not rows:
        return rd.from_arrow(LINK_SCHEMA.empty_table())
    return rd.from_arrow(pa.Table.from_pylist(rows))


def from_model(model, extra_cols=None):
    import ray.data as rd

    rows = model.to_rows()
    if extra_cols:
        for row in rows:
            row.update(extra_cols)
    if not rows:
        return rd.from_arrow(LINK_SCHEMA.empty_table())
    return rd.from_arrow(pa.Table.from_pylist(rows))


def _mask_eq(tbl, col, value):
    if isinstance(value, (set, frozenset, list, tuple)):
        return pc.is_in(tbl[col], value_set=pa.array(sorted(str(v) for v in value)))
    return pc.equal(tbl[col], str(value))


def match(ds, origin=None, rel=None, target=None, attrs=None):
    """Pattern scan: exact origin/rel/target equality (None = wildcard;
    sets allowed -> multimatch) and attr-subset constraint."""
    attrs_json = attrs_to_json(attrs) if attrs else None
    attr_items = sorted((str(k), str(v)) for k, v in (attrs or {}).items())

    def _filter(tbl: pa.Table) -> pa.Table:
        mask = None
        for col, val in (("origin", origin), ("rel", rel), ("target", target)):
            if val is None:
                continue
            m = _mask_eq(tbl, col, val)
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            tbl = tbl.filter(mask)
        if attr_items and tbl.num_rows:
            import json

            # vectorized prefilter: canonical attrs JSON must contain
            # each requested key's encoded form, so rows without it
            # never reach the per-row JSON parse
            pre = None
            for k, _v in attr_items:
                m = pc.match_substring(tbl["attrs"], json.dumps(k, ensure_ascii=False))
                pre = m if pre is None else pc.and_(pre, m)
            cand = tbl.filter(pre)
            if cand.num_rows:
                col = cand["attrs"].to_pylist()
                keep = []
                for s in col:
                    d = json.loads(s) if s and s != EMPTY_ATTRS else {}
                    keep.append(all(d.get(k) == v for k, v in attr_items))
                cand = cand.filter(pa.array(keep))
            tbl = cand
        return tbl

    return ds.map_batches(_filter, batch_format="pyarrow")


multimatch = match  # sets are accepted directly by match


_KEY_SEP = "\x1f"
_ESC = "\x1e"
_NULL_SENTINEL = _ESC + "0"


def _escape_col(col):
    if pa.types.is_null(col.type):  # degenerate all-null batch
        col = pc.cast(col, pa.string())
    col = pc.replace_substring(col, _ESC, _ESC + _ESC)
    return pc.replace_substring(col, _KEY_SEP, _ESC + "~")


def _unescape(s: str) -> str:
    if _ESC not in s:  # fast path: virtually all IRIs/text
        return s
    out = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == _ESC and i + 1 < len(s):
            out.append(_KEY_SEP if s[i + 1] == "~" else _ESC)
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def intersect_statements(a, b, num_buckets=64):
    """Statement-set INTERSECTION of two link-sets (full-quad
    equality, attrs included). Both sides may be corpus-sized: each
    side's rows carry their composite quad key, and one two-input
    keyed exchange keeps a's distinct statements whose key b holds —
    no driver-side key set, no broadcast. Complements
    ``remove_statements`` (difference vs a small set) and ``union``."""
    from ..core.exchange import exchange

    def _keep(ra: pd.DataFrame, rb: pd.DataFrame) -> pd.DataFrame:
        if not len(ra) or not len(rb):
            return None
        ra = ra.drop_duplicates(subset=["qkey"])
        return ra[ra["qkey"].isin(set(rb["qkey"]))]

    keys_b = with_quad_key(b).map_batches(
        lambda tbl: tbl.select(["qkey"]), batch_format="pyarrow")
    return exchange(
        [with_quad_key(a.select_columns(QUAD_COLS)), keys_b], "qkey", _keep,
        LINK_SCHEMA, num_buckets)


def diff_statements(a, b, num_buckets=64):
    """Symmetric statement-set DIFFERENCE of two link-set snapshots —
    the KG version diff: distinct quads present only in ``a`` emit
    with ``change='removed'``, only in ``b`` with ``change='added'``
    (set semantics; full-quad equality including attrs, the same
    contract as ``intersect_statements``). ONE two-input keyed
    exchange carries both sides: ``with_quad_key`` pre-dedups each
    batch (combiner), every copy of a quad co-locates by key, and the
    per-bucket side test is a set lookup. No reference counterpart
    (Versa diffs models by driver-side statement iteration)."""
    from ..core.exchange import exchange

    def _emit(ra: pd.DataFrame, rb: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for rows, other, change in ((ra, rb, "removed"), (rb, ra, "added")):
            if len(rows):
                seen = set(other["qkey"]) if len(other) else set()
                only = rows[~rows["qkey"].isin(seen)]
                outs.append(only.drop_duplicates(subset=["qkey"])
                            .assign(change=change))
        return pd.concat(outs, ignore_index=True) if outs else None

    return exchange(
        [with_quad_key(a), with_quad_key(b)], "qkey", _emit,
        LINK_SCHEMA.append(pa.field("change", pa.string())), num_buckets)


def with_quad_key(ds, key_col="qkey"):
    """Append a composite string key LOSSLESSLY encoding the full quad
    (separator-escaped) and locally pre-dedup each batch (combiner
    before the shuffle). Stays in Arrow end to end: pandas-format
    blocks make Ray's sort/aggregate path ~20x slower."""
    import numpy as np

    def _key(tbl: pa.Table) -> pa.Table:
        key = _quad_key_expr(tbl)
        _, ix = np.unique(key.to_numpy(zero_copy_only=False), return_index=True)
        tbl = tbl.append_column(key_col, key)
        if len(ix) < tbl.num_rows:
            tbl = tbl.take(np.sort(ix))
        return tbl

    return ds.map_batches(_key, batch_format="pyarrow")


def quad_from_key(keys) -> pa.Table:
    """Inverse of with_quad_key: split composite keys back into the
    five quad columns (vectorized split + unescape)."""
    parts = pc.split_pattern(keys, _KEY_SEP)
    lists = parts.to_pylist()
    origin, rel, target, is_iri, attrs = [], [], [], [], []
    for o, r, t, b, a in lists:
        origin.append(_unescape(o))
        rel.append(_unescape(r))
        target.append(None if t == _NULL_SENTINEL else _unescape(t))
        is_iri.append(b == "true")
        attrs.append(_unescape(a))
    return pa.table(
        {
            "origin": pa.array(origin, type=pa.string()),
            "rel": pa.array(rel, type=pa.string()),
            "target": pa.array(target, type=pa.string()),
            "target_is_iri": pa.array(is_iri),
            "attrs": pa.array(attrs, type=pa.string()),
        }
    )


def distinct_links(ds, num_buckets=None):
    """Global exact dedup of quads: the distributed form of the model's
    duplicate-refusing add (memory.py:179-181) / util.uniquify.

    Local pre-dedup (combiner) -> hash-BUCKET shuffle -> vectorized
    per-bucket dedup. The shuffle key is a small int bucket (stable
    row-hash of the quad key mod B), NOT the quad key itself: Ray's
    groupby/aggregate costs ~25µs of per-group Python per distinct
    key, which is ruinous when nearly every row is its own group. With
    B balanced buckets the per-group overhead is paid B times total,
    and inside each bucket the dedup is one pandas drop_duplicates
    (C-vectorized). Extra (lineage) columns keep their lexicographic
    minimum — deterministic across runs and workers. The exchange is
    keyed on the quad hash ``_qhash``."""
    from ..core.exchange import exchange

    def _prep(tbl: pa.Table) -> pa.Table:
        # composite quad key computed batch-locally; only its 64-bit
        # HASH ships through the shuffle (string key is ~2x the quad
        # payload). The hash also does the heavy lifting downstream:
        # in-bucket sort/dedup compare the int first and touch the
        # string columns only for hash ties.
        key = pc.binary_join_element_wise(
            _escape_col(tbl["origin"]),
            _escape_col(tbl["rel"]),
            pc.coalesce(_escape_col(tbl["target"]), pa.scalar(_NULL_SENTINEL)),
            pc.cast(tbl["target_is_iri"], pa.string()),
            tbl["attrs"],
            _KEY_SEP,
        )
        qhash = pd.util.hash_pandas_object(
            pd.Series(key.to_numpy(zero_copy_only=False)), index=False
        ).to_numpy()
        # local pre-dedup (combiner), exact: hash-duplicate rows are
        # re-checked on the true quad columns, so a hash collision can
        # never drop a distinct quad; rows with unique hashes skip all
        # string comparisons
        dup = pd.Series(qhash).duplicated(keep=False).to_numpy()
        if dup.any():
            cand_ix = np.flatnonzero(dup)
            sub = tbl.select(QUAD_COLS).take(cand_ix).to_pandas()
            sub["_qh"] = qhash[cand_ix]
            drop_local = sub.duplicated(subset=["_qh"] + QUAD_COLS).to_numpy()
            if drop_local.any():
                keep = np.ones(tbl.num_rows, dtype=bool)
                keep[cand_ix[drop_local]] = False
                ix = np.flatnonzero(keep)
                tbl = tbl.take(ix)
                qhash = qhash[ix]
        return tbl.append_column(
            "_qhash", pa.array(qhash.astype("int64"), type=pa.int64())
        )

    def _dedup_bucket(group: pd.DataFrame) -> pd.DataFrame:
        extras = [n for n in group.columns
                  if n not in QUAD_COLS and n != "_qhash"]
        if extras:
            # int-first sort: string (lineage) comparisons only happen
            # for equal hashes, so min-lineage determinism costs O(n)
            # int comparisons instead of a 5-string-column sort
            group = group.sort_values(["_qhash"] + extras, kind="stable")
        return group.drop_duplicates(subset=["_qhash"] + QUAD_COLS)

    return exchange(
        ds.map_batches(_prep, batch_format="pyarrow"), "_qhash",
        _dedup_bucket, lambda sch: sch.remove(sch.get_field_index("_qhash")),
        num_buckets)


def union(*datasets, dedup=True):
    """Model merge (update): union + dedup shuffle."""
    out = datasets[0]
    for other in datasets[1:]:
        out = out.union(other)
    return distinct_links(out) if dedup else out


def size(ds) -> int:
    return ds.count()


def column_values(ds, col: str):
    """Distinct values of one link column (util.py:78-88), as a
    one-column DataFrame named after the column."""
    return pd.DataFrame({col: sorted(ds.unique(col))})


def all_origins(ds, of_types=None):
    """Distinct origins, optionally type-filtered; '*' = any type
    (util.py:56-75). Type filter is a broadcast semi-join against the
    (small) set of typed origins."""
    if not of_types:
        return pd.DataFrame({"origin": sorted(ds.unique("origin"))})
    typed = match(ds, rel=VTYPE_REL)
    if "*" not in set(of_types):
        typed = match(typed, rel=VTYPE_REL, target=set(of_types))
    return pd.DataFrame({"origin": sorted(typed.unique("origin"))})


def column_values_ds(ds, col: str):
    """Dataset-returning distinct values of one link column — the
    at-scale form of column_values (which materializes a sorted list
    driver-side and is only for small results). Distinct runs through
    the keyed exchange, so the result streams."""
    from ..core.exchange import distinct_rows

    return distinct_rows(ds.select_columns([col]), [col], lambda s: s)


def all_origins_ds(ds, of_types=None):
    """Dataset-returning distinct origins (at-scale form of
    all_origins), optionally type-filtered ('*' = any type)."""
    if not of_types:
        return column_values_ds(ds, "origin")
    typed = match(ds, rel=VTYPE_REL)
    if "*" not in set(of_types):
        typed = match(typed, rel=VTYPE_REL, target=set(of_types))
    return column_values_ds(typed, "origin")


def resourcetypes(ds, rid):
    return [r["target"] for r in match(ds, origin=rid, rel=VTYPE_REL).take_all()]


def lookup(ds, orig, rel):
    return [r["target"] for r in match(ds, origin=orig, rel=rel).take_all()]


def lookup_byvalue(ds, rel, target):
    return [r["origin"] for r in match(ds, rel=rel, target=target).take_all()]


def static_index(ds, rel, setvals=False, include_attrs=False):
    """origin -> target(s) mapping for one rel, materialized driver-side
    for broadcast (util.py:107-141). Only for small-side rels; the
    caller is expected to ray.put() the result for reuse."""
    index = {}
    for row in match(ds, rel=rel).take_all():
        o, t = row["origin"], row["target"]
        val = (t, row["attrs"]) if include_attrs else t
        curr = index.get(o)
        if curr is None:
            index[o] = {val} if setvals else val
        elif setvals:
            curr.add(val)
        elif isinstance(curr, list):
            curr.append(val)
        else:
            index[o] = [curr, val]
    return index


def replace_values(ds, mapping: dict):
    """Broadcast-map rewrite of origins/targets/attr values — the
    canonicalization rewrite (util.py:162-191) as a map_batches over a
    ray.put mapping (no shuffle)."""
    import json

    import ray

    ref = ray.put(mapping)

    def _rewrite(tbl: pa.Table) -> pa.Table:
        mp = ray.get(ref)
        if not mp:
            return tbl
        karr = pa.array(list(mp.keys()), type=pa.string())
        varr = pa.array([str(v) for v in mp.values()], type=pa.string())

        def remap_col(col):
            # fully vectorized remap: index_in -> take -> null-fill
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if pa.types.is_null(col.type):
                return pc.cast(col, pa.string())
            idx = pc.index_in(col, value_set=karr)
            mapped = pc.take(varr, idx)
            return pc.if_else(pc.is_valid(idx), mapped, col)

        tbl = tbl.set_column(
            tbl.schema.get_field_index("origin"), "origin", remap_col(tbl["origin"])
        )
        tbl = tbl.set_column(
            tbl.schema.get_field_index("target"), "target", remap_col(tbl["target"])
        )
        # attr values (rare path; only parse rows that mention a key)
        attrs_col = tbl["attrs"].to_pylist()
        changed = False
        for i, s in enumerate(attrs_col):
            if s and s != EMPTY_ATTRS and any(k in s for k in mp):
                d = json.loads(s)
                d2 = {k: mp.get(v, v) if isinstance(v, str) else v for k, v in d.items()}
                if d2 != d:
                    attrs_col[i] = attrs_to_json(d2)
                    changed = True
        if changed:
            tbl = tbl.set_column(
                tbl.schema.get_field_index("attrs"),
                "attrs",
                pa.array(attrs_col, type=pa.string()),
            )
        return tbl

    return ds.map_batches(_rewrite, batch_format="pyarrow")


def _escape_str(s: str) -> str:
    """Driver-side scalar twin of _escape_col."""
    return s.replace(_ESC, _ESC + _ESC).replace(_KEY_SEP, _ESC + "~")


def _quad_key_expr(tbl: pa.Table):
    """The composite quad key as an Arrow expression over a batch
    (shared by with_quad_key and the vectorized anti-join below)."""
    return pc.binary_join_element_wise(
        _escape_col(tbl["origin"]),
        _escape_col(tbl["rel"]),
        pc.coalesce(_escape_col(tbl["target"]), pa.scalar(_NULL_SENTINEL)),
        pc.cast(tbl["target_is_iri"], pa.string()),
        _escape_col(tbl["attrs"]),
        _KEY_SEP,
    )


def remove_statements(ds, links):
    """Distributed remove: anti-join against a (small) set of quads —
    the Dataset mapping of the driver's remove verb
    (memory.py:231-243; SURVEY §2.1 "anti-join on quad key"). The
    removal set is encoded to composite quad keys driver-side and
    broadcast (ray.put); each batch computes its quad keys vectorized
    and drops rows via one ``index_in`` — no per-row tuple
    materialization. For corpus-sized removal sets use a bucket merge
    instead."""
    import ray

    keys = set()
    for l in links:
        o, r, t = l[0], l[1], l[2]
        a = l[3] if len(l) > 3 else None
        row = link_to_row(o, r, t, a)
        tgt = _NULL_SENTINEL if row["target"] is None else _escape_str(row["target"])
        keys.add(
            _KEY_SEP.join(
                (
                    _escape_str(row["origin"]),
                    _escape_str(row["rel"]),
                    tgt,
                    "true" if row["target_is_iri"] else "false",
                    _escape_str(row["attrs"]),
                )
            )
        )
    ref = ray.put(pa.array(sorted(keys), type=pa.string()))

    def _filter(tbl: pa.Table) -> pa.Table:
        karr = ray.get(ref)
        idx = pc.index_in(_quad_key_expr(tbl), value_set=karr)
        return tbl.filter(pc.is_null(idx))

    return ds.map_batches(_filter, batch_format="pyarrow")


def replace_values_ds(ds, mapping_ds, num_buckets=64):
    """Canonicalization rewrite for CORPUS-PROPORTIONAL mappings.

    ``replace_values`` broadcasts the mapping (fine while authority
    matches are rare); when the entity->authority mapping grows with
    the corpus, broadcasting it to every task is a scale-killer.
    This form keeps the mapping distributed: two bucket-merge passes
    rewrite ``origin`` then ``target``, each shuffling on a small hash
    bucket of the join key (links and mapping rows co-bucketed, pandas
    merge inside the bucket). Attr-VALUE rewriting is applied too, so
    the result is semantically identical to ``replace_values``: the
    distinct attrs strings are exploded to (attrs, value) pairs,
    bucket-joined against the mapping on the value, rebuilt into an
    (attrs -> new attrs) translation table, and applied with the same
    bucket-merge pass keyed on the attrs column. The extra passes are
    skipped entirely when no attrs value matches the mapping (the
    common case — the translation table is tiny and checked first)."""
    from ..core.exchange import exchange

    string3 = pa.schema({"_astr": pa.string(), "_key": pa.string(),
                         "_mval": pa.string()})

    def _mapping_rows(df: pd.DataFrame) -> pd.DataFrame:
        if "entity" not in df.columns:
            return pd.DataFrame({"_key": [], "_mval": []}, dtype=object)
        return pd.DataFrame({"_key": df["entity"].astype(str).to_numpy(),
                             "_mval": df["authority"].astype(str).to_numpy()})

    def _rewrite_pass(links, key_col, mapping=None):
        def _apply(lnk: pd.DataFrame, mp: pd.DataFrame) -> pd.DataFrame:
            if not len(lnk) or not len(mp):
                return lnk
            mp = mp.drop_duplicates("_key")
            remap = lnk[key_col].map(dict(zip(mp["_key"], mp["_mval"])))
            return lnk.assign(**{key_col: remap.fillna(lnk[key_col])})

        mapping = (mapping if mapping is not None else mapping_ds).map_batches(
            _mapping_rows, batch_format="pandas")
        return exchange([links, mapping], [[key_col], ["_key"]], _apply,
                        lambda ls, ms: ls, num_buckets)

    def _attrs_translation(links):
        """Distributed (attrs -> rewritten attrs) translation table.

        Explodes DISTINCT attrs strings into (attrs, value) pairs,
        bucket-joins the pairs against the mapping on the value, and
        rebuilds each matched attrs string with the same top-level
        string-value substitution the broadcast form applies."""
        import json as _json

        def _explode(df: pd.DataFrame) -> pd.DataFrame:
            astr, vals = [], []
            seen = set()
            for s in df["attrs"]:
                if not s or s == EMPTY_ATTRS or s in seen:
                    continue
                seen.add(s)
                try:
                    d = _json.loads(s)
                except ValueError:
                    continue
                for v in d.values():
                    if isinstance(v, str):
                        astr.append(s)
                        vals.append(v)
            return pd.DataFrame({"_astr": pd.Series(astr, dtype=object),
                                 "_key": pd.Series(vals, dtype=object)})

        def _hits(pr: pd.DataFrame, mp: pd.DataFrame) -> pd.DataFrame:
            if not len(pr) or not len(mp):
                return None
            mp = mp.drop_duplicates("_key")
            got = pr["_key"].map(dict(zip(mp["_key"], mp["_mval"])))
            return pr[got.notna()].assign(_mval=got[got.notna()])

        matched = exchange(
            [links.map_batches(_explode, batch_format="pandas"),
             mapping_ds.map_batches(_mapping_rows, batch_format="pandas")],
            "_key", _hits, string3, num_buckets)

        def _rebuild(grp: pd.DataFrame) -> pd.DataFrame:
            out_a, out_n = [], []
            for s, g in grp.groupby("_astr"):
                d = _json.loads(s)
                rm = dict(zip(g["_key"], g["_mval"]))
                d2 = {
                    k: rm.get(v, v) if isinstance(v, str) else v
                    for k, v in d.items()
                }
                if d2 != d:
                    out_a.append(s)
                    out_n.append(attrs_to_json(d2))
            return pd.DataFrame({"entity": out_a, "authority": out_n})

        return exchange(
            matched, "_astr", _rebuild,
            pa.schema({"entity": pa.string(), "authority": pa.string()}),
            num_buckets)

    out = _rewrite_pass(_rewrite_pass(ds, "origin"), "target")
    if "attrs" in (ds.schema(fetch_if_missing=False) or ds.schema()).names:
        # attrs strings are untouched by the origin/target passes, so the
        # translation computed from the input applies verbatim to `out`
        tx = _attrs_translation(ds).materialize()
        if tx.count():
            out = _rewrite_pass(out, "attrs", mapping=tx)
    return out


def duplicate_statements(ds, oldorigin, neworigin):
    """Copy links of one origin to a new origin (util.py:194-206)."""
    dup = match(ds, origin=oldorigin)

    def _rename(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        return tbl.set_column(
            tbl.schema.get_field_index("origin"),
            "origin",
            pa.array([str(neworigin)] * n, type=pa.string()),
        )

    return union(ds, dup.map_batches(_rename, batch_format="pyarrow"))


def canonical_sorted(ds):
    """Global canonical sort — the distributed equality surface
    (memory.py:263-291 semantics on Arrow columns)."""
    return ds.sort(QUAD_COLS)


def to_canonical_table(ds) -> pa.Table:
    """Small-result canonicalization for conformance diffing."""
    tbl = pa.Table.from_pandas(
        canonical_sorted(ds).to_pandas(), preserve_index=False
    )
    return tbl


def follow_join(ds, *rels, num_partitions=None):
    """Large-frontier multi-hop traversal as hash-partitioned JOINS:
    hop_i links ⋈ hop_{i+1} links on target == origin
    (the distributed form of the follow action / SURVEY §2.5 mapping).
    Use this when the frontier is too large to broadcast (the
    small-frontier path is the semi-join in zoom_in/transitive_closure).
    Returns (origin, target) pairs from first hop origin to last hop
    target."""
    import ray

    if num_partitions is None:
        # Ray's hash join starts one aggregator per partition; more
        # partitions than this stall a small cluster
        try:
            num_partitions = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_partitions = 16
    assert rels, "follow_join requires at least one rel"
    frontier = match(ds, rel=rels[0]).select_columns(["origin", "target"])
    for r in rels[1:]:
        nxt = (
            match(ds, rel=r)
            .select_columns(["origin", "target"])
            .rename_columns({"origin": "hop_origin", "target": "hop_target"})
        )
        frontier = frontier.join(
            nxt,
            join_type="inner",
            num_partitions=num_partitions,
            on=("target",),
            right_on=("hop_origin",),
        )
        frontier = frontier.select_columns(["origin", "hop_target"]).rename_columns(
            {"hop_target": "target"}
        )
    return frontier


def origin_adjacency(ds, num_buckets=64):
    """Distributed origin_view (util.py:144-158): one row per origin
    with its [rel, target, attrs] adjacency as a JSON column. Groups by
    a coarse hash bucket of the origin (origins are near-unique keys —
    the same per-group-overhead rule as distinct_links)."""
    import json

    from ..core.exchange import exchange

    def _adj_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        # ONE output frame per bucket (a 1-row DataFrame per origin is
        # ~0.5 ms each — the dominant cost at 10k+ origins); rows are
        # grouped by a single vectorized sort + itertools slicing
        if not len(bucket):
            return None
        b = bucket.sort_values(
            ["origin", "rel", "target", "attrs"], na_position="first"
        )
        origins_arr = b["origin"].to_numpy()
        quads = list(
            zip(b["rel"], b["target"], b["target_is_iri"], b["attrs"])
        )
        bounds = np.flatnonzero(
            np.concatenate(([True], origins_arr[1:] != origins_arr[:-1]))
        )
        origins, adjacency = [], []
        for i, lo in enumerate(bounds):
            hi = bounds[i + 1] if i + 1 < len(bounds) else len(origins_arr)
            origins.append(origins_arr[lo])
            adjacency.append(
                json.dumps([list(q) for q in quads[lo:hi]], ensure_ascii=False)
            )
        return pd.DataFrame({"origin": origins, "adjacency": adjacency})

    return exchange(
        ds, "origin", _adj_bucket,
        pa.schema({"origin": pa.string(), "adjacency": pa.string()}),
        num_buckets)


def _resolve_sink(path, filesystem=None):
    """Resolve (filesystem, root) for a text sink. Accepts a plain
    path (relative or absolute), a ``file://`` / ``s3://``-style URI,
    or an explicit pyarrow FileSystem (e.g. a SubTreeFileSystem in
    tests). Shards are opened through the filesystem abstraction
    inside map_batches, so on a multi-node cluster every worker
    writes to the ONE target filesystem instead of scattering
    worker-local files."""
    import os

    import pyarrow.fs as pafs

    if filesystem is None:
        if "://" not in str(path):
            # FileSystem.from_uri rejects relative paths ("empty scheme")
            path = os.path.abspath(path)
        filesystem, path = pafs.FileSystem.from_uri(path)
    filesystem.create_dir(path, recursive=True)
    return filesystem, path


def _write_shard(filesystem, root: str, ext: str, text: str) -> str:
    """Write one uniquely-named shard through the resolved filesystem
    and return its path. The shard token is a uuid — batch-content
    derived names can collide (an origin spanning consecutive full
    batches yields identical first-origin+len keys)."""
    import posixpath
    import uuid

    fpath = posixpath.join(root, f"part-{uuid.uuid4().hex[:16]}{ext}")
    with filesystem.open_output_stream(fpath) as fp:
        fp.write(text.encode("utf-8"))
    return fpath


def write_literate_ds(ds, path: str, filesystem=None):
    """Canonical Versa Literate rendering at scale: global sort by
    origin (the canonical writer's ordering, serial/literate.py:101-117)
    -> vectorized per-block rendering -> sharded text files. Each
    origin's block renders exactly like the driver-side writer."""
    import json

    from ..core import VTYPE_REL
    from ..serial.literate import escape_text

    adj = origin_adjacency(ds).sort("origin")
    fs_, root = _resolve_sink(path, filesystem)

    def _render(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for origin, adjacency in zip(df["origin"], df["adjacency"]):
            rels = json.loads(adjacency)
            types = sorted(t for (r, t, ii, a) in rels if r == str(VTYPE_REL))
            first_type = types[0] if types else None
            header = (
                f"# {origin} [{first_type}]\n\n" if first_type else f"# {origin}\n\n"
            )
            lines = [header]
            for r, t, is_iri, attrs_json in rels:
                if first_type and r == str(VTYPE_REL) and t == first_type:
                    continue
                val = (
                    f"<{t}>"
                    if is_iri
                    else f'"{escape_text(t if t is not None else "")}"'
                )
                lines.append(f"* <{r}>: {val}\n")
                for k, v in sorted(json.loads(attrs_json).items()):
                    lines.append(f"    * {k}: \"{escape_text(v)}\"\n")
            lines.append("\n")
            out.append("".join(lines))
        if not out:
            return pd.DataFrame({"file": []})
        return pd.DataFrame({"file": [_write_shard(fs_, root, ".vlit", "".join(out))]})

    files = adj.map_batches(_render, batch_format="pandas").take_all()
    return [r["file"] for r in files]


def write_ntriples_ds(ds, path: str, filesystem=None):
    """Distributed NTriples sink: one rendered shard per block (the
    at-scale form of serial/ntriples.write; same VTYPE->rdf:type and
    resource mapping). Returns the shard file list."""
    from ..serial.ntriples import RESOURCE_MAPPING, _strconv
    from ..core import RDF_TYPE_REL

    fs_, root = _resolve_sink(path, filesystem)
    vtype = str(VTYPE_REL)
    rdf_type = str(RDF_TYPE_REL)

    def _render(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"file": []})
        lines = []
        for o, r, t, is_iri in zip(
            df["origin"], df["rel"], df["target"], df["target_is_iri"]
        ):
            r = str(RESOURCE_MAPPING.get(r, r))
            t_out = RESOURCE_MAPPING.get(t, t)
            if r == vtype:
                r = rdf_type
            tgt = _strconv(I(t_out)) if is_iri else _strconv(t_out)
            lines.append(f"{_strconv(I(o))} {_strconv(I(r))} {tgt} .")
        return pd.DataFrame(
            {"file": [_write_shard(fs_, root, ".nt", "\n".join(lines) + "\n")]}
        )

    files = ds.map_batches(_render, batch_format="pandas").take_all()
    return [r["file"] for r in files]


def write_jsonld_ds(ds, path: str, context=None, filesystem=None):
    """Distributed FLAT JSON-LD sink: one node object per origin
    (origin_adjacency shuffle), IRI targets as {"@id": ...}
    references. Deliberately flat — the reference binder's
    first-use inlining (serial/jsonld.py) needs global ordering
    state, which a driver-side pass provides for small graphs; at
    corpus scale flat node objects + id refs are the JSON-LD-standard
    equivalent (expand/flatten round-trip identical). Returns shard
    file list; each shard is a JSON array of node objects."""
    import json

    fs_, root = _resolve_sink(path, filesystem)
    vtype = str(VTYPE_REL)

    def _render(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"file": []})
        nodes = []
        for origin, adjacency in zip(df["origin"], df["adjacency"]):
            obj = {"@id": str(origin)}
            for r, t, is_iri, attrs_json in json.loads(adjacency):
                if r == vtype:
                    obj.setdefault("@type", []).append(str(t))
                    continue
                val = {"@id": str(t)} if is_iri else t
                if r in obj and isinstance(obj[r], list):
                    obj[r].append(val)
                elif r in obj:
                    obj[r] = [obj[r], val]
                else:
                    obj[r] = val
            nodes.append(obj)
        doc = {"@graph": nodes}
        if context:
            doc["@context"] = context
        return pd.DataFrame(
            {
                "file": [
                    _write_shard(fs_, root, ".jsonld", json.dumps(doc, ensure_ascii=False))
                ]
            }
        )

    files = origin_adjacency(ds).map_batches(
        _render, batch_format="pandas"
    ).take_all()
    return [r["file"] for r in files]


def write_csv_ds(ds, path: str, rulelist, filesystem=None):
    """Distributed CSV projection sink (the at-scale form of
    serial/csvrec.write): origins pivot to rows via the
    origin-adjacency shuffle, (property, header) rules project
    columns, multi-values join with '|', typeless or empty rows drop —
    same row semantics as the driver-side writer. One CSV shard per
    adjacency block, each with the header."""
    import csv
    import io
    import json

    from ..core import RDF_TYPE_REL

    fs_, root = _resolve_sink(path, filesystem)
    properties = [str(k) for (k, v) in rulelist]
    headers = [v for (k, v) in rulelist]
    vtype = str(VTYPE_REL)
    rdf_type = str(RDF_TYPE_REL)

    def _render(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"file": []})
        rows = []
        for origin, adjacency in zip(df["origin"], df["adjacency"]):
            props: dict = {}
            for r, t, is_iri, attrs_json in json.loads(adjacency):
                props.setdefault(r, []).append(t)
            rtypes = props.get(rdf_type) or props.get(vtype)
            if not rtypes:
                continue
            row = [origin, "|".join(rtypes)] + [None] * len(properties)
            wrote = False
            for ix, p in enumerate(properties):
                v = props.get(p)
                if v:
                    row[ix + 2] = "|".join(str(x) for x in v)
                    wrote = True
            if wrote:
                rows.append(row)
        if not rows:
            return pd.DataFrame({"file": []})
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["id", "type"] + headers)
        w.writerows(rows)
        return pd.DataFrame({"file": [_write_shard(fs_, root, ".csv", buf.getvalue())]})

    files = origin_adjacency(ds).map_batches(
        _render, batch_format="pandas"
    ).take_all()
    return [r["file"] for r in files]


def zoom_in(ds, focus, depth=1, max_rels=0):
    """Iterative frontier expansion: links reachable from focus within
    `depth` hops (util.py:226-253). Each hop is a broadcast semi-join
    on the (small) frontier set."""
    frontier = {str(focus)}
    seen_origins = set()
    parts = []
    total = 0
    for _ in range(depth + 1):
        frontier -= seen_origins
        if not frontier:
            break
        hop = match(ds, origin=set(frontier))
        rows = hop.take_all()
        seen_origins |= frontier
        frontier = {
            r["target"]
            for r in rows
            if r["target_is_iri"] and r["target"] is not None
        }
        parts.extend(rows)
        total += len(rows)
        if max_rels and total > max_rels:
            return from_links(
                [(r["origin"], r["rel"], r["target"]) for r in parts[:max_rels]]
            ), False
    import ray.data as rd

    if not parts:
        return rd.from_arrow(LINK_SCHEMA.empty_table()), True
    return rd.from_items(parts), True


def transitive_closure_ds(ds, seeds, rel, max_iters=50, num_buckets=None):
    """Fully distributed transitive closure over one rel: the frontier
    lives in the Dataset, never on the driver (the driver-side
    ``transitive_closure`` caps its frontier and raises; this form is
    the large-frontier path). One fused coarse-bucket shuffle per hop
    over a tagged working set: kind 0 = visited marker (flag 1 once
    the node was REACHED via an edge — the reference semantics return
    reached targets, so a seed only appears in the output if a cycle
    returns to it), kind 1 = edge keyed by src, kind 2 = traversal
    token. Returns a Dataset with one ``node`` column of reached
    nodes. Convergence = a per-round scalar of EMITTED traversal
    tokens (pending work); a round that only activates leaf nodes
    emits none and the loop stops."""
    import ray.data as rd

    from ..core.exchange import exchange

    edge_ds = match(ds, rel=rel)

    def _init(tbl: pa.Table) -> pa.Table:
        src = tbl["origin"].to_pylist()
        dst = tbl["target"].to_pylist()
        n = len(src)
        return pa.table(
            {
                "key": pa.array(src, type=pa.string()),
                "kind": pa.array([1] * n, type=pa.int8()),
                "other": pa.array(dst, type=pa.string()),
                "flag": pa.array([0] * n, type=pa.int8()),
                "c": pa.array([0] * n, type=pa.int8()),
            }
        )

    seed_list = sorted({str(s) for s in seeds})
    work_schema = pa.schema({"key": pa.string(), "kind": pa.int8(),
                             "other": pa.string(), "flag": pa.int8(),
                             "c": pa.int8()})
    seed_tbl = pa.table(
        {
            "key": pa.array(seed_list, type=pa.string()),
            "kind": pa.array([2] * len(seed_list), type=pa.int8()),
            "other": pa.array([None] * len(seed_list), type=pa.string()),
            "flag": pa.array([0] * len(seed_list), type=pa.int8()),
            "c": pa.array([0] * len(seed_list), type=pa.int8()),
        }
    )
    work = edge_ds.map_batches(_init, batch_format="pyarrow").union(
        rd.from_arrow(seed_tbl)
    )

    def _hop(bucket: pd.DataFrame) -> pd.DataFrame:
        visited = bucket[bucket["kind"] == 0]
        edg = bucket[bucket["kind"] == 1]
        toks = bucket[bucket["kind"] == 2]
        vis_flag = dict(zip(visited["key"], visited["flag"]))
        newly_active = []
        for key, flag in zip(toks["key"], toks["flag"]):
            prev = vis_flag.get(key)
            if prev is None:
                vis_flag[key] = int(flag)
                newly_active.append(key)
            elif flag and not prev:
                vis_flag[key] = 1  # reached upgrade; no re-expansion
        out = [
            pd.DataFrame(
                {"key": list(vis_flag), "kind": np.int8(0), "other": None,
                 "flag": np.array(list(vis_flag.values()), dtype=np.int8),
                 "c": np.zeros(len(vis_flag), dtype=np.int8)}
            ),
            edg[["key", "kind", "other", "flag", "c"]],
        ]
        if newly_active:
            active = set(newly_active)
            hits = edg[edg["key"].isin(active)]
            n_h = len(hits)
            out.append(
                pd.DataFrame(
                    {"key": hits["other"].to_numpy(), "kind": np.int8(2),
                     "other": None, "flag": np.ones(n_h, dtype=np.int8),
                     "c": np.zeros(n_h, dtype=np.int8)}
                )
            )
            # convergence signal = EMITTED TOKENS this round (pending
            # work), not new activations: a round that activates leaf
            # nodes emits nothing and the loop may stop — counting
            # activations falsely reported non-convergence whenever the
            # frontier quiesced exactly at max_iters
            if n_h:
                out.append(
                    pd.DataFrame(
                        {"key": ["__new__"], "kind": np.int8(4), "other": None,
                         "flag": np.int8(0),
                         "c": np.array([min(n_h, 127)], dtype=np.int8)}
                    )
                )
        return pd.concat(out, ignore_index=True)

    new_count = 0
    for _ in range(max_iters):
        work = exchange(work, "key", _hop, work_schema,
                        num_buckets).materialize()
        new_count = work.map_batches(
            lambda df: pd.DataFrame(
                {"n": [int(df.loc[df["kind"] == 4, "c"].sum())]}
            ),
            batch_format="pandas",
        ).sum("n")
        work = work.map_batches(
            lambda df: df[df["kind"] != 4], batch_format="pandas"
        )
        if not new_count:
            break
    if new_count:
        # mirror the driver-side form's contract: never return a
        # silently truncated closure
        raise RuntimeError(
            f"transitive_closure_ds did not converge in {max_iters} hops "
            f"({new_count} traversal tokens still pending); raise max_iters"
        )

    def _reached(df: pd.DataFrame) -> pd.DataFrame:
        hit = df[(df["kind"] == 0) & (df["flag"] == 1)]
        return pd.DataFrame({"node": hit["key"].to_numpy()})

    return work.map_batches(_reached, batch_format="pandas")


def transitive_closure(ds, orig, rel, max_frontier=100_000):
    """Fixpoint frontier iteration over one rel (broadcast semi-join
    per hop). The frontier lives driver-side: when it outgrows
    ``max_frontier`` this raises rather than silently degrading — use
    ``follow_join`` (hash-partitioned joins) for large-frontier
    traversals."""
    seen = set()
    frontier = {str(orig)}
    while frontier:
        rows = match(ds, origin=set(frontier), rel=rel).take_all()
        frontier = {r["target"] for r in rows if r["target"] not in seen and r["target"]}
        seen |= frontier
        if len(seen) > max_frontier:
            raise RuntimeError(
                f"transitive_closure frontier exceeded {max_frontier}; "
                "use follow_join for large-frontier traversal"
            )
    return seen


def latest_statements(ds, ts_col="ts", num_buckets=64):
    """Temporal statement resolution — latest-assertion-wins: for each
    (origin, rel) keep only the most recent statement by ``ts_col``,
    ties broken by smallest (target, target_is_iri) so the result is a
    pure function of the statement set. The temporal complement of
    ops.validate.functional_conflicts: where that op REPORTS multiple
    asserted values for a functional property, this op RESOLVES them
    by recency — the standard snapshot step when ingesting
    slowly-changing assertions (entity attributes re-crawled over
    time). Two-phase grouped argmax via ops.agg.grouped_topk (k=1):
    every batch keeps one row per (origin, rel) locally before the
    single coarse-bucket shuffle, so hot entities cost one combiner
    row per batch, not their full assertion history."""
    from ..ops.agg import grouped_topk

    out = grouped_topk(
        ds, ["origin", "rel"], ts_col, k=1, ascending=False,
        tie_cols=["target", "target_is_iri"], num_buckets=num_buckets)
    return out.drop_columns(["rank"])
