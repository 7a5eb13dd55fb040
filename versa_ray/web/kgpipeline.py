"""Flagship pipeline: web pages -> knowledge graph link-sets.

    read_parquet(pages)                       [prune to url/html(/text)]
      -> map_batches(PageKGExtractor)  [tasks + per-worker cache]
           html -> text (byte-identical invariant)
           html -> RDFa-Lite triples
           -> fingerprint/transform/labelize rules (schema.org ->
              BIBFRAME-ish), compiled once per worker into one
              per-batch plan (pipeline/plan.py); a page the plan
              cannot reproduce runs on the action interpreter
           -> link columns + lineage (src_url)
      -> map_batches(EntityScorer)     [tasks + per-worker cache over
                                        one ray.put alias index]
      -> write_linkset: ONE partition-keyed shuffle (rel_bucket x
         part_id) that drops duplicate quads inside each partition,
         then one Parquet file per partition, published as one epoch
         commit (stage-level resume via build_kg, per-shard resume via
         build_kg_sharded)

Each stage has one execution path. Ray fuses the two map stages into
one operator, so the link stream between them never round-trips
through the object store.

All entity IDs are content fingerprints, so the cross-document "same
entity" reconciliation IS the dedup shuffle (see SURVEY.md §7 hard
part 2); identical quads share origin and rel, so the store's partition
shuffle is where that dedup happens. ``update_kg`` folds a delta in
through the same shuffle. Each stage boundary materializes to
Parquet with a _SUCCESS marker; a rerun skips completed stages
(resume) and the output carries per-partition lineage columns.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..core import I, RDF_TYPE_REL, VTYPE_REL
from ..core.canon import LINK_SCHEMA
from ..model.linkset import distinct_links
from ..model.micro import MicroModel
from ..pipeline import follow, generic_pipeline, link, lookup, materialize
from ..pipeline.plan import compile_plan
from .extract import extract_both, extract_rdfa

SCH = I("https://schema.org/")
BF = I("http://bibfra.me/vocab/lite/")

LINKS_OUT_SCHEMA = pa.schema(
    list(LINK_SCHEMA) + [pa.field("src_url", pa.string())]
)


def kg_rules():
    """schema.org -> BIBFRAME-ish mapping rules for the web corpus."""
    fingerprint = {
        SCH("Book"): materialize(
            BF("Instance"),
            fprint=[(BF("isbn"), follow(SCH("isbn")))],
        ),
        SCH("Person"): materialize(
            BF("Person"),
            fprint=[
                (BF("name"), follow(SCH("name"))),
                (BF("birthDate"), follow(SCH("birthDate"))),
            ],
        ),
        SCH("Organization"): materialize(
            BF("Organization"),
            fprint=[(BF("name"), follow(SCH("name")))],
        ),
    }
    transform = {
        SCH("name"): link(rel=BF("name")),
        SCH("isbn"): link(rel=BF("isbn")),
        SCH("datePublished"): link(rel=BF("date")),
        SCH("inLanguage"): link(rel=BF("language")),
        SCH("birthDate"): link(rel=BF("birthDate")),
        SCH("author"): link(rel=BF("creator"), target=lookup("@resource")),
        SCH("publisher"): link(rel=BF("publisher"), target=lookup("@resource")),
    }
    labelize = {
        BF("Instance"): follow(BF("name")),
        BF("Person"): follow(BF("name")),
        BF("Organization"): follow(BF("name")),
    }
    return fingerprint, transform, labelize


class TextMismatch(AssertionError):
    pass


class PageKGExtractor:
    """One HTML parse per page, then the compiled rule plan over the
    whole batch.

    The rules are compiled once per instance (__init__), not per
    batch; ``extract_links`` keeps one instance per worker process.
    A page the plan cannot reproduce exactly runs through the
    interpreter (``self.pipeline``), which yields the same rows for
    every other page (tests/test_plan.py). Emits canonical link rows
    with ``src_url`` lineage.
    """

    def __init__(self, check_text=False):
        rules = kg_rules()
        self.pipeline = generic_pipeline(*rules)
        self.plan = compile_plan(*rules)
        if self.plan is None:
            raise ValueError(
                "kg_rules() is outside the rule subset pipeline/plan.py "
                "compiles")
        self.check_text = check_text

    def _transform(self, url: str, triples) -> MicroModel:
        modin = MicroModel()
        for s, p, o, _is_iri in triples:
            rel = VTYPE_REL if p == RDF_TYPE_REL else p
            modin.add(s, rel, o)
        return self.pipeline.run(input_model=modin, doc_tint=url)

    def extract_page(self, url: str, html) -> MicroModel:
        return self._transform(url, extract_rdfa(html, url))

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        golden = None
        if self.check_text:
            if "text" not in batch.column_names:
                raise ValueError(
                    "check_text=True needs a 'text' column to check the "
                    f"extracted text against; the batch has {batch.column_names}")
            golden = batch["text"].to_pylist()
        docs = []
        for i, (url, html) in enumerate(zip(urls, htmls)):
            # one HTML parse serves both text and triples
            text, triples = extract_both(html, url)
            if golden is not None and text != golden[i]:
                raise TextMismatch(f"text extraction drift for {url}")
            docs.append((url, triples))
        return pa.Table.from_pydict(
            self.plan.run(docs, fallback=self._transform),
            schema=LINKS_OUT_SCHEMA)


# per-worker-process stage caches: tasks reuse worker processes, so
# state built on first use is amortized across batches and executions
_EXTRACTOR_CACHE: dict = {}
_SCORER_CACHE: dict = {}


def extract_links(pages_ds, check_text=False):
    """pages Dataset -> links Dataset. HTML is the wide column: the
    html column is dropped at this stage boundary.

    Runs as stateless TASKS with a per-worker extractor cache:
    extractor setup (rule-closure build) is milliseconds, task workers
    persist across dataset executions, and tasks size elastically
    without a pool to size against the downstream shuffle."""
    cols = {"url", "html"} | ({"text"} if check_text else set())
    # fetch_if_missing=False: schema() on a lazy non-read Dataset would
    # execute the upstream pipeline for one row just to prune columns —
    # costlier than skipping the pruning (parquet reads still prune,
    # their schema is metadata)
    sch = pages_ds.schema(fetch_if_missing=False)
    have = set(sch.names) if sch is not None else None
    if have is not None and cols <= have and have - cols:
        pages_ds = pages_ds.select_columns(sorted(cols))

    def _extract(batch: pa.Table) -> pa.Table:
        ex = _EXTRACTOR_CACHE.get(check_text)
        if ex is None:
            ex = _EXTRACTOR_CACHE[check_text] = PageKGExtractor(check_text)
        return ex(batch)

    return pages_ds.map_batches(_extract, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Entity-linking scorer


def char_trigrams(s: str) -> set:
    s = " " + s.lower() + " "
    return {s[i : i + 3] for i in range(len(s) - 2)}


def build_alias_index(alias_table: dict, threshold: float = 0.6) -> dict:
    """Pure-numpy prefix-filtered trigram index over an alias table.

    Built ONCE on the driver and ``ray.put`` as flat arrays, so every
    worker reads zero-copy views from the object store instead
    of re-deriving the index (at 10^5+ aliases the per-worker rebuild
    costs seconds; array views are free). AllPairs/PPJoin layout:
    trigrams get a rarest-first global rank by (df, gram); each alias
    of n trigrams indexes only its prefix of n - ceil(t*n) + 1 rarest
    grams. Arrays:

    * ``lex_grams``/``lex_rank``/``lex_df`` — distinct trigrams in
      lexicographic order (for searchsorted lookup) with each gram's
      global rank and document frequency
    * ``ids``/``offsets`` — per-alias sorted rank arrays, CSR
    * ``post_offsets``/``post_ids`` — prefix postings, CSR by rank
    * ``iris`` — fixed-width unicode authority IRIs
    * ``threshold`` — the Jaccard threshold the prefixes assume
    """
    import math

    import pandas as pd

    names = list(alias_table)
    gram_lists = [sorted(char_trigrams(nm)) for nm in names]
    counts = np.fromiter(
        (len(g) for g in gram_lists), dtype=np.int64, count=len(names)
    )
    flat = np.asarray(
        [g for gl in gram_lists for g in gl], dtype=object
    )
    if len(flat):
        codes, uniq = pd.factorize(flat)
    else:
        codes = np.empty(0, dtype=np.int64)
        uniq = np.empty(0, dtype=object)
    dfc = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
    # rarest-first global order: rank by (df, gram)
    perm = np.lexsort((uniq.astype(object), dfc))
    rank_of_code = np.empty(len(uniq), dtype=np.int64)
    rank_of_code[perm] = np.arange(len(uniq))
    ranks = rank_of_code[codes] if len(codes) else np.empty(0, np.int64)
    alias_idx = np.repeat(np.arange(len(names), dtype=np.int64), counts)
    order = np.lexsort((ranks, alias_idx))
    ids_sorted = ranks[order].astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    prefix_len = counts - np.ceil(threshold * counts).astype(np.int64) + 1
    prefix_len = np.where(counts == 0, 0, prefix_len)
    pos_in_seg = (
        np.arange(len(ids_sorted), dtype=np.int64)
        - np.repeat(offsets[:-1], counts)
    )
    sel = pos_in_seg < np.repeat(prefix_len, counts)
    pg = ids_sorted[sel].astype(np.int64)
    pa_ids = alias_idx[order][sel]
    po = np.argsort(pg, kind="stable")
    V = len(uniq)
    post_counts = np.bincount(pg[po], minlength=V) if V else np.empty(0, np.int64)
    lex_order = (
        np.argsort(uniq.astype(str)) if V else np.empty(0, np.int64)
    )
    return {
        "lex_grams": (
            uniq.astype(str)[lex_order] if V else np.empty(0, dtype="U4")
        ),
        "lex_rank": rank_of_code[lex_order],
        "lex_df": dfc[lex_order],
        "ids": ids_sorted,
        "offsets": offsets,
        "post_offsets": np.concatenate(
            ([0], np.cumsum(post_counts))
        ).astype(np.int64),
        "post_ids": pa_ids[po],
        "iris": np.asarray(list(alias_table.values()), dtype=str),
        "threshold": float(threshold),
    }


class EntityScorer:
    """Entity-linking stage over an alias INDEX (see
    ``build_alias_index``), which ``score_entities`` fetches from the
    object store ONCE per worker as zero-copy numpy views. For every
    bf:name link it computes a trigram-Jaccard score
    against the authority aliases and, on a confident match,
    annotates the link with the authority IRI + score attributes.
    Deterministic, cheap stand-in for a model-based scorer; the Ray
    plumbing (index built once driver-side, broadcast once, scored
    per batch, scorer reuse per worker) is the part that matters at
    scale.

    Matching uses the index's prefix filter: a mention probes the
    posting lists of its n - ceil(t*n) + 1 rarest trigrams (same
    global (df, gram) order the index used), then exact Jaccard runs
    only on candidates that also pass the size window
    t*n <= |alias| <= n/t — one ragged gather + reduceat, no Python
    loop. The prefix-filter theorem guarantees every alias with
    Jaccard >= threshold is found, with the naive scan's first-wins
    tie-break (candidates evaluated in ascending insertion id). The
    only divergence from a full linear scan is the UNUSED
    sub-threshold byproduct: score() reports the best among
    candidates, which may undershoot the true global best when that
    best is < threshold (no annotation is emitted either way).
    """

    NAME_REL = str(BF("name"))

    def __init__(self, index):
        # the prefix/size filters are baked in at index build time, so
        # the index's threshold is the only one the scorer can honour
        self.threshold = float(index["threshold"])
        self._lex_grams = index["lex_grams"]
        self._lex_rank = index["lex_rank"]
        self._lex_df = index["lex_df"]
        self._ids = index["ids"]
        self._offsets = index["offsets"]
        self._post_offsets = index["post_offsets"]
        self._post_ids = index["post_ids"]
        self._iris = index["iris"]
        # mention strings repeat heavily (head entities); memoize per worker
        self._memo: dict = {}

    def score(self, name: str):
        import math

        hit = self._memo.get(name)
        if hit is not None:
            return hit
        grams = char_trigrams(name)
        n = len(grams)
        best, best_iri = 0.0, None
        V = len(self._lex_grams)
        if n and len(self._iris) and V:
            garr = np.asarray(sorted(grams))
            pos = np.searchsorted(self._lex_grams, garr)
            safe = np.minimum(pos, V - 1)
            known = (pos < V) & (self._lex_grams[safe] == garr)
            ranks = np.where(known, self._lex_rank[safe], -1)
            dfs = np.where(known, self._lex_df[safe], 0)
            # mention prefix in the SAME global (df, gram) order —
            # unseen grams have df 0 and legitimately occupy the
            # rarest prefix slots (they probe nothing)
            prefix = n - math.ceil(self.threshold * n) + 1
            probe = ranks[np.lexsort((garr, dfs))[:prefix]]
            probe = probe[probe >= 0]
            lists = [
                self._post_ids[self._post_offsets[r]:self._post_offsets[r + 1]]
                for r in probe
            ]
            lists = [l for l in lists if len(l)]
            if lists:
                cands = np.unique(np.concatenate(lists))
                # size filter: J >= t forces t*n <= |alias| <= n/t
                starts = self._offsets[cands]
                ends = self._offsets[cands + 1]
                asizes = ends - starts
                keep = (asizes * self.threshold <= n) & (
                    asizes >= self.threshold * n
                )
                cands, starts, asizes = cands[keep], starts[keep], asizes[keep]
                if len(cands):
                    # ragged gather of all candidate gram ids at once,
                    # then per-candidate intersection counts via
                    # reduceat — no Python loop even when a bucket
                    # yields many genuine near-matches
                    lens = asizes
                    total = int(lens.sum())
                    cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
                    gather = np.arange(total, dtype=np.int64) + np.repeat(
                        starts - cum, lens
                    )
                    qmask = np.zeros(V, dtype=bool)
                    qmask[ranks[known]] = True
                    hits = qmask[self._ids[gather]]
                    inter = np.add.reduceat(hits, cum)
                    j = inter / (n + lens - inter)
                    k = int(np.argmax(j))
                    if inter[k]:
                        best = float(j[k])
                        best_iri = str(self._iris[int(cands[k])])
        out = (best_iri, best) if best >= self.threshold else (None, best)
        if len(self._memo) < 1_000_000:
            self._memo[name] = out
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.equal(batch["rel"], self.NAME_REL).to_numpy(zero_copy_only=False)
        if not mask.any() or not len(self._iris):
            return batch
        # score each DISTINCT mention once, then annotate only the HIT
        # rows: miss-only batches (the common case) return without
        # materializing the attrs column or touching JSON at all
        rows = np.flatnonzero(mask)
        targets = batch["target"].take(pa.array(rows)).to_pylist()
        uniq, inv = np.unique(
            np.asarray(targets, dtype=object), return_inverse=True)
        scored = [self.score(str(u)) for u in uniq]
        hits = [
            (int(rows[i]), scored[inv[i]])
            for i in range(len(targets))
            if scored[inv[i]][0] is not None
        ]
        if not hits:
            return batch
        attrs = batch["attrs"].to_numpy(zero_copy_only=False)
        for i, (iri, score) in hits:
            cur = attrs[i]
            d = json.loads(cur) if cur and cur != "{}" else {}
            d["@authority"] = iri
            d["@link-score"] = "%.3f" % score
            attrs[i] = json.dumps(
                d, sort_keys=True, separators=(",", ":"), ensure_ascii=False
            )
        return batch.set_column(
            batch.schema.get_field_index("attrs"), "attrs", pa.array(attrs, type=pa.string())
        )


def score_entities(links_ds, alias_table: dict):
    """Entity-linking stage: stateless tasks with a per-worker scorer
    cache over one driver-built, ``ray.put`` alias index."""
    import ray

    if not alias_table:
        return links_ds
    # index built ONCE here; workers get zero-copy array views
    ref = ray.put(build_alias_index(alias_table))

    def _score(batch: pa.Table) -> pa.Table:
        scorer = _SCORER_CACHE.get(ref.hex())
        if scorer is None:
            scorer = _SCORER_CACHE[ref.hex()] = EntityScorer(ray.get(ref))
        return scorer(batch)

    return links_ds.map_batches(_score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Checkpointed end-to-end run


def canonicalize_authorities(links_ds):
    """Collapse scorer-linked entities onto their authority IRIs.

    The EntityScorer annotates name links with ``@authority``; this
    stage builds the entity->authority mapping from those annotations
    and rewrites every origin/target (and attr value) through it with
    distributed bucket-merge joins (linkset.replace_values_ds), so the
    mapping never materializes driver-side, then re-dedups. This is
    the explicit canonicalization rewrite of the reference's
    replace_values/replace_entity_resource (util.py:162-191) applied
    at corpus scale.
    """
    import pyarrow.compute as pc

    def _extract_mapping(tbl: pa.Table) -> pa.Table:
        mask = pc.match_substring(tbl["attrs"], "@authority")
        hits = tbl.filter(mask)
        if hits.num_rows == 0:
            return pa.table(
                {"entity": pa.array([], type=pa.string()),
                 "authority": pa.array([], type=pa.string())}
            )
        ents, auths = [], []
        for origin, attrs in zip(hits["origin"].to_pylist(), hits["attrs"].to_pylist()):
            d = json.loads(attrs)
            if "@authority" in d:
                ents.append(origin)
                auths.append(d["@authority"])
        return pa.table({"entity": ents, "authority": auths})

    from ..model.linkset import replace_values_ds

    pairs_ds = links_ds.map_batches(_extract_mapping, batch_format="pyarrow")
    return distinct_links(replace_values_ds(links_ds, pairs_ds))


def _stage_dir(root, name):
    return os.path.join(root, f"stage={name}")


def _complete(root, name):
    return os.path.exists(os.path.join(_stage_dir(root, name), "_SUCCESS"))


def _write_dir(ds, d):
    """Write ``ds`` as Parquet into ``d``, cleared first: Ray's
    write_parquet appends into an existing directory, so files that a
    crashed earlier write left there would be read back as output."""
    shutil.rmtree(d, ignore_errors=True)
    ds.write_parquet(d)


def _mark_complete(root, name, meta=None):
    d = _stage_dir(root, name)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        json.dump({"stage": name, "ts": time.time(), **(meta or {})}, f)


def build_kg_sharded(
    out_dir: str,
    pages_path: str | None = None,
    n_pages: int | None = None,
    num_shards: int = 8,
    alias_table=None,
    check_text=False,
    max_shards_this_run: int | None = None,
    num_partitions: int = 16,
):
    """Per-shard resumable flagship build.

    The page corpus is split into ``num_shards`` ranges (or file
    groups); each shard extracts+scores+locally-dedups into its own
    ``stage=extracted/shard=K`` directory with a _SUCCESS manifest
    recording lineage (input range, pages, rows, wall seconds). A
    rerun skips completed shards — that is per-PARTITION resume, finer
    than the stage-level resume of build_kg. When all shards are
    present, one global dedup shuffle materializes the final linkset.

    ``max_shards_this_run`` limits how many incomplete shards this
    invocation processes (used to exercise partial-progress resume).
    """
    import ray.data as rd

    from .synth import pages_dataset

    os.makedirs(out_dir, exist_ok=True)
    ex_root = os.path.join(out_dir, "stage=extracted")
    man_root = os.path.join(out_dir, "manifests")
    os.makedirs(man_root, exist_ok=True)

    # the shard split is part of the build's identity: shard-K markers
    # only cover hash%num_shards == K, so resuming with a DIFFERENT
    # num_shards would silently skip pages. Record it once, refuse a
    # mismatched rerun.
    build_marker = os.path.join(man_root, "_build.json")
    if os.path.exists(build_marker):
        with open(build_marker) as f:
            prev = json.load(f)
        if int(prev.get("num_shards", num_shards)) != int(num_shards):
            raise ValueError(
                "build_kg_sharded: this build was started with "
                f"num_shards={prev['num_shards']}; resuming with "
                f"num_shards={num_shards} would silently drop pages. "
                "Rerun with the original value or start a fresh out_dir."
            )
    else:
        with open(build_marker, "w") as f:
            json.dump({"num_shards": int(num_shards)}, f)

    if pages_path is not None:

        def shard_pages(k):
            # stable hash-sharding on url (vectorized; no salted
            # Python hash, no per-row filter)
            def _keep(tbl: pa.Table, k=k) -> pa.Table:
                urls = tbl["url"].to_pandas()
                mask = (
                    pd.util.hash_pandas_object(urls, index=False) % num_shards == k
                ).to_numpy()
                return tbl.filter(pa.array(mask))

            ds = rd.read_parquet(pages_path).map_batches(_keep, batch_format="pyarrow")
            return ds, (k, k)
    else:
        assert n_pages is not None

        def shard_pages(k):
            lo = n_pages * k // num_shards
            hi = n_pages * (k + 1) // num_shards
            from .synth import page_batch

            def _gen(batch: pa.Table, lo=lo, n=n_pages) -> pa.Table:
                ids = batch["id"].to_numpy()
                return page_batch(42, lo + int(ids.min()), lo + int(ids.max()) + 1, n)

            base = rd.range(hi - lo)
            return base.map_batches(_gen, batch_format="pyarrow"), (lo, hi)

    done, ran = [], 0
    for k in range(num_shards):
        sdir = os.path.join(ex_root, f"shard={k}")
        marker = os.path.join(man_root, f"shard-{k}.json")
        if os.path.exists(marker):
            done.append(k)
            continue
        if max_shards_this_run is not None and ran >= max_shards_this_run:
            continue
        t0 = time.time()
        ds, (lo, hi) = shard_pages(k)
        links = extract_links(ds, check_text=check_text)
        if alias_table:
            links = score_entities(links, alias_table)
        _write_dir(distinct_links(links), sdir)
        with open(marker, "w") as f:
            json.dump(
                {
                    "shard": k,
                    "page_range": [lo, hi],
                    # footers only: counting the lazy Dataset would
                    # rerun extract + score + dedup
                    "rows": sum(
                        pq.ParquetFile(f).metadata.num_rows
                        for f in glob.glob(os.path.join(sdir, "*.parquet"))),
                    "wall_sec": round(time.time() - t0, 2),
                },
                f,
            )
        done.append(k)
        ran += 1

    if len(done) < num_shards:
        return None  # partial progress persisted; caller reruns to resume

    if not _complete(out_dir, "linkset"):
        all_links = rd.read_parquet(ex_root)
        if "shard" in all_links.schema().names:
            all_links = all_links.drop_columns(["shard"])
        from ..model.store import write_linkset

        write_linkset(
            all_links, _stage_dir(out_dir, "linkset"),
            num_partitions=num_partitions,
        )
        _mark_complete(out_dir, "linkset", {"partitions": num_partitions, "shards": num_shards})
    from ..model.store import read_linkset

    return read_linkset(_stage_dir(out_dir, "linkset"))


def build_kg(
    pages_ds=None,
    pages_path=None,
    out_dir="/tmp/versa_ray_kg",
    alias_table=None,
    check_text=False,
    num_partitions=16,
):
    """Run the flagship pipeline with stage-boundary checkpoints.

    Returns the final links Dataset (already written under
    ``out_dir/stage=linkset``). Rerunning with the same out_dir skips
    completed stages — that is the resume path; lineage is the
    ``src_url`` column plus the per-stage manifests. A run that crashed
    after the store commit but before its stage marker resumes by
    committing the next store epoch, which replaces every partition,
    so the resumed link-set equals an uninterrupted run's."""
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)

    if _complete(out_dir, "linkset"):
        from ..model.store import read_linkset

        return read_linkset(_stage_dir(out_dir, "linkset"))

    if _complete(out_dir, "extracted"):
        links = rd.read_parquet(_stage_dir(out_dir, "extracted"))
    else:
        if pages_ds is None:
            pages_ds = rd.read_parquet(
                pages_path, columns=["url", "html"] + (["text"] if check_text else [])
            )
        _write_dir(extract_links(pages_ds, check_text=check_text),
                   _stage_dir(out_dir, "extracted"))
        _mark_complete(out_dir, "extracted")
        links = rd.read_parquet(_stage_dir(out_dir, "extracted"))

    if alias_table:
        links = score_entities(links, alias_table)

    # rel+origin partitioned output: match(rel=...) and match(origin=...)
    # against the stored linkset prune whole partition directories
    # (model/store.py — the sqlite driver's (subj,pred) index intent);
    # the write's partition shuffle is also the global dedup
    from ..model.store import write_linkset

    write_linkset(
        links, _stage_dir(out_dir, "linkset"), num_partitions=num_partitions
    )
    _mark_complete(out_dir, "linkset", {"partitions": num_partitions})
    from ..model.store import read_linkset

    return read_linkset(_stage_dir(out_dir, "linkset"))


def update_kg(pages_ds, store_dir, alias_table=None, check_text=False):
    """Incremental KG maintenance: extract links from a DELTA page
    corpus and fold them into an existing stored link-set with the
    duplicate-refusing partition-pruned update — the continuous-crawl
    companion to ``build_kg``. Re-crawled pages contribute only their
    genuinely new links (entity IDs are content fingerprints, so a
    re-derived entity hashes to the same partition it already lives
    in). Cost is O(delta + touched partitions), never a store rescan;
    replaying a corpus in deltas converges to the batch ``build_kg``
    linkset (equality-tested in tests/test_web_kg.py).

    The store must exist (build it with ``build_kg`` first — its
    ``stage=linkset`` dir is the ``store_dir`` here). Returns the
    update stats dict from ``model.store.update_linkset``."""
    from ..model.store import update_linkset

    links = extract_links(pages_ds, check_text=check_text)
    if alias_table:
        links = score_entities(links, alias_table)
    return update_linkset(store_dir, links)
