"""Web-corpus KG pipeline: byte-identical text invariant, RDFa
extraction, doc-local transform, and the end-to-end Ray pipeline with
dedup + checkpoint/resume.
"""

import os
import shutil

import pytest

from versa_ray.core import VLABEL_REL, VTYPE_REL
from versa_ray.web.extract import extract_rdfa, extract_text
from versa_ray.web.kgpipeline import PageKGExtractor
from versa_ray.web.synth import make_page

N = 40
QUAD = ["origin", "rel", "target", "target_is_iri", "attrs", "src_url"]


def _quads(ds):
    """A link-set's rows as one sorted quad list (lineage included)."""
    df = ds.to_pandas()
    return sorted(map(tuple, df[QUAD].itertuples(index=False)))


def test_text_extraction_byte_identical():
    for i in range(N):
        row = make_page(42, i, N)
        assert extract_text(row["html"]) == row["text"], f"page {i}"


def test_rdfa_triples_shape():
    row = make_page(42, 0, N)
    triples = extract_rdfa(row["html"], row["url"])
    preds = [t[1].rsplit("/", 1)[-1].rsplit("#", 1)[-1] for t in triples]
    assert preds.count("type") == 3  # Book, Person, Organization
    assert "author" in preds and "publisher" in preds and "isbn" in preds
    # page -> author link present with IRI object
    author = [t for t in triples if t[1].endswith("/author")][0]
    assert author[0] == row["url"] and author[3] is True


def test_doc_local_kg_transform():
    ex = PageKGExtractor()
    row = make_page(42, 5, N)
    modout = ex.extract_page(row["url"], row["html"])
    types = [t for (_, l) in modout for t in [l] if l[1] == VTYPE_REL]
    type_targets = sorted(l[2].rsplit("/", 1)[-1] for (_, l) in modout if l[1] == VTYPE_REL)
    assert type_targets == ["Instance", "Organization", "Person"]
    # creator/publisher wired to fingerprinted entity IDs, labels emitted
    rels = [l[1].rsplit("/", 1)[-1] for (_, l) in modout]
    assert "creator" in rels and "publisher" in rels
    assert any(l[1] == VLABEL_REL for (_, l) in modout)


def test_same_entity_same_id_across_pages():
    """Same author fingerprint on different pages => same entity ID
    (the property that makes dedup == canonicalization)."""
    ex = PageKGExtractor()
    # find two pages sharing head author 0
    from versa_ray.web.synth import _author

    hits = [i for i in range(N) if _author(42, i, N) == 0][:2]
    assert len(hits) == 2
    ids = []
    for i in hits:
        row = make_page(42, i, N)
        modout = ex.extract_page(row["url"], row["html"])
        person = [l[0] for (_, l) in modout
                  if l[1] == VTYPE_REL and l[2].endswith("Person")]
        ids.append(person[0])
    assert ids[0] == ids[1]


def test_end_to_end_ray_pipeline(ray_session, tmp_path):
    import ray.data as rd

    from versa_ray.web.kgpipeline import build_kg
    from versa_ray.web.synth import author_name, page_batch

    pages = rd.from_arrow(page_batch(42, 0, N, N))
    out_dir = str(tmp_path / "kg")
    alias = {author_name(42, 0): "https://authority.example.org/person/0"}
    links = build_kg(
        pages_ds=pages, out_dir=out_dir, alias_table=alias,
        check_text=True, num_partitions=4,
    )
    total = links.count()
    assert total > N * 5  # several links per page survive dedup

    df = links.to_pandas()
    # exact dedup held
    assert not df.duplicated(subset=["origin", "rel", "target", "attrs"]).any()
    # lineage present
    assert df["src_url"].str.startswith("https://example.org/page/").all()
    # partition lineage lives in the store layout (build_kg now
    # returns the manifest-aware read, which drops partition columns)
    from versa_ray.model.store import pruned_fragments

    store = os.path.join(out_dir, "stage=linkset")
    pids = {
        int(seg.split("=")[1])
        for f in pruned_fragments(store)
        for seg in f.split(os.sep) if seg.startswith("part_id=")
    }
    assert pids <= set(range(4)) and pids
    # entity linking annotated the head author's name link
    assert df["attrs"].str.contains("authority.example.org").any()

    # resume: wipe nothing, run again -> must read checkpoint, same links
    want = _quads(links)
    links2 = build_kg(pages_ds=None, out_dir=out_dir)
    assert links2.count() == total
    assert _quads(links2) == want

    # resume after losing the final stage but keeping extraction
    shutil.rmtree(os.path.join(out_dir, "stage=linkset"))
    links3 = build_kg(pages_ds=None, out_dir=out_dir, alias_table=alias)
    assert links3.count() == total
    assert _quads(links3) == want


def test_build_kg_resume_after_store_commit(ray_session, tmp_path):
    """A crash after the link-set commit but before its stage marker:
    the rerun commits the store again and must hold the same quads,
    not the first run's rows plus the second's."""
    import ray.data as rd

    from versa_ray.model.store import read_linkset
    from versa_ray.web.kgpipeline import build_kg
    from versa_ray.web.synth import page_batch

    pages = rd.from_arrow(page_batch(42, 0, N, N))
    out_dir = str(tmp_path / "kg")
    key = ["origin", "rel", "target", "attrs"]
    first = build_kg(pages_ds=pages, out_dir=out_dir,
                     num_partitions=4).to_pandas()
    os.remove(os.path.join(out_dir, "stage=linkset", "_SUCCESS"))
    again = build_kg(pages_ds=pages, out_dir=out_dir,
                     num_partitions=4).to_pandas()
    assert len(again) == len(first)
    assert again[key].sort_values(key, ignore_index=True).equals(
        first[key].sort_values(key, ignore_index=True))
    store = os.path.join(out_dir, "stage=linkset")
    assert read_linkset(store).count() == len(first)


def test_stage_and_shard_dirs_cleared_before_write(ray_session, tmp_path):
    """Ray's write_parquet appends into an existing directory: files a
    crashed write left in a stage or shard directory must not reach
    the shard marker's row count or the link-set."""
    import glob
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from versa_ray.web.kgpipeline import LINKS_OUT_SCHEMA, build_kg
    from versa_ray.web.synth import write_pages

    stray = pa.Table.from_pylist(
        [{"origin": "urn:stray", "rel": "urn:stray:rel", "target": "x",
          "target_is_iri": False, "attrs": "{}", "src_url": "urn:stray"}],
        schema=LINKS_OUT_SCHEMA)
    pages = str(tmp_path / "pages.parquet")
    write_pages(pages, 40)

    out = str(tmp_path / "sharded")
    os.makedirs(f"{out}/stage=extracted/shard=0")
    pq.write_table(stray, f"{out}/stage=extracted/shard=0/stray.parquet")
    links = build_kg(pages_path=pages, out_dir=out, num_shards=2).to_pandas()
    assert "urn:stray" not in set(links["origin"])
    shard = json.load(open(f"{out}/manifests/shard-0.json"))
    files = glob.glob(f"{out}/stage=extracted/shard=0/*.parquet")
    assert shard["rows"] == sum(
        pq.ParquetFile(f).metadata.num_rows for f in files)

    # one shard: its directory is cleared too, and a file beside the
    # shard directories is never read back (only marker-listed files are)
    kg = str(tmp_path / "kg")
    os.makedirs(f"{kg}/stage=extracted/shard=0")
    pq.write_table(stray, f"{kg}/stage=extracted/shard=0/stray.parquet")
    pq.write_table(stray, f"{kg}/stage=extracted/stray.parquet")
    links = build_kg(pages_path=pages, out_dir=kg).to_pandas()
    assert "urn:stray" not in set(links["origin"])
    assert not os.path.exists(f"{kg}/stage=extracted/shard=0/stray.parquet")


def test_stored_linkset_holds_exactly_the_link_columns(ray_session, tmp_path):
    """Every store file, after a build with one or two shards and after
    an update_kg on top, holds exactly the LINKS_OUT_SCHEMA columns:
    the checkpoint's stage=/shard= path segments must not be read back
    as columns."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from versa_ray.web.kgpipeline import LINKS_OUT_SCHEMA, build_kg, update_kg
    from versa_ray.web.synth import page_batch, write_pages

    pages = str(tmp_path / "pages.parquet")
    write_pages(pages, 20)

    def columns(store):
        files = glob.glob(f"{store}/**/*.parquet", recursive=True)
        assert files
        return {tuple(pq.read_schema(f).names) for f in files}

    want = {tuple(LINKS_OUT_SCHEMA.names)}
    for shards in (1, 2):
        out = str(tmp_path / f"kg{shards}")
        build_kg(pages_path=pages, out_dir=out, num_shards=shards)
        assert columns(f"{out}/stage=linkset") == want, shards
    update_kg(rd.from_arrow(page_batch(42, 15, 30, 30)),
              str(tmp_path / "kg1" / "stage=linkset"))
    assert columns(str(tmp_path / "kg1" / "stage=linkset")) == want


def test_origin_adjacency_and_literate_at_scale(ray_session, tmp_path):
    from versa_ray.model.linkset import from_links, origin_adjacency, write_literate_ds
    from versa_ray.core import I, VTYPE_REL

    ds = from_links(
        [
            (I("http://e/a"), VTYPE_REL, I("http://e/T")),
            (I("http://e/a"), I("http://e/name"), "Thing A"),
            (I("http://e/b"), I("http://e/name"), "Thing B"),
        ]
    )
    adj = origin_adjacency(ds).to_pandas()
    assert set(adj["origin"]) == {"http://e/a", "http://e/b"}
    import json

    a_rows = json.loads(adj[adj.origin == "http://e/a"].iloc[0]["adjacency"])
    assert len(a_rows) == 2

    out = str(tmp_path / "lit")
    write_literate_ds(ds, out)
    import glob

    text = "".join(open(f).read() for f in glob.glob(out + "/*"))
    assert "# http://e/a [http://e/T]" in text
    assert '* <http://e/name>: "Thing A"' in text


def test_sharded_resume(ray_session, tmp_path):
    """Per-shard checkpointing: a partial run persists shard progress;
    a resume without pages input is refused with the missing shards
    named; the resume run skips completed shards and finishes. The resumed
    build, an uninterrupted 4-shard build and a 1-shard build of the
    same corpus store identical link-sets, lineage included."""
    import glob
    import json

    import pyarrow.parquet as pq

    from versa_ray.web.kgpipeline import build_kg
    from versa_ray.web.synth import author_name, write_pages

    pages = str(tmp_path / "pages.parquet")
    write_pages(pages, 80)
    alias = {author_name(42, 0): "https://authority.example.org/person/0"}

    def build(name, **kw):
        return build_kg(pages_path=pages, out_dir=str(tmp_path / name),
                        alias_table=alias, num_partitions=4, **kw)

    out = str(tmp_path / "kg_sharded")
    # first invocation only processes 2 of 4 shards
    assert build("kg_sharded", num_shards=4, max_shards_this_run=2) is None
    markers = sorted(glob.glob(out + "/manifests/shard-*.json"))
    assert len(markers) == 2
    stamps = {m: os.path.getmtime(m) for m in markers}
    # lineage manifest contents: the marker lists the shard's stored
    # files and its row count is their Parquet footer row count
    for m in markers:
        shard = json.load(open(m))
        sdir = f"{out}/stage=extracted/shard={shard['shard']}"
        files = sorted(os.path.basename(f)
                       for f in glob.glob(f"{sdir}/*.parquet"))
        assert files and shard["files"] == files
        assert shard["rows"] > 0 and shard["rows"] == sum(
            pq.ParquetFile(f"{sdir}/{f}").metadata.num_rows for f in files)

    # resuming with shards left but no pages input names them
    with pytest.raises(ValueError) as err:
        build_kg(out_dir=out, num_shards=4)
    missing = sorted(set(range(4)) - {
        json.load(open(m))["shard"] for m in markers})
    assert out in str(err.value) and str(missing) in str(err.value)

    # resume completes the rest without redoing finished shards
    final = build("kg_sharded", num_shards=4)
    assert final is not None
    for m, ts in stamps.items():
        assert os.path.getmtime(m) == ts  # untouched
    resumed = _quads(final)
    assert resumed

    # equals uninterrupted runs with the same and with one shard
    assert _quads(build("kg_4", num_shards=4)) == resumed
    assert _quads(build("kg_1", num_shards=1)) == resumed


def test_canonicalize_authorities(ray_session):
    """Scorer-linked entities collapse onto authority IRIs via the
    distributed replace_values_ds rewrite (whose equality with the
    broadcast replace_values is tested below, attr values included)."""
    import ray.data as rd

    from versa_ray.model.linkset import distinct_links
    from versa_ray.web.kgpipeline import (
        canonicalize_authorities,
        extract_links,
        score_entities,
    )
    from versa_ray.web.synth import author_name, page_batch

    pages = rd.from_arrow(page_batch(42, 0, N, N))
    alias = {author_name(42, 0): "https://authority.example.org/person/0"}
    links = distinct_links(score_entities(extract_links(pages), alias))
    canon = canonicalize_authorities(links).to_pandas()

    # the head author's entity IRI is gone; the authority IRI took over
    assert (canon["origin"] == "https://authority.example.org/person/0").any()
    # creator links now point at the authority
    assert (
        (canon["rel"].str.endswith("/creator"))
        & (canon["target"] == "https://authority.example.org/person/0")
    ).any()
    # no duplicate quads after the rewrite
    assert not canon.duplicated(subset=["origin", "rel", "target", "attrs"]).any()


def test_extract_and_score_fuse_into_one_operator(ray_session):
    """The flagship's extract and score stages are separate calls, but
    Ray runs them as ONE fused map operator, so the link stream between
    them never round-trips through the object store."""
    import ray.data as rd

    from versa_ray.web.kgpipeline import extract_links, score_entities
    from versa_ray.web.synth import author_name, page_batch

    pages = rd.from_arrow(page_batch(42, 0, 40, 40))
    alias = {author_name(42, 0): "https://authority.example.org/person/0"}
    out = score_entities(extract_links(pages, check_text=True),
                         alias).materialize()
    assert out.count() > 0
    stats = out.stats()
    fused = [line for line in stats.splitlines()
             if "MapBatches(_extract)" in line
             and "MapBatches(_score)" in line]
    assert fused, stats


def test_warc_roundtrip_and_kgbuild(ray_session, tmp_path):
    """Synth pages -> WARC (plain + gzip) -> read_warc_ds recovers
    url/ts/html byte-identically, and the WARC-read corpus drives the
    flagship pipeline to the same linkset as the parquet path."""
    import pyarrow.parquet as pq

    from versa_ray.web.kgpipeline import build_kg
    from versa_ray.web.synth import write_pages
    from versa_ray.web.warc import read_warc_ds, write_warc

    pages_pq = str(tmp_path / "pages.parquet")
    write_pages(pages_pq, 30)
    tbl = pq.read_table(pages_pq)
    rows = tbl.to_pylist()

    plain = write_warc(rows, str(tmp_path / "a.warc"))
    gz = write_warc(rows, str(tmp_path / "b.warc.gz"), compress=True)

    got = read_warc_ds([plain]).to_pandas().sort_values(
        "url", ignore_index=True)
    want = tbl.to_pandas().sort_values("url", ignore_index=True)
    assert got["url"].tolist() == want["url"].tolist()
    assert [bytes(h) for h in got["html"]] == [
        bytes(h) for h in want["html"]]
    assert (
        got["warc_ts"].dt.floor("s").tolist()
        == want["warc_ts"].dt.floor("s").tolist()
    )

    got_gz = read_warc_ds([gz]).to_pandas()
    assert len(got_gz) == len(rows)

    kg_a = build_kg(
        pages_path=pages_pq, out_dir=str(tmp_path / "kg_pq"),
    ).to_pandas()
    kg_b = build_kg(
        pages_ds=read_warc_ds([plain]), out_dir=str(tmp_path / "kg_warc"),
    ).to_pandas()
    key = ["origin", "rel", "target"]
    assert (
        kg_a[key].sort_values(key, ignore_index=True).equals(
            kg_b[key].sort_values(key, ignore_index=True))
    )


def test_update_kg_incremental_replay(ray_session, tmp_path):
    """Replaying the corpus in two deltas through update_kg converges
    to the batch build_kg linkset; the second delta (pure re-crawl)
    adds zero rows and touches a strict subset of partitions."""
    from versa_ray.web.kgpipeline import build_kg, update_kg
    from versa_ray.web.synth import pages_dataset

    n = 60
    all_pages = pages_dataset(n)
    first = all_pages.filter(
        lambda r: int(r["url"].rsplit("/", 1)[-1]) < 40)
    second_new = all_pages.filter(
        lambda r: int(r["url"].rsplit("/", 1)[-1]) >= 30)

    batch = build_kg(
        pages_ds=all_pages, out_dir=str(tmp_path / "kg_batch"),
    ).to_pandas()

    store = str(tmp_path / "kg_inc" / "stage=linkset")
    build_kg(pages_ds=first, out_dir=str(tmp_path / "kg_inc"))
    stats = update_kg(second_new, store)
    assert stats["partitions_updated"] >= 1

    # pure re-crawl: no new links, some partitions untouched
    stats2 = update_kg(first, store)
    from versa_ray.model.store import read_linkset

    # a TINY re-crawl delta must touch a strict subset of partitions
    # (the O(touched partitions) claim; the 40-page delta above is
    # large enough to hash into nearly every partition)
    import json as _json
    import os as _os

    meta = _json.load(open(_os.path.join(store, "_linkset_meta.json")))
    total_parts = meta["num_rel_buckets"] * meta["num_partitions"]
    tiny = all_pages.filter(lambda r: int(r["url"].rsplit("/", 1)[-1]) < 2)
    stats3 = update_kg(tiny, store)
    assert 0 < stats3["partitions_updated"] < total_parts

    inc = read_linkset(store).to_pandas()
    key = ["origin", "rel", "target", "attrs"]
    a = batch[key].sort_values(key, ignore_index=True)
    b = inc[key].sort_values(key, ignore_index=True)
    assert a.equals(b)
    assert stats2["rows_after"] == len(batch)


def test_entity_scorer_trigram_index_matches_linear_scan():
    """The per-actor inverted trigram index must reproduce the naive
    O(|table|) linear scan exactly — same best IRI, same score, same
    first-wins tie-break — on a large random alias table."""
    import random

    from versa_ray.web.kgpipeline import (EntityScorer, build_alias_index,
                                          char_trigrams)

    rng = random.Random(404)
    first = ["alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi"]
    last = ["smith", "jones", "brown", "davis", "miller", "wilson", "moore",
            "taylor", "thomas", "lee"]
    alias = {}
    for i in range(3000):
        nm = "%s %s %d" % (rng.choice(first), rng.choice(last), i % 37)
        alias.setdefault(nm, "https://auth.example.org/p/%d" % i)

    def linear(scorer_table, name, threshold):
        best, best_iri = 0.0, None
        grams = char_trigrams(name)
        for aname, airi in scorer_table.items():
            agrams = char_trigrams(aname)
            inter = len(grams & agrams)
            if not inter:
                continue
            j = inter / (len(grams) + len(agrams) - inter)
            if j > best:
                best, best_iri = j, airi
        return (best_iri, best) if best >= threshold else (None, best)

    sc = EntityScorer(build_alias_index(alias, 0.6))
    probes = (
        list(alias)[:50]                                  # exact hits
        + ["alice smith", "zzq", "", "dan lee 5", "FRANK MOORE 12",
           "heidi taylor", "bob jones 99", "no such person at all"]
        + ["%s %s %d" % (rng.choice(first), rng.choice(last), i % 41)
           for i in range(60)]                            # near hits
    )
    matched = 0
    for name in probes:
        got = sc.score(name)
        want = linear(alias, name, 0.6)
        # contract: identical (iri, score) for every at-or-above-threshold
        # match; below threshold both must report no match (the unused
        # sub-threshold byproduct score may differ — prefix filtering)
        assert got[0] == want[0], (name, got, want)
        if want[0] is not None:
            matched += 1
            assert abs(got[1] - want[1]) < 1e-12, (name, got, want)
    assert matched >= 50  # the probe set must actually exercise matches


def test_entity_scorer_scales_to_100k_aliases():
    """At a production-sized alias table (100k realistic names) the
    indexed scorer must stay fast: prefix-filtered candidate scoring,
    not a full-table scan per name. Budget is generous (CI noise) but
    a linear scan (~100k x 2k = 2e8 set intersections) would blow it
    by >50x."""
    import random
    import time

    from versa_ray.web.kgpipeline import EntityScorer, build_alias_index

    rng = random.Random(77)
    syll = ["an", "bel", "cor", "dra", "el", "fin", "gor", "hai", "il",
            "jo", "ka", "lu", "mor", "ne", "ol", "pra", "qu", "rin",
            "sa", "tor", "ul", "ve", "wen", "xi", "yo", "zu"]

    def name():
        return "%s %s" % (
            "".join(rng.choice(syll) for _ in range(rng.randint(2, 4))),
            "".join(rng.choice(syll) for _ in range(rng.randint(2, 4))),
        )

    alias = {}
    while len(alias) < 100_000:
        alias.setdefault(name(), "https://a.example/p/%d" % len(alias))
    names = list(alias)

    t0 = time.monotonic()
    sc = EntityScorer(build_alias_index(alias, 0.6))
    build_s = time.monotonic() - t0

    probes = (
        [names[i * 97 % 100_000] for i in range(700)]          # exact hits
        + [names[i * 31 % 100_000] + "x" for i in range(700)]  # near hits
        + [name() + " zz" for _ in range(600)]                 # mostly misses
    )
    t0 = time.monotonic()
    hits = sum(1 for p in probes if sc.score(p)[0] is not None)
    score_s = time.monotonic() - t0
    assert hits >= 1400, hits
    assert build_s < 30, build_s
    assert score_s < 20, score_s


def test_replace_values_ds_rewrites_attr_values(ray_session, shuffle_width):
    """The distributed rewrite must match the broadcast one on ALL
    three surfaces — origin, target, AND entity IRIs appearing as
    attr values (the at-scale semantic fork flagged in round 3)."""
    import ray.data as rd

    from versa_ray.model.linkset import (
        from_links,
        replace_values,
        replace_values_ds,
    )

    e1 = "https://corp.example/ent/1"
    e2 = "https://corp.example/ent/2"
    a1 = "https://authority.example.org/person/1"
    a2 = "https://authority.example.org/person/2"
    links = from_links(
        [
            (e1, "http://bibfra.me/vocab/lite/name", "Alice",
             {"@authority": a1, "seeAlso": e2}),
            (e2, "http://bibfra.me/vocab/lite/name", "Bob",
             {"@authority": a2}),
            ("https://site.example/doc", "http://bibfra.me/vocab/lite/creator",
             e1, {"note": "by " + "someone", "ref": e1}),
            (e2, "http://bibfra.me/vocab/lite/related", e1, None),
            ("https://site.example/doc2", "http://bibfra.me/vocab/lite/title",
             "plain", {"lang": "en"}),
        ]
    )
    mapping = {e1: a1, e2: a2}
    mapping_ds = rd.from_items(
        [{"entity": k, "authority": v} for k, v in mapping.items()]
    )

    key = ["origin", "rel", "target", "attrs"]
    lhs = (
        replace_values(links, mapping)
        .to_pandas()[key]
        .sort_values(key, ignore_index=True)
    )
    shuffle_width(4)
    rhs = (
        replace_values_ds(links, mapping_ds)
        .to_pandas()[key]
        .sort_values(key, ignore_index=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(lhs, rhs)
    # and the rewrite actually touched an attrs value
    assert rhs["attrs"].str.contains(a2.replace("/", "/")).any()
    assert not rhs["attrs"].str.contains("corp.example").any()


def test_entity_scorer_call_annotates_only_hits_vectorized():
    """__call__'s distinct-name-then-annotate-hits path must equal the
    naive per-row loop: identical attrs for hit rows (JSON merged with
    sorted keys), untouched attrs for miss and non-name rows, and an
    unchanged batch object when a batch has no hits at all."""
    import json as _json

    import pyarrow as pa

    from versa_ray.web.kgpipeline import EntityScorer, build_alias_index

    alias = {"alice smith": "https://auth.example.org/p/1",
             "bob jones": "https://auth.example.org/p/2"}
    sc = EntityScorer(build_alias_index(alias, 0.6))
    assert sc.threshold == 0.6  # the index's own threshold
    NAME = sc.NAME_REL

    rows = [
        ("urn:e:1", NAME, "alice smith", "{}"),           # exact hit
        ("urn:e:2", NAME, "no such person whatsoever", "{}"),  # miss
        ("urn:e:3", NAME, "bob jones", '{"a":"b"}'),      # hit, merge
        ("urn:e:4", "urn:other", "alice smith", "{}"),    # non-name rel
        ("urn:e:5", NAME, "alice smith", None),           # repeat mention
    ]
    batch = pa.table({
        "origin": [r[0] for r in rows],
        "rel": [r[1] for r in rows],
        "target": [r[2] for r in rows],
        "attrs": pa.array([r[3] for r in rows], type=pa.string()),
    })
    out = sc(batch).to_pydict()

    def naive(i):
        iri, score = sc.score(rows[i][2])
        if rows[i][1] != NAME or iri is None:
            return rows[i][3]
        d = _json.loads(rows[i][3]) if rows[i][3] and rows[i][3] != "{}" \
            else {}
        d["@authority"] = iri
        d["@link-score"] = "%.3f" % score
        return _json.dumps(d, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)

    assert out["attrs"] == [naive(i) for i in range(len(rows))]
    assert "@authority" in out["attrs"][0]
    assert '"a":"b"' in out["attrs"][2] and "@authority" in out["attrs"][2]
    assert out["attrs"][1] == "{}" and out["attrs"][3] == "{}"

    # a miss-only batch passes through without rebuilding attrs
    miss = pa.table({
        "origin": ["urn:e:9"], "rel": [NAME],
        "target": ["completely unknown human"],
        "attrs": pa.array(["{}"], type=pa.string()),
    })
    assert sc(miss) is miss
