"""Partitioned link-set store: predicate-pruned reads must open only a
file subset, and pruned results must equal a full-scan match."""

import pandas as pd

from versa_ray.model import linkset
from versa_ray.model.store import pruned_fragments, read_linkset, write_linkset

from versa_ray.core import VTYPE_REL

NAME = "http://bibfra.me/vocab/lite/name"
TYPE_ = str(VTYPE_REL)


def _sample_links():
    links = []
    for i in range(40):
        links.append((f"urn:t:{i}", TYPE_, "urn:t:Thing"))
        links.append((f"urn:t:{i}", NAME, f"name {i}"))
        links.append((f"urn:t:{i}", f"urn:rel:{i % 5}", f"v{i}"))
    return links


def test_store_rel_pruning(ray_session, tmp_path):
    path = str(tmp_path / "store")
    ds = linkset.from_links(_sample_links())
    write_linkset(ds, path, num_rel_buckets=8, num_partitions=4)

    all_frags = pruned_fragments(path)
    rel_frags = pruned_fragments(path, rel=NAME)
    # the whole point: a rel-constrained read opens a strict file subset
    assert 0 < len(rel_frags) < len(all_frags)
    assert set(rel_frags) <= set(all_frags)
    assert all("rel_bucket=" in p for p in rel_frags)

    got = read_linkset(path, rel=NAME).to_pandas()
    want = linkset.match(ds, rel=NAME).to_pandas()
    key = ["origin", "rel", "target"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        want[key].sort_values(key).reset_index(drop=True),
    )


def test_store_origin_pruning(ray_session, tmp_path):
    path = str(tmp_path / "store")
    ds = linkset.from_links(_sample_links())
    write_linkset(ds, path, num_rel_buckets=4, num_partitions=8)

    all_frags = pruned_fragments(path)
    o_frags = pruned_fragments(path, origin="urn:t:7")
    assert 0 < len(o_frags) < len(all_frags)

    got = read_linkset(path, origin="urn:t:7").to_pandas()
    assert set(got["origin"]) == {"urn:t:7"}
    assert len(got) == 3

    # combined rel+origin constraint prunes on both axes
    both = pruned_fragments(path, rel=NAME, origin="urn:t:7")
    assert len(both) <= min(len(o_frags), len(pruned_fragments(path, rel=NAME)))
    row = read_linkset(path, origin="urn:t:7", rel=NAME).to_pandas()
    assert len(row) == 1 and row.iloc[0]["target"] == "name 7"


def test_store_unconstrained_roundtrip(ray_session, tmp_path):
    path = str(tmp_path / "store")
    ds = linkset.from_links(_sample_links())
    write_linkset(ds, path)
    back = read_linkset(path)
    assert back.count() == ds.count()
    assert set(back.schema().names) == set(linkset.QUAD_COLS)


def test_distinct_dataset_forms(ray_session):
    """Dataset-returning distinct forms agree with the driver-side
    list forms (which remain for small results)."""
    ds = linkset.from_links(_sample_links())
    want_origins = set(linkset.all_origins(ds)["origin"])
    got_origins = {r["origin"] for r in linkset.all_origins_ds(ds).take_all()}
    assert got_origins == want_origins

    want_rels = set(linkset.column_values(ds, "rel")["rel"])
    got_rels = {r["rel"] for r in linkset.column_values_ds(ds, "rel").take_all()}
    assert got_rels == want_rels

    typed = {r["origin"] for r in
             linkset.all_origins_ds(ds, of_types={"urn:t:Thing"}).take_all()}
    assert typed == want_origins  # every origin is typed Thing


def test_update_linkset_incremental(ray_session, tmp_path):
    """Incremental add: duplicate-refusing merge touches ONLY the
    partitions the new links hash into, rewriting each as exactly one
    live file however many blocks the delta arrives in; other
    partition files are byte-identical afterwards."""
    import glob
    import hashlib
    import os
    from collections import Counter

    from versa_ray.model.store import update_linkset

    path = str(tmp_path / "store")
    base = _sample_links()
    write_linkset(linkset.from_links(base), path,
                  num_rel_buckets=8, num_partitions=8)
    n_base = read_linkset(path).count()

    def _digest_all():
        out = {}
        for f in glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True):
            out[f] = hashlib.md5(open(f, "rb").read()).hexdigest()
        return out

    before = _digest_all()

    # delta: some exact duplicates of base + a few new links for ONE origin
    delta = base[:5] + [("urn:t:7", NAME, "second name"),
                        ("urn:t:new", TYPE_, "urn:t:Thing")]
    stats = update_linkset(path, linkset.from_links(delta).repartition(3))
    assert stats["partitions_updated"] < 64  # strict subset of R x P
    live = Counter(os.path.dirname(f) for f in pruned_fragments(path))
    assert max(live.values()) == 1
    # dup-refusal: only the 2 genuinely new links appear
    assert stats["rows_after"] == n_base + 2
    assert read_linkset(path).count() == n_base + 2

    # untouched partitions byte-identical
    after = _digest_all()
    tagged = set()
    for f, h in before.items():
        if f in after and after[f] == h:
            tagged.add(f)
    changed_dirs = {os.path.dirname(f) for f in set(before) - tagged}
    unchanged_dirs = {os.path.dirname(f) for f in tagged}
    assert unchanged_dirs, "some partitions must remain untouched"
    assert changed_dirs.isdisjoint(unchanged_dirs)

    # the new links are retrievable through the pruned read path
    row = read_linkset(path, origin="urn:t:7", rel=NAME).to_pandas()
    assert set(row["target"]) == {"name 7", "second name"}


def test_write_linkset_drops_duplicate_quads(ray_session, tmp_path):
    """write_linkset takes non-distinct input: each quad is stored once
    and keeps its minimum src_url, exactly as distinct_links keeps it."""
    path = str(tmp_path / "store")
    base = _sample_links()
    ds = linkset.from_links(base, extra_cols={"src_url": "https://s/2"}).union(
        linkset.from_links(base[:30], extra_cols={"src_url": "https://s/1"}),
        linkset.from_links(base[:10], extra_cols={"src_url": "https://s/3"}),
    ).repartition(5)
    write_linkset(ds, path, num_rel_buckets=4, num_partitions=4)

    got = read_linkset(path).to_pandas()
    assert len(got) == len(base)
    assert not got.duplicated(subset=linkset.QUAD_COLS).any()
    key = ["origin", "rel", "target"]
    src = dict(zip(map(tuple, got[key].to_numpy()), got["src_url"]))
    assert src == {
        (o, r, t): "https://s/1" if i < 30 else "https://s/2"
        for i, (o, r, t) in enumerate(base)
    }
    ref = linkset.distinct_links(ds).to_pandas()
    assert src == dict(zip(map(tuple, ref[key].to_numpy()), ref["src_url"]))


def test_compact_linkset(ray_session, tmp_path):
    """Compaction rewrites ONLY over-threshold partitions down to one
    file each with identical contents. Commits write one file per
    partition, so the fragmented store is built by hand: a manifest
    that lists two files for one partition, as older updaters (one
    file per input block) left behind."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from versa_ray.core.canon import LINK_SCHEMA, link_to_row
    from versa_ray.model.store import (
        _commit_epoch, _current_epoch, _file_entry, _load_manifest,
        compact_linkset)

    path = str(tmp_path / "store")
    base = _sample_links()
    write_linkset(linkset.from_links(base), path,
                  num_rel_buckets=4, num_partitions=4)
    # a second live file in urn:t:7's name partition -> fragmented
    [part_file] = pruned_fragments(path, origin="urn:t:7", rel=NAME)
    extra = os.path.join(os.path.dirname(part_file), "extra.parquet")
    pq.write_table(pa.Table.from_pylist(
        [link_to_row("urn:t:7", NAME, t) for t in ("extra one", "extra two")],
        schema=LINK_SCHEMA), extra)
    ep = _current_epoch(path)
    _commit_epoch(path, ep + 1, _load_manifest(path, ep)["files"]
                  + [_file_entry(path, extra)])

    before_rows = (
        read_linkset(path).to_pandas()
        .sort_values(["origin", "rel", "target"]).reset_index(drop=True)
    )
    # LIVE files (current epoch manifest) — the on-disk glob also sees
    # older epochs' files, which are snapshots, not fragmentation
    n_files = len(pruned_fragments(path))
    stats = compact_linkset(path, max_files=1)
    assert stats["partitions_compacted"] >= 1
    assert stats["files_after"] < stats["files_before"] == n_files

    # every partition now holds at most one LIVE file (previous-epoch
    # snapshot files may remain on disk until a deeper vacuum)
    from collections import Counter

    per_part = Counter(os.path.dirname(f) for f in pruned_fragments(path))
    assert per_part and max(per_part.values()) <= 1

    after_rows = (
        read_linkset(path).to_pandas()
        .sort_values(["origin", "rel", "target"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(before_rows, after_rows)

    # idempotent: a second compact is a no-op
    stats2 = compact_linkset(path, max_files=1)
    assert stats2["partitions_compacted"] == 0

    # pruned reads still work against the compacted layout
    row = read_linkset(path, origin="urn:t:7", rel=NAME).to_pandas()
    assert {"extra one", "extra two"} <= set(row["target"])


def test_store_epochs_snapshot_and_vacuum(ray_session, tmp_path):
    """The epoch protocol: an update publishes atomically via the
    pointer flip, the PREVIOUS epoch stays readable (time travel), a
    reader's resolved file list is undisturbed by a concurrent
    commit, and vacuum reclaims only unreferenced files."""
    import glob
    import os

    from versa_ray.model.store import (
        _current_epoch, pruned_fragments, update_linkset, vacuum_linkset)

    path = str(tmp_path / "store")
    base = _sample_links()
    write_linkset(linkset.from_links(base), path,
                  num_rel_buckets=4, num_partitions=4)
    assert _current_epoch(path) == 1
    n1 = read_linkset(path).count()

    # a reader resolves epoch-1 files, then a writer commits epoch 2
    snapshot_files = pruned_fragments(path, epoch=1)
    update_linkset(path, linkset.from_links(
        [("urn:t:7", NAME, "epoch-two link")]))
    assert _current_epoch(path) == 2
    assert read_linkset(path).count() == n1 + 1
    # the snapshot's exact files still exist and still read to n1 rows
    assert all(os.path.exists(f) for f in snapshot_files)
    assert read_linkset(path, epoch=1).count() == n1
    old_rows = read_linkset(path, epoch=1).to_pandas()
    assert "epoch-two link" not in set(old_rows["target"])

    # vacuum keep_epochs=1 drops epoch 1's replaced files + manifest
    on_disk_before = len(glob.glob(
        os.path.join(path, "**", "*.parquet"), recursive=True))
    stats = vacuum_linkset(path, keep_epochs=1)
    assert stats["files_removed"] >= 1
    assert stats["manifests_removed"] == 1
    on_disk_after = len(glob.glob(
        os.path.join(path, "**", "*.parquet"), recursive=True))
    assert on_disk_after == on_disk_before - stats["files_removed"]
    # current epoch unaffected
    assert read_linkset(path).count() == n1 + 1
    row = read_linkset(path, origin="urn:t:7", rel=NAME).to_pandas()
    assert "epoch-two link" in set(row["target"])


def test_remove_statements(ray_session):
    """Distributed remove = anti-join on the quad key (driver remove
    verb, memory.py:231-243 semantics at Dataset scale)."""
    links = _sample_links()
    ds = linkset.from_links(links)
    victims = [links[0], links[5], ("urn:t:absent", NAME, "nope")]
    out = linkset.remove_statements(ds, victims)
    assert out.count() == len(links) - 2
    remaining = {(r["origin"], r["rel"], r["target"]) for r in out.take_all()}
    assert (links[0][0], links[0][1], links[0][2]) not in remaining
    assert (links[5][0], links[5][1], links[5][2]) not in remaining


def test_intersect_statements(ray_session):
    """Distributed statement intersection: full-quad equality, both
    sides Datasets, duplicates collapse, schema dtypes preserved."""
    links = _sample_links()
    a = linkset.from_links(links[:8] + links[:2])      # dup rows in a
    b = linkset.from_links(links[4:])
    out = linkset.intersect_statements(a, b).to_pandas()
    want = {(l[0], l[1], l[2]) for l in links[4:8]}
    got = set(map(tuple, out[["origin", "rel", "target"]].itertuples(
        index=False)))
    assert got == want and len(out) == len(want)
    assert out["target_is_iri"].dtype == bool
    # disjoint sets intersect empty
    empty = linkset.intersect_statements(
        linkset.from_links(links[:2]), linkset.from_links(links[5:7])
    )
    assert empty.count() == 0


def test_partition_metrics(ray_session, tmp_path):
    """Per-partition metrics come from Parquet footers only and must
    account for every row; the write-time manifest records them."""
    import json
    import os

    from versa_ray.model.store import partition_metrics

    path = str(tmp_path / "store")
    ds = linkset.from_links(_sample_links())
    write_linkset(ds, path, num_rel_buckets=4, num_partitions=4)
    metrics = partition_metrics(path)
    assert sum(m["rows"] for m in metrics) == ds.count()
    meta = json.load(open(os.path.join(path, "_linkset_meta.json")))
    assert meta["partitions"] == metrics


def test_read_linkset_column_pruning(ray_session, tmp_path):
    path = str(tmp_path / "store")
    write_linkset(linkset.from_links(_sample_links()), path)
    out = read_linkset(path, rel=NAME, columns=["origin", "target"])
    assert set(out.schema().names) == {"origin", "target"}
    assert out.count() == 40


def test_update_linkset_schema_alignment(ray_session, tmp_path):
    """A delta without the store's lineage columns merges cleanly
    (null-filled), and vice versa."""
    from versa_ray.model.store import update_linkset

    path = str(tmp_path / "store")
    base = linkset.from_links(_sample_links(), extra_cols={"src_url": "https://s/1"})
    write_linkset(base, path)
    delta = linkset.from_links([("urn:t:new", TYPE_, "urn:t:Thing")])
    stats = update_linkset(path, delta)
    assert stats["rows_after"] == 121
    back = read_linkset(path)
    assert "src_url" in back.schema().names
    row = back.to_pandas()
    assert row[row.origin == "urn:t:new"]["src_url"].isna().all()


def test_update_linkset_null_lineage_keeps_declared_types(
        ray_session, tmp_path):
    """A delta whose lineage column is all null commits with the
    store's declared column types, and no store file carries pandas
    schema metadata."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from versa_ray.model.store import update_linkset

    path = str(tmp_path / "store")
    write_linkset(
        linkset.from_links(_sample_links(), extra_cols={"stage": "extracted"}),
        path)
    delta = pd.DataFrame({
        "origin": ["urn:t:new", "urn:t:1"], "rel": [TYPE_, NAME],
        "target": ["urn:t:Thing", "another name"],
        "target_is_iri": [True, False], "attrs": ["{}", "{}"],
        "stage": [None, None]})
    import ray.data as rd

    update_linkset(path, rd.from_pandas(delta))
    files = pruned_fragments(path)
    assert files
    for f in files:
        sch = pq.read_schema(f)
        assert sch.field("stage").type == pa.string()
        assert not (sch.metadata or {}).get(b"pandas")
    back = read_linkset(path)
    sch = back.schema().base_schema
    assert sch.field("stage").type == pa.string()
    assert sch.field("target_is_iri").type == pa.bool_()
    assert sch.field("origin").type == pa.string()
    rows = back.to_pandas()
    assert rows[rows.origin == "urn:t:new"]["stage"].isna().all()
    assert len(rows) == 122


def test_write_ntriples_ds_roundtrip(ray_session, tmp_path):
    """Distributed NT sink round-trips through the NT parser."""
    import glob

    from versa_ray.model.linkset import write_ntriples_ds
    from versa_ray.serial.ntriples import parse_links

    links = [l for l in _sample_links() if l[1] != TYPE_]
    ds = linkset.from_links(links)
    out = str(tmp_path / "nt")
    files = write_ntriples_ds(ds, out)
    assert files and all(f.endswith(".nt") for f in files)
    got = set()
    for f in glob.glob(out + "/*.nt"):
        for o, r, t, a in parse_links(open(f).read()):
            got.add((str(o), str(r), str(t)))
    assert got == {(o, r, t) for (o, r, t) in links}


def test_write_jsonld_ds(ray_session, tmp_path):
    """Distributed flat JSON-LD sink: one node per origin, IRI targets
    as @id refs, types collected."""
    import glob
    import json

    from versa_ray.model.linkset import write_jsonld_ds

    ds = linkset.from_links(_sample_links())
    out = str(tmp_path / "jsonld")
    write_jsonld_ds(ds, out, context={"@vocab": "http://bibfra.me/vocab/lite/"})
    nodes = {}
    for f in glob.glob(out + "/*.jsonld"):
        doc = json.load(open(f))
        assert doc["@context"]["@vocab"].startswith("http://")
        for n in doc["@graph"]:
            nodes[n["@id"]] = n
    assert len(nodes) == 40
    n7 = nodes["urn:t:7"]
    assert n7["@type"] == ["urn:t:Thing"]
    assert n7[NAME] == "name 7"


def test_read_literate_ds(ray_session, tmp_path):
    """Distributed literate ingestion parses each file doc-locally and
    matches the driver-side parser link for link."""
    from versa_ray.serial.literate import parse, read_literate_ds

    docs = {}
    for i in range(6):
        text = (
            f"# urn:d:{i} [<urn:d:Doc>]\n\n"
            f"* <{NAME}>: doc number {i}\n\n"
        )
        p = tmp_path / f"doc{i}.vlit"
        p.write_text(text)
        docs[str(p)] = text

    ds = read_literate_ds(str(tmp_path))
    rows = ds.take_all()
    assert len(rows) == 12  # 2 links per doc
    assert {r["src_doc"] for r in rows} == set(docs)
    want = set()
    for text in docs.values():
        for o, r, t, a in parse(text).match():
            want.add((o, r, str(t)))
    got = {(r["origin"], r["rel"], r["target"]) for r in rows}
    assert got == want


def test_write_csv_ds(ray_session, tmp_path):
    """Distributed CSV projection matches the driver-side writer's row
    semantics (multi-values joined with '|', typeless rows dropped)."""
    import csv
    import glob

    from versa_ray.model.linkset import write_csv_ds

    links = _sample_links() + [("urn:t:7", NAME, "alt name"),
                               ("urn:untyped", NAME, "no type here")]
    ds = linkset.from_links(links)
    out = str(tmp_path / "csv")
    write_csv_ds(ds, out, [(NAME, "name")])
    rows = {}
    for f in glob.glob(out + "/*.csv"):
        with open(f) as fp:
            r = csv.reader(fp)
            header = next(r)
            assert header == ["id", "type", "name"]
            for row in r:
                rows[row[0]] = row
    assert "urn:untyped" not in rows  # typeless dropped
    assert len(rows) == 40
    assert rows["urn:t:7"][1] == "urn:t:Thing"
    assert set(rows["urn:t:7"][2].split("|")) == {"name 7", "alt name"}


def test_read_ntriples_ds(ray_session, tmp_path):
    """Distributed NT ingestion matches the driver-side parser,
    including rel filters."""
    from versa_ray.model.linkset import write_ntriples_ds
    from versa_ray.serial.ntriples import read_ntriples_ds

    links = [l for l in _sample_links() if l[1] != TYPE_]
    out = str(tmp_path / "nt")
    write_ntriples_ds(linkset.from_links(links), out)

    back = read_ntriples_ds(out)
    got = {(r["origin"], r["rel"], r["target"]) for r in back.take_all()}
    assert got == set(links)

    only_name = read_ntriples_ds(out, only_rel={NAME})
    assert only_name.count() == 40
    no_name = read_ntriples_ds(out, exclude_rel={NAME})
    assert no_name.count() == len(links) - 40


def test_store_rel_set_pruning(ray_session, tmp_path):
    """A rel SET prunes to the union of the rels' hash buckets."""
    path = str(tmp_path / "store")
    ds = linkset.from_links(_sample_links())
    write_linkset(ds, path, num_rel_buckets=8, num_partitions=4)
    both = read_linkset(path, rel={NAME, TYPE_}).to_pandas()
    assert set(both["rel"]) == {NAME, TYPE_}
    assert len(both) == 80
    frags = pruned_fragments(path, rel={NAME, TYPE_})
    assert 0 < len(frags) < len(pruned_fragments(path))


def test_sink_custom_filesystem(ray_session, tmp_path):
    """Text sinks route shard writes through a pyarrow FileSystem, so a
    non-local-path target (here a SubTreeFileSystem rooted elsewhere)
    receives every shard — the multi-node contract."""
    import glob

    import pyarrow.fs as pafs

    from versa_ray.model.linkset import write_ntriples_ds, write_literate_ds
    from versa_ray.serial.ntriples import parse_links

    links = [l for l in _sample_links() if l[1] != TYPE_]
    ds = linkset.from_links(links)
    subfs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())

    files = write_ntriples_ds(ds, "nt_sub", filesystem=subfs)
    assert files and not any(f.startswith("/") for f in files)
    got = set()
    for f in glob.glob(str(tmp_path / "nt_sub" / "*.nt")):
        for o, r, t, a in parse_links(open(f).read()):
            got.add((str(o), str(r), str(t)))
    assert got == {(o, r, t) for (o, r, t) in links}

    write_literate_ds(linkset.from_links(_sample_links()), "vlit_sub", filesystem=subfs)
    assert glob.glob(str(tmp_path / "vlit_sub" / "*.vlit"))


def test_literate_ds_escaping(ray_session, tmp_path):
    """Distributed literate sink escapes backslash/quote the same way
    the driver-side writer does, so pathological targets round-trip."""
    from versa_ray.model.linkset import write_literate_ds
    from versa_ray.serial.literate import parse

    links = [
        ("urn:t:1", NAME, 'tricky \\ back "quoted"'),
        ("urn:t:1", TYPE_, "urn:t:Thing"),
        ("urn:t:2", NAME, "ends with backslash\\"),
    ]
    out = str(tmp_path / "vlit")
    files = write_literate_ds(linkset.from_links(links), out)
    text = "".join(open(f).read() for f in files)
    got = {(str(o), str(r), str(t)) for (o, r, t, a) in parse(text).match()}
    assert got == {(o, r, t) for (o, r, t) in links}


def test_read_ntriples_ds_distinct_and_disjoint(ray_session, tmp_path):
    """distinct=True dedups triples across batch boundaries; disjoint
    drops listed links at parse time."""
    from versa_ray.serial.ntriples import read_ntriples_ds

    line = f'<urn:t:1> <{NAME}> "dup" .\n'
    # two files -> separate read tasks -> the dup straddles batches
    (tmp_path / "a.nt").write_text(line * 3 + f'<urn:t:2> <{NAME}> "x" .\n')
    (tmp_path / "b.nt").write_text(line)

    raw = read_ntriples_ds(str(tmp_path))
    # per-batch dedup only: cross-batch dups survive the raw read
    assert 2 < raw.count() <= 5
    dedup = read_ntriples_ds(str(tmp_path), distinct=True)
    assert dedup.count() == 2

    disj = read_ntriples_ds(
        str(tmp_path), disjoint={("urn:t:1", NAME, "dup", ())}
    )
    assert {r["origin"] for r in disj.take_all()} == {"urn:t:2"}


def test_sink_relative_path(ray_session, tmp_path, monkeypatch):
    """Plain relative output paths work (FileSystem.from_uri rejects
    them; the sink absolutizes first)."""
    import glob

    from versa_ray.model.linkset import write_ntriples_ds

    monkeypatch.chdir(tmp_path)
    links = [l for l in _sample_links() if l[1] != TYPE_][:6]
    files = write_ntriples_ds(linkset.from_links(links), "rel_out")
    assert files and glob.glob(str(tmp_path / "rel_out" / "*.nt"))


def test_transitive_closure_ds_converges_at_cap(ray_session):
    """A frontier that quiesces exactly at max_iters must NOT raise;
    a genuinely deeper chain must."""
    import pytest as _pytest

    from versa_ray.core import I

    REL = "urn:r:next"
    chain = [("urn:n:0", REL, I("urn:n:1"))]
    ds = linkset.from_links(chain)
    out = linkset.transitive_closure_ds(ds, {"urn:n:0"}, REL, max_iters=2)
    assert {r["node"] for r in out.take_all()} == {"urn:n:1"}

    deep = [(f"urn:n:{i}", REL, I(f"urn:n:{i+1}")) for i in range(6)]
    ds2 = linkset.from_links(deep)
    with _pytest.raises(RuntimeError, match="did not converge"):
        linkset.transitive_closure_ds(ds2, {"urn:n:0"}, REL, max_iters=2)


def test_recover_staging_after_crash(ray_session, tmp_path):
    """A hard crash between the two swap renames parks the partition
    in the staging dir; the recovery sweep on the next read restores
    it and clears the stale staging."""
    import os

    from versa_ray.model.store import _recover_staging

    import glob

    path = str(tmp_path / "store")
    write_linkset(linkset.from_links(_sample_links()), path,
                  num_rel_buckets=4, num_partitions=4)
    # the dir-swap crash window only exists on LEGACY stores —
    # manifest stores commit additively and never park partitions in
    # trash; strip the manifests to simulate a legacy store
    for f in glob.glob(os.path.join(path, "_epoch.json")) + glob.glob(
            os.path.join(path, "_manifest-*.json")):
        os.remove(f)
    n_all = read_linkset(path).count()

    # simulate the crash window: one partition renamed into a staging
    # trash slot, target missing, process gone
    part = None
    for rb_dir in sorted(os.listdir(path)):
        if rb_dir.startswith("rel_bucket="):
            for p_dir in sorted(os.listdir(os.path.join(path, rb_dir))):
                if p_dir.startswith("part_id="):
                    part = (rb_dir, p_dir)
                    break
        if part:
            break
    rb = part[0].split("=")[1]
    pid = part[1].split("=")[1]
    staging = os.path.join(path, ".staging-deadbeef")
    os.makedirs(staging)
    os.rename(os.path.join(path, *part),
              os.path.join(staging, f"trash-{rb}-{pid}"))

    assert read_linkset(path).count() == n_all  # sweep restored it
    assert not os.path.isdir(staging)

    # idempotent on a clean store
    _recover_staging(path)
    assert read_linkset(path).count() == n_all


def test_store_randomized_update_replay(ray_session, tmp_path):
    """Seeded randomized torture: a chain of overlapping deltas
    applied via update_linkset must keep the store row-set equal to a
    driver-side reference set after EVERY step, across an interleaved
    compact and a final vacuum."""
    import random

    from versa_ray.model.store import (
        compact_linkset, update_linkset, vacuum_linkset)

    rng = random.Random(23)
    path = str(tmp_path / "store")

    def _mklinks(n, tag):
        return [
            (f"urn:r:{rng.randrange(30)}",
             f"urn:rel:{rng.randrange(4)}",
             f"{tag}-{rng.randrange(50)}")
            for _ in range(n)
        ]

    base = _mklinks(60, "v")
    write_linkset(linkset.from_links(base), path,
                  num_rel_buckets=4, num_partitions=4)
    ref = {(o, r, t) for o, r, t in base}

    for step in range(5):
        delta = _mklinks(rng.randrange(1, 25), "v")
        update_linkset(path, linkset.from_links(delta))
        ref |= {(o, r, t) for o, r, t in delta}
        got = {
            (r_.origin, r_.rel, r_.target)
            for r_ in read_linkset(path).to_pandas().itertuples()
        }
        assert got == ref, f"divergence after step {step}"
        if step == 2:
            compact_linkset(path, max_files=1)
            got = {
                (r_.origin, r_.rel, r_.target)
                for r_ in read_linkset(path).to_pandas().itertuples()
            }
            assert got == ref, "divergence after compact"

    vacuum_linkset(path, keep_epochs=1)
    got = {
        (r_.origin, r_.rel, r_.target)
        for r_ in read_linkset(path).to_pandas().itertuples()
    }
    assert got == ref


def test_writer_claim_refuses_concurrent_and_breaks_stale(
        ray_session, tmp_path):
    """Multi-writer fence: a second writer gets a CLEAN
    StoreWriteConflict while the claim is held, serializes after
    release, and can break a hard-crashed writer's stale claim via
    claim_ttl."""
    import json
    import os
    import time

    import pytest

    from versa_ray.model.store import (
        StoreWriteConflict, _CLAIM_NAME, _writer_claim, update_linkset,
        write_linkset)

    path = str(tmp_path / "store")
    write_linkset(linkset.from_links(_sample_links()), path,
                  num_rel_buckets=4, num_partitions=4)
    delta = [("urn:t:extra", TYPE_, "urn:t:Thing")]

    with _writer_claim(path):  # writer A holds the store
        with pytest.raises(StoreWriteConflict):
            update_linkset(path, linkset.from_links(delta))
        with pytest.raises(StoreWriteConflict):
            from versa_ray.model.store import compact_linkset

            compact_linkset(path)
        with pytest.raises(StoreWriteConflict):
            # vacuum is fenced too: an unfenced vacuum would delete a
            # concurrent writer's adopted-but-uncommitted files (they
            # are referenced by no manifest yet)
            from versa_ray.model.store import vacuum_linkset

            vacuum_linkset(path)
    # A released -> B serializes cleanly
    stats = update_linkset(path, linkset.from_links(delta))
    assert stats["partitions_updated"] >= 1

    # hard-crashed writer: stale claim left behind; ttl breaks it
    with open(os.path.join(path, _CLAIM_NAME), "w") as f:
        json.dump({"pid": 0, "ts": time.time() - 3600, "token": "dead"}, f)
    with pytest.raises(StoreWriteConflict):  # no ttl -> clean refusal
        update_linkset(path, linkset.from_links(delta))
    stats = update_linkset(
        path, linkset.from_links([("urn:t:extra2", TYPE_, "urn:t:Thing")]),
        claim_ttl=60)
    assert stats["partitions_updated"] >= 1
    assert not os.path.exists(os.path.join(path, _CLAIM_NAME))

    # writer died between claim create and payload write: the empty
    # claim is unparseable, so the ttl must age it by file mtime
    claim = os.path.join(path, _CLAIM_NAME)
    open(claim, "w").close()
    os.utime(claim, (time.time() - 3600, time.time() - 3600))
    with pytest.raises(StoreWriteConflict):  # no ttl -> clean refusal
        update_linkset(path, linkset.from_links(delta))
    stats = update_linkset(
        path, linkset.from_links([("urn:t:extra3", TYPE_, "urn:t:Thing")]),
        claim_ttl=60)
    assert stats["partitions_updated"] >= 1
    assert not os.path.exists(claim)


def test_two_interleaved_writers_serialize_with_retry(
        ray_session, tmp_path):
    """Two genuinely concurrent update_linkset writers: every failure
    is the clean StoreWriteConflict, and retrying losers serializes —
    the final store holds BOTH deltas exactly once."""
    import threading
    import time

    from versa_ray.model.store import StoreWriteConflict, update_linkset

    path = str(tmp_path / "store")
    write_linkset(linkset.from_links(_sample_links()), path,
                  num_rel_buckets=4, num_partitions=4)

    deltas = {
        "a": [(f"urn:w:a{i}", TYPE_, "urn:t:Thing") for i in range(5)],
        "b": [(f"urn:w:b{i}", TYPE_, "urn:t:Thing") for i in range(5)],
    }
    errors = []

    def _writer(name):
        ds = linkset.from_links(deltas[name])
        for _ in range(60):
            try:
                update_linkset(path, ds)
                return
            except StoreWriteConflict:
                time.sleep(0.2)
            except Exception as e:  # anything else is a fence failure
                errors.append((name, e))
                return
        errors.append((name, "never acquired the claim"))

    threads = [threading.Thread(target=_writer, args=(n,)) for n in deltas]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    final = read_linkset(path).to_pandas()
    got = set(final[final.origin.str.startswith("urn:w:")]["origin"])
    assert got == {f"urn:w:{n}{i}" for n in ("a", "b") for i in range(5)}
    # dup-refusing add held through the interleave
    assert final.duplicated(["origin", "rel", "target"]).sum() == 0
