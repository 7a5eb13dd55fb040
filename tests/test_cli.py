"""CLI: parse/convert, rulespec transform (reference tools/exec/versa
contract), canonicalize."""

import json
import subprocess
import sys


VLIT = """\
# @docheader

* @iri:
    * @base: http://example.org/classics/
    * @schema: https://schema.org/

# catcher [Book]

* name: The Catcher in the Rye
* isbn: 0316769487

"""

RULESPEC = """\
SCH = I('https://schema.org/')
BF = I('http://bibfra.me/')

FINGERPRINT_RULES = {
    SCH('Book'): materialize(BF('Instance'),
        fprint=[(BF('isbn'), follow(SCH('isbn')))])
}
TRANSFORM_RULES = {SCH('name'): link(rel=BF('name'))}
LABELIZE_RULES = {BF('Instance'): follow(BF('name'))}

VERSA_PIPELINE_ENTRY = generic_pipeline(
    FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
"""


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "versa_ray.cli"] + args,
        capture_output=True, text=True, cwd="/root/repo",
    )


def test_parse_roundtrip(tmp_path):
    src = tmp_path / "in.vlit"
    src.write_text(VLIT)
    out_nt = tmp_path / "out.nt"
    r = _run(["parse", str(src), str(out_nt)])
    assert r.returncode == 0, r.stderr
    nt = out_nt.read_text()
    assert "<https://schema.org/isbn>" in nt
    # to parquet and back
    out_pq = tmp_path / "out.parquet"
    assert _run(["parse", str(src), str(out_pq)]).returncode == 0
    r = _run(["parse", str(out_pq), "-"])
    assert r.returncode == 0 and "isbn" in r.stdout


def test_transform_rulespec(tmp_path):
    src = tmp_path / "in.vlit"
    src.write_text(VLIT)
    spec = tmp_path / "rules.py"
    spec.write_text(RULESPEC)
    r = _run(["transform", str(spec), str(src), "-"])
    assert r.returncode == 0, r.stderr
    assert "bibfra.me/name" in r.stdout
    assert "The Catcher in the Rye" in r.stdout


def test_canonicalize(tmp_path):
    src = tmp_path / "in.vlit"
    src.write_text(VLIT)
    r = _run(["canonicalize", str(src), "-"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc) == 3  # type + name + isbn
    assert doc[0][3].get("@target-type") == "@iri-ref" or isinstance(doc[0][3], dict)


RULESPEC_STRTEST = """\
SCH = I('https://schema.org/')
BF = I('http://bibfra.me/')

FINGERPRINT_RULES = {
    SCH('Book'): materialize(BF('Instance'),
        fprint=[(BF('isbn'), follow(SCH('isbn')))])
}
# reference-style string test (safe expression subset, not eval)
TRANSFORM_RULES = {
    SCH('name'): if_("target.startswith('The ')", link(rel=BF('name'))),
    SCH('isbn'): if_("target == '0000000000'", link(rel=BF('bad')),
                     link(rel=BF('isbn'))),
}
LABELIZE_RULES = {BF('Instance'): follow(BF('name'))}

VERSA_PIPELINE_ENTRY = generic_pipeline(
    FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
"""


def test_transform_rulespec_string_test(tmp_path):
    """A ported reference rulespec using if_ string tests runs under
    cli transform via the safe expression subset."""
    src = tmp_path / "in.vlit"
    src.write_text(VLIT)
    spec = tmp_path / "rules.py"
    spec.write_text(RULESPEC_STRTEST)
    r = _run(["transform", str(spec), str(src), "-"])
    assert r.returncode == 0, r.stderr
    assert "The Catcher in the Rye" in r.stdout
    assert "bibfra.me/isbn" in r.stdout
    assert "bibfra.me/bad" not in r.stdout


def test_kgmatch_cli(tmp_path):
    """kgmatch drives the pruned stored-KG read from the CLI."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import sys

    # build a tiny page corpus + store via the library (one Ray session
    # inside each CLI subprocess)
    pages = tmp_path / "pages.parquet"
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, '/root/repo'); "
         "from versa_ray.web.synth import write_pages; "
         f"write_pages({str(pages)!r}, 40)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    out_dir = tmp_path / "kg"
    r = _run(["kgbuild", str(pages), str(out_dir)])
    assert r.returncode == 0, r.stderr
    r = _run(["kgmatch", str(out_dir / "stage=linkset"),
              "--rel", "http://bibfra.me/vocab/lite/name", "--limit", "3"])
    assert r.returncode == 0, r.stderr
    assert "<http://bibfra.me/vocab/lite/name>" in r.stdout
    # the footer proves a strict file subset was read
    import re as _re

    m = _re.search(r"read (\d+)/(\d+) partition files", r.stdout)
    assert m and int(m.group(1)) < int(m.group(2))
    # with no row limit (--limit 0) the footer's count is the number of
    # rows printed: both come from one materialized read
    r = _run(["kgmatch", str(out_dir / "stage=linkset"),
              "--rel", "http://bibfra.me/vocab/lite/name", "--limit", "0"])
    assert r.returncode == 0, r.stderr
    printed = [ln for ln in r.stdout.splitlines()
               if ln.strip() and not ln.startswith("#")]
    m = _re.search(r"^# (\d+) links;", r.stdout, _re.M)
    assert printed and m and int(m.group(1)) == len(printed)


def test_validate_cli(tmp_path):
    """validate runs SHACL-lite shape checks from the CLI."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    links = tmp_path / "links.parquet"
    pq.write_table(
        pa.table(
            {
                "origin": ["urn:x:1", "urn:x:1", "urn:x:2"],
                "rel": ["http://bibfra.me/purl/versa/type",
                        "http://ex.org/name",
                        "http://bibfra.me/purl/versa/type"],
                "target": ["urn:x:Thing", "n1", "urn:x:Thing"],
                "target_is_iri": [True, False, True],
                "attrs": ["{}"] * 3,
            }
        ),
        links,
    )
    shapes = tmp_path / "shapes.json"
    shapes.write_text(json.dumps(
        [{"target_type": "urn:x:Thing", "property": "http://ex.org/name",
          "min": 1}]))
    r = _run(["validate", str(links), str(shapes)])
    assert r.returncode == 0, r.stderr
    assert "missing\turn:x:2" in r.stdout
    assert "# 1 violations" in r.stdout


def test_corpusstats_cli():
    """corpusstats prints one JSON line with counts, dup rate, lang
    distribution and length quantiles."""
    r = _run(["corpusstats", "/root/testdata/sf0.001/documents.parquet"])
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["docs"] == 500 and rep["distinct_texts"] <= 500
    assert set(rep["lang_counts"]) >= {"en", "de"}
    assert sum(rep["lang_counts"].values()) == 500
    q = rep["n_chars_quantiles"]
    assert q["0.1"] <= q["0.5"] <= q["0.9"] <= q["0.99"]


def test_pack_cli(tmp_path):
    """pack writes (doc, seq) span parquet; totals conserve the
    corpus token count and interior sequences are full."""
    import duckdb

    out = tmp_path / "packed"
    r = _run(
        ["pack", "/root/testdata/sf0.001/documents.parquet", str(out),
         "--seq-len", "256", "--num-ranges", "4"]
    )
    assert r.returncode == 0, r.stderr
    assert "packed spans:" in r.stdout
    con = duckdb.connect()
    tot, nseq = con.execute(
        f"SELECT SUM(n_tokens), MAX(seq_id) + 1 FROM "
        f"read_parquet('{out}/*.parquet')"
    ).fetchone()
    want = con.execute(
        "SELECT SUM(CASE WHEN trim(text) = '' THEN 0 ELSE "
        "len(regexp_split_to_array(trim(text), '\\s+')) END) FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    ).fetchone()[0]
    assert int(tot) == int(want)
    assert int(nseq) == -(-int(want) // 256)  # ceil division


def test_kgcompact_cli(tmp_path):
    """kgcompact reports and performs store compaction from the CLI."""
    import sys

    store = tmp_path / "store"
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, '/root/repo'); "
         "import ray; ray.init(address='local', num_cpus=4, "
         "include_dashboard=False, logging_level='ERROR'); "
         "from versa_ray.model import linkset; "
         "from versa_ray.model.store import write_linkset, update_linkset; "
         "links = [(f'urn:t:{i}', 'http://ex.org/name', f'n{i}') "
         "for i in range(20)]; "
         f"write_linkset(linkset.from_links(links), {str(store)!r}, "
         "num_rel_buckets=2, num_partitions=2); "
         f"update_linkset({str(store)!r}, "
         "linkset.from_links([('urn:t:1', 'http://ex.org/name', 'extra')])); "
         "ray.shutdown()"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    r = _run(["kgcompact", str(store)])
    assert r.returncode == 0, r.stderr
    assert "compacted" in r.stdout and "-> " in r.stdout
    # epoch GC: vacuum to the newest epoch reclaims the pre-compact
    # snapshot (the store has >= 2 epochs after update + compact)
    r = _run(["kgvacuum", str(store), "--keep", "1"])
    assert r.returncode == 0, r.stderr
    import re as _re

    m = _re.search(r"removed (\d+) files, (\d+) manifests", r.stdout)
    assert m and int(m.group(1)) >= 1 and int(m.group(2)) >= 1
    # store still fully readable after GC
    r = _run(["kgmatch", str(store), "--rel", "http://ex.org/name",
              "--limit", "1"])
    assert r.returncode == 0, r.stderr
    assert "# 21 links" in r.stdout  # 20 base + 1 update survive
    # keep < 1 must refuse, not wipe
    r = _run(["kgvacuum", str(store), "--keep", "0"])
    assert r.returncode != 0


def test_curate_cli(tmp_path):
    """curate drives the corpus-curation pipeline from the CLI and
    lands lang-partitioned parquet."""
    import glob

    out_dir = tmp_path / "curated"
    r = _run([
        "curate", "/root/testdata/sf0.001/documents.parquet", str(out_dir),
        "--lang", "en,de", "--min-tokens", "5", "--max-digit-ratio", "0.3",
    ])
    assert r.returncode == 0, r.stderr
    assert "curated rows:" in r.stdout
    parts = glob.glob(str(out_dir / "lang=*"))
    assert {p.rsplit("=", 1)[1] for p in parts} <= {"en", "de"} and parts


def test_cli_atom2versa(tmp_path):
    feed = tmp_path / "feed.xml"
    feed.write_text(
        '<?xml version="1.0"?>'
        '<feed xmlns="http://www.w3.org/2005/Atom">'
        "<entry><title>T one</title><updated>2024-01-01</updated>"
        '<link href="http://e/x"/><author><name>A</name></author>'
        "<summary>S</summary></entry></feed>"
    )
    out = tmp_path / "out.ttl"
    _run(["atom2versa", str(feed), str(out)])
    text = out.read_text()
    assert text.startswith("@prefix")
    assert '"T one"' in text


def test_cli_modelsite(tmp_path):
    vlit = tmp_path / "vocab.vlit"
    vlit.write_text(
        "# http://v/Book [http://v/Class]\n\n"
        '* <http://v/label>: "Book"\n'
        '* <http://v/description>: "See @Author for creators"\n\n'
        "# http://v/Author [http://v/Class]\n\n"
        '* <http://v/label>: "Author"\n\n'
    )
    out = tmp_path / "site"
    _run(["modelsite", str(vlit), str(out)])
    import os

    files = sorted(os.listdir(out))
    assert "index.html" in files and "Book.html" in files and "Author.html" in files
    book = (out / "Book.html").read_text()
    assert '<a href="Author.html">Author</a>' in book
    idx = (out / "index.html").read_text()
    assert "Book.html" in idx and "Author.html" in idx


def test_cli_rdfaparse(tmp_path):
    html = tmp_path / "page.html"
    html.write_text(
        '<html><body vocab="https://schema.org/">'
        '<div typeof="Book" resource="http://x/b1">'
        '<span property="name">A Book</span></div></body></html>'
    )
    out = tmp_path / "out.nt"
    r = _run(["rdfaparse", str(html), str(out)])
    assert r.returncode == 0, r.stderr
    text = out.read_text()
    assert "<http://x/b1>" in text and '"A Book"' in text
    assert "22-rdf-syntax-ns#type" in text


def test_modelsite_at_name_collision_resolution(tmp_path):
    """@name resolves to the FIRST (sorted) resource with that base
    slug even when a later resource collides into 'name-1'; hyphenated
    slugs never hijack other names."""
    from versa_ray.core import I
    from versa_ray.model.micro import MicroModel
    from versa_ray.web.modelsite import build_site

    m = MicroModel()
    m.add(I("http://v/foo"), I("http://v/x"), "first foo")
    m.add(I("http://w/foo"), I("http://v/x"), "second foo")
    m.add(I("http://v/bar"), I("http://v/desc"), "see @foo here")
    out = tmp_path / "site"
    build_site(m, str(out))
    bar = (out / "bar.html").read_text()
    assert '<a href="foo.html">foo</a>' in bar
    assert "foo-1" not in bar
    # both colliding resources still got distinct pages
    assert (out / "foo.html").exists() and (out / "foo-1.html").exists()


def test_cli_kgbuild_sharded(tmp_path):
    """--num-shards drives the per-shard resumable build: shard
    manifests + final linkset; --max-shards bounds one run's work and
    the next run completes the rest; rerun resumes to the same row
    count."""
    import json

    from versa_ray.web.synth import write_pages

    pages = tmp_path / "pages.parquet"
    write_pages(str(pages), 120)
    out = tmp_path / "kg"
    # bounded first run: only 2 of 4 shards
    r = _run(["kgbuild", str(pages), str(out),
              "--num-shards", "4", "--max-shards", "2"])
    assert r.returncode == 0, r.stderr
    assert "shards complete: 2/4" in r.stdout
    import glob

    done = glob.glob(str(out / "manifests" / "shard-*.json"))
    assert len(done) == 2
    # completing run
    r2 = _run(["kgbuild", str(pages), str(out),
               "--num-shards", "4"])
    assert r2.returncode == 0, r2.stderr
    done = glob.glob(str(out / "manifests" / "shard-*.json"))
    assert len(done) == 4
    rows = int(r2.stdout.strip().rsplit("linkset rows: ", 1)[1].split()[0])
    # manifest lineage present
    m = json.load(open(done[0]))
    assert {"shard", "files", "rows", "wall_sec"} <= set(m)
    # rerun resumes with identical output
    r3 = _run(["kgbuild", str(pages), str(out),
               "--num-shards", "4"])
    rows3 = int(r3.stdout.strip().rsplit("linkset rows: ", 1)[1].split()[0])
    assert rows3 == rows
    # resuming with a DIFFERENT shard split is refused (it would
    # silently drop pages)
    r4 = _run(["kgbuild", str(pages), str(out),
               "--num-shards", "8"])
    assert r4.returncode != 0
    assert "num_shards" in (r4.stderr + r4.stdout)


def test_cli_kgstats(tmp_path):
    """kgstats surfaces per-partition lineage (manifest reads only)."""
    import json

    from versa_ray.web.synth import write_pages

    pages = tmp_path / "p.parquet"
    write_pages(str(pages), 60)
    out = tmp_path / "kg"
    r = _run(["kgbuild", str(pages), str(out)])
    assert r.returncode == 0, r.stderr
    r2 = _run(["kgstats", str(out / "stage=linkset")])
    assert r2.returncode == 0, r2.stderr
    head = json.loads(r2.stdout.strip().splitlines()[0])
    assert head["rows"] > 0 and head["partitions"] > 0
    r3 = _run(["kgstats", str(out / "stage=linkset"), "--partitions"])
    lines = r3.stdout.strip().splitlines()
    parts = [json.loads(x) for x in lines[1:]]
    assert sum(p["rows"] for p in parts) == head["rows"]
    assert all({"rel_bucket", "part_id", "rows", "files"} <= set(p)
               for p in parts)


def test_kgstats_matches_store_after_kgupdate(ray_session, tmp_path):
    """After an update, kgstats reports the current epoch's live rows
    and files, not every file an earlier epoch left on disk."""
    import json

    from versa_ray.model.store import pruned_fragments, read_linkset
    from versa_ray.web.synth import write_pages

    pages = tmp_path / "p.parquet"
    write_pages(str(pages), 50)
    out = tmp_path / "kg"
    r = _run(["kgbuild", str(pages), str(out)])
    assert r.returncode == 0, r.stderr
    store = str(out / "stage=linkset")
    delta = tmp_path / "delta.parquet"
    write_pages(str(delta), 70)
    r = _run(["kgupdate", str(delta), store])
    assert r.returncode == 0, r.stderr
    r = _run(["kgstats", store])
    assert r.returncode == 0, r.stderr
    head = json.loads(r.stdout.strip().splitlines()[0])
    assert head["epoch"] == 2
    assert head["rows"] == read_linkset(store).count()
    assert head["files"] == len(pruned_fragments(store))


def test_kgquery_cli(tmp_path):
    """kgquery evaluates the full query language over a stored KG:
    conjunction with negation, JSON binding-set output."""
    import json
    import sys

    pages = tmp_path / "pages.parquet"
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, '/root/repo'); "
         "from versa_ray.web.synth import write_pages; "
         f"write_pages({str(pages)!r}, 40)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    out_dir = tmp_path / "kg"
    r = _run(["kgbuild", str(pages), str(out_dir)])
    assert r.returncode == 0, r.stderr
    store = str(out_dir / "stage=linkset")

    r = _run(["kgquery", store, "?($a, NAME, *)",
              "--var", "NAME=http://bibfra.me/vocab/lite/name",
              "--limit", "2"])
    assert r.returncode == 0, r.stderr
    row = json.loads(r.stdout.strip().splitlines()[-1])
    assert row["var"] == "a" and row["count"] > 0
    assert len(row["values"]) == 2

    # negation shrinks the binding set (or keeps it, never grows it)
    r2 = _run(["kgquery", store,
               "?($a, NAME, *) and not ?($a, TYPE, *)",
               "--var", "NAME=http://bibfra.me/vocab/lite/name",
               "--var", "TYPE=http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
               "--limit", "2"])
    assert r2.returncode == 0, r2.stderr
    row2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert row2["count"] <= row["count"]
