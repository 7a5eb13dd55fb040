"""Serializer conformance: literate goldens, ntriples, csv template,
simpleobj, jsonld, mermaid, rdfs."""

import io

from conftest import requires_reference

from versa_ray.core import I, RDF_TYPE_REL, VTYPE_REL
from versa_ray.model import MicroModel
from versa_ray.serial import csvrec, jsonld, literate, mermaid, ntriples, rdfs, simpleobj


def test_literate_parse_counts():
    input_1 = (
        "\n# http://eg.org/abc [http://vocab.org/TYPE1]\n\n"
        '* <http://vocab.org/uvw>: "1"    // CPP Comment\n'
        "* <http://vocab.org/uvw>: 3\n"
        "* <http://vocab.org/xyz>: <def>\n\n"
        "<!-- Extra spaces -->\n\n\n"
        "# http://eg.org/def [http://vocab.org/TYPE2]\n\n"
        "* <http://vocab.org/badlabel>: 1\n\n"
    )
    m = literate.parse(input_1)
    assert len(m) == 6


def test_literate_canonical_golden():
    m = MicroModel()
    vb, rb = "http://vocab.org/", "http://eg.org/"
    m.add(I(f"{rb}def"), I(f"{vb}xyz"), "2")
    m.add(I(f"{rb}def"), I(f"{vb}uvw"), "1")
    m.add(I(f"{rb}def"), I(f"{vb}uvw"), "3")
    m.add(I(f"{rb}abc"), I(f"{vb}xyz"), "2")
    m.add(I(f"{rb}abc"), I(f"{vb}uvw"), "1")
    m.add(I(f"{rb}abc"), I(f"{vb}uvw"), "3")
    expected = (
        "\n\n# http://eg.org/abc\n\n"
        '* <http://vocab.org/uvw>: "1"\n'
        '* <http://vocab.org/uvw>: "3"\n'
        '* <http://vocab.org/xyz>: "2"\n\n'
        "# http://eg.org/def\n\n"
        '* <http://vocab.org/uvw>: "1"\n'
        '* <http://vocab.org/uvw>: "3"\n'
        '* <http://vocab.org/xyz>: "2"\n\n'
    )
    assert literate.write_string(m, canonical=True) == expected


def test_literate_abbreviation_equivalence():
    """doc1.md vs doc1.abbr.md parse to equal models (reference
    test_parsemd.py:44-70 pattern)."""
    full = (
        "# http://example.org/x [http://example.org/voc/Thing]\n\n"
        "* <http://example.org/voc/name>: \"X\"\n\n"
    )
    abbr = (
        "# @docheader\n\n* @iri:\n    * @base: http://example.org/\n"
        "    * @schema: http://example.org/voc/\n\n"
        "# x [Thing]\n\n* name: \"X\"\n\n"
    )
    assert literate.parse(full) == literate.parse(abbr)


def test_ntriples_roundtrip():
    nt = (
        "<http://example.org/s> <http://example.org/p> \"lit\" .\n"
        "<http://example.org/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://example.org/T> .\n"
        "<http://example.org/s> <http://example.org/q> <http://example.org/o> .\n"
    )
    m = ntriples.parse(nt)
    assert len(m) == 3
    # rdf:type mapped to Versa type
    assert len(list(m.match(None, VTYPE_REL))) == 1
    out = ntriples.write_string(m)
    # round-trip: type mapped back to rdf:type
    assert "22-rdf-syntax-ns#type" in out
    m2 = ntriples.parse(out)
    assert m == m2


def test_ntriples_filters():
    nt = (
        "<http://e/s> <http://e/keep> \"a\" .\n"
        "<http://e/s> <http://e/drop> \"b\" .\n"
    )
    m = ntriples.parse(nt, only_rel={"http://e/keep"})
    assert len(m) == 1
    m = ntriples.parse(nt, exclude_rel={"http://e/drop"})
    assert len(m) == 1
    # disjoint anti-join
    existing = {(I("http://e/s"), I("http://e/keep"), "a", ())}
    m = ntriples.parse(nt, disjoint=existing)
    assert len(m) == 1 and next(m.match())[1] == "http://e/drop"


def test_csv_template_usecase():
    """Reference test_serial_csv.py:23-33 use case (unicode header ->
    percent-encoded template key)."""
    def rows(_):
        return [{"Wikidata": "Q15761337", "©": "2016"}]

    tmpl = "# http://example.org#{Wikidata}\n\n * <http://example.org/voc/copyright>: {%C2%A9}\n\n"
    m = next(csvrec.parse_iter(object(), tmpl, csv_fact=rows))
    assert len(m) == 1
    assert next(m.match()) == (
        "http://example.org#Q15761337",
        "http://example.org/voc/copyright",
        "2016",
        {},
    )


def test_csv_parse_and_write():
    csvtext = "ISBN,Title\n12345,Things Fall Apart\n"
    tmpl = (
        "# http://example.org/book/{ISBN} [http://example.org/voc/Book]\n\n"
        "* <http://example.org/voc/title>: {Title}\n\n"
    )
    m = csvrec.parse(io.StringIO(csvtext), tmpl)
    assert len(m) == 2
    # writer
    out = io.StringIO()
    import csv as _csv

    w = _csv.writer(out)
    csvrec.write(m, w, [("http://example.org/voc/title", "Title")], True)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "id,type,Title"
    assert "Things Fall Apart" in lines[1]


def test_simpleobj():
    objs = [{"id": "b1", "title": "T1"}, {"id": "b2", "title": "T2"}]
    tmpl = "# http://e.org/{id} [http://e.org/voc/B]\n\n* <http://e.org/voc/t>: {title}\n\n"
    m = simpleobj.parse(objs, tmpl)
    assert len(m) == 4


def test_jsonld_bind():
    m = MicroModel()
    m.add(I("http://e/book1"), RDF_TYPE_REL, I("http://e/Book"))
    m.add(I("http://e/book1"), I("http://e/author"), I("http://e/p1"))
    m.add(I("http://e/p1"), I("http://e/name"), "Chinua Achebe")
    doc = jsonld.bind(m, context={"@output": True})
    graph = doc["@graph"]
    assert len(graph) == 1  # p1 nested under book1
    book = graph[0]
    assert book["@id"] == "http://e/book1"
    assert book["http://e/author"]["http://e/name"] == "Chinua Achebe"
    # with @vocab, rels and nested ids relativize (reference behavior)
    doc2 = jsonld.bind(m, context={"@vocab": "http://e/"})
    ids = {o["@id"] for o in doc2["@graph"]}
    assert "http://e/book1" in ids


def test_mermaid():
    m = MicroModel()
    m.add(I("http://e/a"), I("http://e/knows"), I("http://e/b"))
    out = mermaid.write_string(m)
    assert out.startswith("graph TD")
    assert "-->|knows|" in out


def test_rdfs_mapping():
    from versa_ray.core import RDFS_NS, VERSA_BASEIRI

    m = MicroModel()
    m.add(I("http://e/C"), VTYPE_REL, I(VERSA_BASEIRI + "Resource"))
    m.add(I("http://e/C"), I(VERSA_BASEIRI + "refines"), I("http://e/Base"))
    m.add(I("http://e/C"), I(VERSA_BASEIRI + "label"), "C label")
    out = rdfs.to_rdfs_model(m)
    assert len(list(out.match(None, I(RDFS_NS + "subClassOf")))) == 1
    assert len(list(out.match(None, I(RDFS_NS + "label")))) == 1
    assert len(list(out.match(None, RDF_TYPE_REL, I(RDFS_NS + "Class")))) == 1


def test_atom_feed():
    from versa_ray.serial import atom

    xml = """<?xml version="1.0"?>
<feed xmlns="http://www.w3.org/2005/Atom">
  <entry>
    <title>First "Poem"</title>
    <updated>2013-10-15</updated>
    <link href="http://example.org/poem1"/>
    <author><name>Uche Ogbuji</name></author>
    <summary>It begins here</summary>
  </entry>
</feed>"""
    m = atom.parse(xml, base="http://example.org/poems/")
    targets = [t for (_, l) in m for t in [l[2]]]
    assert 'First "Poem"' in targets
    assert any(str(t) == "http://example.org/poem1" for t in targets)
    assert "2013-10-15" in targets


@requires_reference("test/resource/doc1.md", "test/resource/doc1.abbr.md")
def test_doc1_abbreviation_equivalence_reference_fixtures():
    """Full vs abbreviated literate forms parse to the same 6 links
    (reference test_parsemd.py:44-80, same fixture files)."""
    m1 = literate.parse(open("/root/reference/test/resource/doc1.md").read())
    m2 = literate.parse(open("/root/reference/test/resource/doc1.abbr.md").read())
    for m in (m1, m2):
        results = list(m.match())
        assert len(results) == 6
        assert (
            I("http://uche.ogbuji.net/ndewo/"),
            I("http://bibfra.me/purl/versa/type"),
            "http://www.w3.org/TR/html5/#Document",
            {},
        ) in results
        assert (
            I("http://uche.ogbuji.net/ndewo/"),
            I("http://www.w3.org/TR/html5/title"),
            "Ndewo, Colorado",
            {},
        ) in results
        assert (
            I("http://uche.ogbuji.net/ndewo/"),
            I("http://www.w3.org/TR/html5/link-type/author"),
            I("http://uche.ogbuji.net/"),
            {I("http://www.w3.org/TR/html5/link/description"): "Uche Ogbuji"},
        ) in results
    assert m1 == m2


def _flatten_jsonld(objs):
    """Expand nested node objects to a set of (id, key, value) triples
    (value = @id for object values), for order/nesting-insensitive
    comparison of binder outputs."""
    triples = set()

    def walk(obj):
        oid = obj.get("@id", "_:b")
        t = obj.get("@type")
        if t:
            for tt in [t] if isinstance(t, str) else t:
                triples.add((oid, "@type", tt))
        for k, v in obj.items():
            if k in ("@id", "@type"):
                continue
            for item in v if isinstance(v, list) else [v]:
                if isinstance(item, dict):
                    triples.add((oid, k, item.get("@id", "?")))
                    walk(item)
                else:
                    triples.add((oid, k, item))

    for o in objs:
        walk(o)
    return triples


def test_bind_ds_matches_driver_binder(ray_session, monkeypatch):
    """Distributed inlined binder == driver-side binder after
    expansion (flatten-triple equality) on a model with single-ref
    chains, a multi-ref node, literals, and pruned types."""
    import json

    from versa_ray.core import I
    from versa_ray.model import linkset
    from versa_ray.model.micro import MicroModel
    from versa_ray.serial.jsonld import bind, bind_ds

    V = "http://eg.org/v/"
    T = str
    links = [
        # chain: a -> b -> c (each single-ref)
        ("urn:a", V + "type", I(V + "Doc")),
        ("urn:a", V + "name", "doc a"),
        ("urn:a", V + "part", I("urn:b")),
        ("urn:b", V + "name", "part b"),
        ("urn:b", V + "sub", I("urn:c")),
        ("urn:c", V + "name", "leaf c"),
        # multi-ref node m (referenced by a and d)
        ("urn:a", V + "uses", I("urn:m")),
        ("urn:d", V + "uses", I("urn:m")),
        ("urn:m", V + "name", "shared m"),
        ("urn:d", V + "name", "doc d"),
        # dangling ref (target has no links of its own)
        ("urn:d", V + "see", I("urn:nowhere")),
        # pruned type: p is ignored; refs to p must disappear
        ("urn:p", V + "type", I(V + "Secret")),
        ("urn:p", V + "name", "hidden"),
        ("urn:d", V + "leak", I("urn:p")),
    ]
    from versa_ray.core import VTYPE_REL

    m = MicroModel()
    for o, r, t in links:
        rel = VTYPE_REL if r == V + "type" else I(r)
        m.add(I(o), rel, t if isinstance(t, str) and not isinstance(t, I) else I(str(t)))

    want_objs = bind(m, ignore_oftypes=[V + "Secret"])
    ds = linkset.from_links(
        [(o, str(VTYPE_REL) if r == V + "type" else r, t) for (o, r, t) in links]
    )
    got_rows = bind_ds(ds, ignore_oftypes=[V + "Secret"]).take_all()
    got_objs = [json.loads(r["node"]) for r in got_rows]

    assert _flatten_jsonld(got_objs) == _flatten_jsonld(want_objs)
    # inlining actually happened: the chain head embeds a nested object
    a_node = next(json.loads(r["node"]) for r in got_rows if r["origin"] == "urn:a")
    assert isinstance(a_node[V + "part"], dict)
    assert isinstance(a_node[V + "part"][V + "sub"], dict)  # depth 2
    # pruned node gone and its inbound ref stripped
    assert all(r["origin"] != "urn:p" for r in got_rows)
    d_node = next(json.loads(r["node"]) for r in got_rows if r["origin"] == "urn:d")
    assert V + "leak" not in d_node

    # shuffle absorb path (threshold 0 forces it) == broadcast path
    monkeypatch.setattr(jsonld, "INLINE_BROADCAST_THRESHOLD", 0)
    got_shuffle = bind_ds(ds, ignore_oftypes=[V + "Secret"]).take_all()
    assert sorted(
        (r["origin"], r["node"]) for r in got_shuffle
    ) == sorted((r["origin"], r["node"]) for r in got_rows)


def test_bind_ds_cycle_safe(ray_session):
    """Reference cycles stay as id refs (no hang, nothing dropped) —
    the driver binder cannot serialize cycles at all."""
    import json

    from versa_ray.model import linkset
    from versa_ray.serial.jsonld import bind_ds

    V = "http://eg.org/v/"
    links = [
        ("urn:x", V + "next", ("iri", "urn:y")),
        ("urn:y", V + "next", ("iri", "urn:x")),
        ("urn:x", V + "name", ("lit", "node x")),
        ("urn:y", V + "name", ("lit", "node y")),
    ]
    rows = [
        (o, r, t if kind == "lit" else t)
        for (o, r, (kind, t)) in links
    ]
    from versa_ray.core import I

    ds = linkset.from_links(
        [(o, r, I(t) if kind == "iri" else t) for (o, r, (kind, t)) in links]
    )
    out = bind_ds(ds).take_all()
    assert {r["origin"] for r in out} == {"urn:x", "urn:y"}
    x = json.loads(next(r["node"] for r in out if r["origin"] == "urn:x"))
    assert x[V + "next"] == "urn:y"  # collapsed id ref, not embedded


def test_bind_ds_prunes_whole_list_property(ray_session):
    """When every reference in a multi-valued property points at
    pruned nodes, the key is deleted (driver-binder semantics), not
    left as an empty list."""
    import json

    from versa_ray.core import I, VTYPE_REL
    from versa_ray.model import linkset
    from versa_ray.serial.jsonld import bind_ds

    V = "http://eg.org/v/"
    T = str(VTYPE_REL)
    links = [
        ("urn:d", V + "leak", I("urn:p1")),
        ("urn:d", V + "leak", I("urn:p2")),
        ("urn:d", V + "name", "doc d"),
        ("urn:p1", T, I(V + "Secret")),
        ("urn:p1", V + "name", "s1"),
        ("urn:p2", T, I(V + "Secret")),
        ("urn:p2", V + "name", "s2"),
    ]
    ds = linkset.from_links(links)
    rows = bind_ds(ds, ignore_oftypes=[V + "Secret"]).take_all()
    d = json.loads(next(r["node"] for r in rows if r["origin"] == "urn:d"))
    assert V + "leak" not in d
    assert d[V + "name"] == "doc d"


def test_ntriples_blank_nodes_deterministic():
    """Bnode labels map to deterministic content-derived ids: same
    document -> same ids; same labels in a different document ->
    different ids; subject and object positions both supported.
    (Exceeds the reference, which raises NotImplementedError.)"""
    nt = (
        '_:a <http://e/knows> _:b .\n'
        '_:a <http://e/name> "Alice" .\n'
        '<http://e/x> <http://e/ref> _:b .\n'
    )
    m1 = ntriples.parse(nt)
    m2 = ntriples.parse(nt)
    links1 = sorted((l[0], l[1], l[2]) for l in m1.match())
    links2 = sorted((l[0], l[1], l[2]) for l in m2.match())
    assert links1 == links2  # deterministic
    assert len(links1) == 3
    subs = {s for s, _, _ in links1}
    a_ids = {s for s in subs if s.startswith("_:b")}
    assert len(a_ids) == 1  # _:a coreference held
    a_id = a_ids.pop()
    # _:b as object of two different triples must be the SAME id
    b_ids = {t for _, r, t in links1 if str(t).startswith("_:")}
    assert len(b_ids) == 1 and b_ids.pop() != a_id

    # different doc, same labels -> different scope, different ids
    m3 = ntriples.parse(nt + '<http://e/y> <http://e/p> "z" .\n')
    ids3 = {l[0] for l in m3.match() if l[0].startswith("_:")}
    assert ids3 and ids3.isdisjoint(a_ids | {a_id})


def test_ntriples_bnode_iterable_requires_scope():
    """parse_links over an ITERABLE of lines can't derive a content
    scope, so a bnode without an explicit bnode_scope raises instead
    of silently corefering _:x across different documents; an
    explicit scope works, and bnode-free iterables parse fine."""
    import pytest

    lines = ['_:x <http://e/p> "v" .']
    with pytest.raises(ValueError, match="bnode_scope"):
        list(ntriples.parse_links(iter(lines)))
    got = list(ntriples.parse_links(iter(lines), bnode_scope="doc1"))
    assert got[0][0] == "_:bdoc1-x"
    other = list(ntriples.parse_links(iter(lines), bnode_scope="doc2"))
    assert other[0][0] != got[0][0]  # file-local labels stay distinct
    plain = list(ntriples.parse_links(
        iter(['<http://e/s> <http://e/p> "v" .'])))
    assert len(plain) == 1


def test_ntriples_blank_node_roundtrip_isomorphic():
    """parse -> write -> parse yields an isomorphic graph: same shape
    under first-occurrence bnode relabeling, identical non-bnodes."""
    nt = (
        '_:n1 <http://e/knows> _:n2 .\n'
        '_:n2 <http://e/name> "Bob" .\n'
        '<http://e/x> <http://e/ref> _:n1 .\n'
    )

    def canon(model):
        links = sorted((str(l[0]), str(l[1]), str(l[2])) for l in model.match())
        names = {}

        def rl(v):
            if v.startswith("_:"):
                return names.setdefault(v, "_:c%d" % len(names))
            return v

        return [(rl(s), r, rl(t)) for s, r, t in links]

    m1 = ntriples.parse(nt)
    out = ntriples.write_string(m1)
    assert "<_:" not in out  # bnodes serialize bare
    m2 = ntriples.parse(out)
    assert canon(m1) == canon(m2)


def test_ntriples_ds_blank_node_coreference(ray_session, tmp_path):
    """Dataset parse: one file split across many tiny batches keeps
    bnode coreference (scope derives from the file path), and two
    files with identical labels stay distinct."""
    nt = "".join(
        '_:s <http://e/item> "%d" .\n' % i for i in range(200)
    ) + '_:s <http://e/name> "shared" .\n'
    f1 = tmp_path / "a.nt"
    f2 = tmp_path / "b.nt"
    f1.write_text(nt)
    f2.write_text(nt)
    ds = ntriples.read_ntriples_ds([str(f1), str(f2)])
    df = ds.to_pandas()
    subs = df["origin"].unique()
    assert len(subs) == 2  # one bnode id per file, coreference intact
    assert all(s.startswith("_:b") for s in subs)
    assert (df.groupby("origin").size() == 201).all()


def test_turtle_writer_driver():
    """Turtle render: prefix header, `a` for types, `;`/`,` grouping,
    escaped literals, bare bnodes — and the RDFS-mapping flow the
    reference pushes through rdflib works end to end without it."""
    import io

    from versa_ray.core import I, RDFS_NS, VTYPE_REL
    from versa_ray.serial import turtle

    m = __import__("versa_ray.model.micro", fromlist=["MicroModel"]).MicroModel()
    m.add(I("http://e/a"), VTYPE_REL, I(RDFS_NS + "Class"))
    m.add(I("http://e/a"), I(RDFS_NS + "label"), 'Thing "A"\nx')
    m.add(I("http://e/a"), I("http://e/rel"), I("http://e/b"))
    m.add(I("http://e/b"), I("http://e/name"), "B1")
    m.add(I("http://e/b"), I("http://e/name"), "B2")
    m.add("_:bx", I("http://e/name"), "blank")
    out = turtle.write_string(m)
    assert out.startswith("@prefix rdf:")
    assert "<http://e/a> a rdfs:Class ;" in out
    assert 'rdfs:label "Thing \\"A\\"\\nx"' in out
    assert '"B1", "B2"' in out
    assert "_:bx <http://e/name>" in out
    # each subject block terminates; literals with raw newlines never leak
    assert "\nx" not in out.replace("\\nx", "")

    # RDFS export -> turtle (the reference's rdflib hand-off, without it)
    from versa_ray.serial.rdfs import to_rdfs_model

    t2 = turtle.write_string(to_rdfs_model(m))
    assert "rdfs:Class" in t2


def test_turtle_ds_sharded(ray_session, tmp_path):
    """Sharded Turtle sink: every shard is a standalone document
    (prefix header + complete per-origin blocks)."""
    import glob

    from versa_ray.core import I, VTYPE_REL
    from versa_ray.model.linkset import from_links
    from versa_ray.serial.turtle import write_turtle_ds

    ds = from_links(
        [
            (I("http://e/%d" % i), I("http://e/name"), "N%d" % i)
            for i in range(20)
        ]
        + [(I("http://e/0"), VTYPE_REL, I("http://e/T"))]
    )
    out = str(tmp_path / "ttl")
    files = write_turtle_ds(ds, out)
    assert files
    text = "".join(open(f).read() for f in sorted(glob.glob(out + "/*.ttl")))
    for f in glob.glob(out + "/*.ttl"):
        assert open(f).read().startswith("@prefix")
    assert "<http://e/0> a <http://e/T> ;" in text
    assert text.count(" .\n") >= 20


def test_ntriples_lang_and_datatype_literals():
    """Real-corpus NT forms: language-tagged and datatyped literals
    parse into @lang/@datatype attrs (the reference data model's own
    attrs convention) and round-trip through the writer. The previous
    pattern silently DROPPED such lines."""
    nt = (
        '<http://e/s> <http://e/title> "Ndewo"@en .\n'
        '<http://e/s> <http://e/count> '
        '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://e/s> <http://e/plain> "p" .\n'
    )
    m = ntriples.parse(nt)
    assert len(m) == 3
    links = {l[1]: (l[2], l[3]) for l in m.match()}
    assert links["http://e/title"] == ("Ndewo", {"@lang": "en"})
    assert links["http://e/count"] == (
        "5", {"@datatype": "http://www.w3.org/2001/XMLSchema#integer"}
    )
    assert links["http://e/plain"] == ("p", {})
    out = ntriples.write_string(m)
    assert '"Ndewo"@en .' in out
    assert '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .' in out
    m2 = ntriples.parse(out)
    assert m == m2


def test_turtle_preserves_lang_and_datatype(ray_session, tmp_path):
    """NT -> Turtle keeps @lang and ^^datatype (they ride as attrs);
    both the driver writer and the sharded Dataset sink render them."""
    import glob

    from versa_ray.model.micro import MicroModel
    from versa_ray.model.linkset import from_model
    from versa_ray.serial import ntriples, turtle
    from versa_ray.serial.turtle import write_turtle_ds

    nt = (
        '<http://e/s> <http://e/title> "Ndewo"@en .\n'
        '<http://e/s> <http://e/count> '
        '"42"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://e/s> <http://e/plain> "just text" .\n'
    )
    m = MicroModel()
    ntriples.parse(nt, m)
    out = turtle.write_string(m)
    assert '"Ndewo"@en' in out
    assert '"42"^^<http://www.w3.org/2001/XMLSchema#integer>' in out
    assert '"just text"' in out and '"just text"@' not in out

    files = write_turtle_ds(from_model(m), str(tmp_path / "ttl"))
    assert files
    text = "".join(
        open(f).read() for f in sorted(glob.glob(str(tmp_path / "ttl/*.ttl")))
    )
    assert '"Ndewo"@en' in text
    assert '"42"^^<http://www.w3.org/2001/XMLSchema#integer>' in text


def test_ntriples_minified_dot_forms():
    """Spec-legal lines with NO whitespace before the terminating dot
    parse; a bnode label never swallows the dot (labels cannot end
    with '.')."""
    from versa_ray.serial import ntriples

    nt = (
        '_:a <http://e/p> _:b.\n'
        '<http://e/s> <http://e/p> "x".\n'
        '<http://e/s> <http://e/q> <http://e/o>.\n'
        '<http://e/s> <http://e/r> "y"@en.\n'
        '_:c.d <http://e/p> "dotted label".\n'
    )
    links = list(ntriples.parse_links(nt))
    assert len(links) == 5
    by_rel = {str(r): (o, t) for o, r, t, a in links}
    o, t = by_rel["http://e/p"] if "http://e/p" in by_rel else (None, None)
    # bnode object kept its full label 'b' (not 'b.')
    bl = [t for o, r, t, a in links if str(t).startswith("_:")]
    assert len(bl) == 1 and str(bl[0]).endswith("-b")
    subs = {str(o) for o, r, t, a in links}
    assert any(s.endswith("-c.d") for s in subs)  # interior dot kept
    assert ("x",) == tuple(
        t for o, r, t, a in links if str(r) == "http://e/p" and not str(
            t).startswith("_:") and "dotted" not in str(t))
