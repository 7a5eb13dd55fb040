"""The fast HTML tokenizer of web/extract.py against html.parser.

``parse_html`` reads a document through ``_fast_tree`` (one regex split,
a strict tag grammar, a tag memo) and hands any document outside that
grammar to ``_parser_tree`` (stdlib html.parser). These tests hold the
fast path to the html.parser tree and extraction results:

* differential: generated documents (hypothesis) and hand-written edge
  pages either decline or give the html.parser tree, and every public
  extractor gives its html.parser-only result;
* coverage: every synth page the benchmark builds takes the fast path,
  and each decline class hands its page back;
* the per-process tag memo stays under its cap;
* pages nested thousands of elements deep extract in every mode.
"""

import contextlib
import random

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from versa_ray.web import extract as X
from versa_ray.web.kgpipeline import PageKGExtractor
from versa_ray.web.synth import page_batch

URL = "https://example.org/page/t"


def _events(root):
    """The tree as a flat event list, built without recursion."""
    out = []
    stack = [iter(root.children)]
    while stack:
        for c in stack[-1]:
            if isinstance(c, str):
                out.append(("text", c))
            else:
                out.append(("open", c.tag, list(c.attrs.items())))
                stack.append(iter(c.children))
                break
        else:
            stack.pop()
            out.append(("close",))
    return out


@contextlib.contextmanager
def _parser_only():
    """Run the public extractors with the fast path switched off."""
    fast = X._fast_tree
    X._fast_tree = lambda html: None
    try:
        yield
    finally:
        X._fast_tree = fast


def _extractions(doc):
    return (X.extract_both(doc, URL), X.extract_text(doc),
            X.extract_rdfa(doc, URL), X.extract_rdfa(doc, URL, strict=True))


def _check(doc: bytes):
    """The fast path declines or equals html.parser; returns whether it
    took the document."""
    text = doc.decode("utf-8", "replace")
    fast = X._fast_tree(text)
    if fast is not None:
        assert _events(fast) == _events(X._parser_tree(text))
    got = _extractions(doc)
    with _parser_only():
        want = _extractions(doc)
    assert got == want
    return fast is not None


# -- generated documents ----------------------------------------------------

NAMES = ["p", "div", "SPAN", "a", "Body", "body", "html", "head", "meta",
         "br", "img", "IMG", "template", "article", "x-y", "li", "ul", "h1",
         "title", "TextArea"]
ATTR_NAMES = ["vocab", "typeof", "property", "resource", "content", "href",
              "src", "about", "prefix", "class", "ID", "Property", "data-x",
              "xml:lang", "disabled"]
VALUES = ["https://schema.org/", "Book", "Person", "name", "schema:name",
          "bf:Instance", "http://ex.org/x", "rel/path", "", "a b",
          "bf: http://bibfra.me/vocab/lite/ ex: http://ex.org/",
          "x&amp;y", "&quot;q&quot;", "&lt;&gt;", "café", "line\nbreak",
          "&notanentity;", "&#65;&#x42;", "a>b", "a<b"]
SEPS = [" ", "  ", "\n", "\t", "\r\n", " \n\t", "\f", "", "\v", " "]
TEXT_PIECES = ["x", "word", " ", "  ", "\n", "\t", "café", "—",
               " ", "&amp;", "&lt;", "&gt;", "&#65;", "&#x263a;",
               "&nbsp", "&copy", "&bogus;", "&", ";", "#", ">", "A&B",
               "中文", "�"]
INSIDE = ["<!--x-->", "<!-- a -- b -->", "<!---->", "<!-- -- >",
          "<!DOCTYPE html>", "<!doctype html>", "<br>", "<br/>", "<hr />"]
OUTSIDE = ["a < b", "<", "<3", "<?xml version='1.0'?>", "<![CDATA[x<y]]>",
           "<!ELEMENT x>", "<!>", "<!-->", "<!--->", "<!--a--!>", "<!--x--!>y-->",
           "<script>var a = 1 < 2;</script>", "<style>p{}</style>",
           "<SCRIPT src='x.js'></SCRIPT>", "</script>", "<p class=bare>",
           "<p class==\"x\">", "<a href=x/>", "</>", "</ p>", "</p x>",
           "<p/class='x'>", "<p a=\"x\"b=\"y\">", "<img src=\"x\"/ >",
           "<!-- <b> -->", "</3>"]


@st.composite
def _start_tag(draw):
    parts = ["<", draw(st.sampled_from(NAMES))]
    for _ in range(draw(st.integers(0, 4))):
        parts.append(draw(st.sampled_from(SEPS[:6] if draw(st.integers(0, 9))
                                          else SEPS)))
        parts.append(draw(st.sampled_from(ATTR_NAMES)))
        form = draw(st.integers(0, 7))
        if form == 0:
            continue  # valueless
        value = draw(st.sampled_from(VALUES))
        eq = draw(st.sampled_from(["=", "=", " = ", "\n=\n", "=="]))
        quote = draw(st.sampled_from(['"', '"', "'", ""]))
        if quote == "'":
            value = value.replace("'", "")
        parts.append(eq + quote + value + quote)
    parts.append(draw(st.sampled_from([">", ">", "/>", " />", "\n>", " >"])))
    return "".join(parts)


def _end_tag(name: str, pad: str) -> str:
    return "</" + name + pad + ">"


_fragment = st.one_of(
    _start_tag(),
    st.builds(_end_tag, st.sampled_from(NAMES),
              st.sampled_from(["", "", " ", "\n"])),
    st.lists(st.sampled_from(TEXT_PIECES), max_size=6).map("".join),
    st.sampled_from(INSIDE),
)


@st.composite
def _documents(draw):
    frags = draw(st.lists(_fragment, max_size=30))
    if draw(st.booleans()):
        frags.insert(draw(st.integers(0, len(frags))),
                     draw(st.sampled_from(OUTSIDE)))
    doc = "".join(frags).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:  # invalid UTF-8 bytes
        at = draw(st.integers(0, len(doc)))
        doc = doc[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82",
                                               b"\x80\x80"])) + doc[at:]
    return doc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents())
def test_fast_path_differential(doc):
    _check(doc)


def _seeded_document(rnd: random.Random) -> bytes:
    frags = []
    for _ in range(rnd.randint(0, 30)):
        kind = rnd.randint(0, 3)
        if kind == 0:
            attrs = "".join(
                rnd.choice(SEPS[:6]) + rnd.choice(ATTR_NAMES) + '="'
                + rnd.choice(VALUES).replace('"', "") + '"'
                for _ in range(rnd.randint(0, 3)))
            frags.append("<" + rnd.choice(NAMES) + attrs
                         + rnd.choice([">", "/>", " />"]))
        elif kind == 1:
            frags.append(_end_tag(rnd.choice(NAMES), rnd.choice(["", " "])))
        elif kind == 2:
            frags.append("".join(rnd.choice(TEXT_PIECES)
                                 for _ in range(rnd.randint(0, 6))))
        else:
            frags.append(rnd.choice(INSIDE))
    if rnd.random() < 0.4:
        frags.insert(rnd.randint(0, len(frags)), rnd.choice(OUTSIDE))
    return "".join(frags).encode("utf-8")


def test_generated_documents_reach_both_paths():
    """The differential is not vacuous: a seeded generator over the same
    fragments gives documents the fast path takes and ones it declines."""
    rnd = random.Random(7)
    taken = 0
    n = 300
    for _ in range(n):
        taken += _check(_seeded_document(rnd))
    assert 0.3 * n < taken < 0.9 * n


# -- hand-written edge pages ------------------------------------------------

EDGE_PAGES = [
    "",
    "plain text only",
    "<p>",
    "</p>",
    "<html><body><p>a<p>b</body></html>",
    "<div><span>a</div>b</span>c",
    "<ul><li>one<li>two</ul>tail",
    "<P CLASS='x' Id=\"y\">Mixed</p>",
    '<p a="1" a="2" A="3">dup</p>',
    "<input disabled class=\"x\"><br>after",
    '<p title="">empty</p><p title>none</p>',
    "<div/>self<span />closed",
    "<br></br><img src=\"i.png\"></img>",
    '<meta\n  property="name"\n\tcontent="a&amp;b"\n>',
    "a&amp;b&lt;c&gt;d &copy 2024 &notanentity; &#0; &#x110000;",
    "a<!--x-->b",
    "a<!-- x -- >b",
    "<!DOCTYPE html><html>x</html>",
    "<!doctype HTML PUBLIC \"-//W3C//DTD\" \"http://w3.org\">z",
    "<template><p>hidden</p></template><p>shown</p>",
    "<body vocab=\"https://schema.org/\"><div typeof=\"Book\">"
    "<span property=\"name\">T&amp;T</span></div></body>",
    "<body><div prefix=\"ex: http://ex.org/\" about=\"http://ex.org/a\" "
    "property=\"ex:p\" resource=\"http://ex.org/b\">x</div></body>",
    "café — 中文 > gt",
    "a < b",
    "<script>if (a < b) {}</script><p>x</p>",
    "<style>p { color: red }</style>text",
    "<p class=bare>x</p>",
    "<?xml version=\"1.0\"?><p>x</p>",
    "<![CDATA[x]]><p>y</p>",
    "<!ELEMENT x><p>y</p>",
    "<p title=\"a>b\">x</p>",
    "<!-->x<!---->y",
    "</>x</ p>y",
    "<p\va=\"x\">vt</p>",
    "<title>a&amp;b <i>x</i></title><p>y</p>",
    "<textarea><p>x</p> &lt;</textarea>z",
    "a<!--x--!>b-->c",
    "</script>x</STYLE>y",
]


@pytest.mark.parametrize("doc", EDGE_PAGES)
def test_edge_pages(doc):
    _check(doc.encode("utf-8"))
    _check(doc.encode("utf-8") + b"\xff\xfe tail")


# -- coverage ---------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synth_corpus_takes_fast_path(seed):
    """The kg_build benchmark's pages (1,500 per seed) all take the
    fast path, so the benchmark times it."""
    t = page_batch(seed, 0, 1500, 1500)
    for i, html in enumerate(t["html"].to_pylist()):
        text = html.decode("utf-8", "replace")
        fast = X._fast_tree(text)
        assert fast is not None, f"page {i} declined"
        if i % 10 == 0:
            assert _events(fast) == _events(X._parser_tree(text)), f"page {i}"


DECLINES = {
    "stray_lt": "<body vocab=\"https://schema.org/\"><p property=\"name\""
                ">a < b</p></body>",
    "script": "<body><script>var x = '<p>';</script><p>t</p></body>",
    "unquoted": "<body vocab=https://schema.org/><p typeof=Book>t</p></body>",
    "pi": "<?xml version=\"1.0\"?><body><p>t</p></body>",
    "cdata": "<body><![CDATA[<p>no</p>]]><p>t</p></body>",
    "style": "<head><style>p>a{}</style></head><body>t</body>",
    "eq_run": "<body><p class==\"x\">t</p></body>",
    "declaration": "<!ENTITY x \"y\"><body>t</body>",
}


@pytest.mark.parametrize("name", sorted(DECLINES))
def test_decline_classes_fall_back(name):
    doc = DECLINES[name]
    assert X._fast_tree(doc) is None
    assert _events(X.parse_html(doc)) == _events(X._parser_tree(doc))
    assert not _check(doc.encode("utf-8"))


@pytest.mark.parametrize("name", X._RAW_TEXT)
def test_raw_text_elements_decline_before_the_memo(name):
    """Every element the installed html.parser reads as raw text hands
    its page back before any tag token is read or memoised."""
    doc = ('<body><p class="m1">x</p><%s>a<b>&amp;</b></%s><p class="m2">'
           "y</p></body>" % (name.upper(), name))
    X._TAG_MEMO.clear()
    assert X._fast_tree(doc) is None
    assert not X._TAG_MEMO
    assert _events(X.parse_html(doc)) == _events(X._parser_tree(doc))


def test_declined_page_builds_no_tree():
    """A token or a '<' outside the grammar at the end of a page
    declines it before a node is built."""
    built = []

    class Counting(X._Node):
        __slots__ = ()

        def __init__(self, tag, attrs):
            built.append(tag)
            super().__init__(tag, attrs)

    doc = "<body>" + '<p class="x">t</p>' * 50 + "<p class=bare>t</p></body>"
    node, X._Node = X._Node, Counting
    try:
        assert X._fast_tree(doc) is None
        ok = doc.replace("class=bare", 'class="q"')
        assert X._fast_tree(ok.replace("</body>", "a < b</body>")) is None
        assert not built
        assert X._fast_tree(ok) is not None
        assert built
    finally:
        X._Node = node


# -- tag memo ---------------------------------------------------------------

def test_tag_memo_stays_under_cap():
    cap = X._TAG_MEMO_MAX
    X._TAG_MEMO.clear()
    peak = 0
    cleared = False
    per_doc = 50
    for d in range(2 * cap // per_doc + 10):
        doc = "<body>" + "".join(
            '<p class="c%d">x</p>' % (d * per_doc + k) for k in range(per_doc)
        ) + "</body>"
        before = len(X._TAG_MEMO)
        root = X.parse_html(doc)
        after = len(X._TAG_MEMO)
        cleared |= after < before
        peak = max(peak, after)
        assert after <= cap
        assert _events(root) == _events(X._parser_tree(doc))
    assert cleared and peak > cap - 2 * per_doc
    # long tokens (inline data: URIs, JSON attributes) stay out of it
    X._TAG_MEMO.clear()
    blob = "A" * (2 * X._MEMO_TOKEN_MAX)
    doc = "<body>" + "".join(
        '<img src="data:image/png;base64,%s%d"><p data-j=\'{"k": "%s"}\'>'
        "x</p>" % (blob, k, blob) for k in range(100)) + "</body>"
    assert _events(X.parse_html(doc)) == _events(X._parser_tree(doc))
    assert X._TAG_MEMO
    assert all(len(tok) <= X._MEMO_TOKEN_MAX for tok in X._TAG_MEMO)
    # nodes own their attribute dicts: editing one leaves the memo intact
    doc = '<p class="c0">x</p>'
    X.parse_html(doc).children[0].attrs["class"] = "edited"
    assert X.parse_html(doc).children[0].attrs == {"class": "c0"}


# -- deep nesting -----------------------------------------------------------

DEPTH = 5000


def _deep_page(depth: int) -> bytes:
    return ('<html><body vocab="https://schema.org/">'
            '<div resource="https://example.org/b/1" typeof="Book">'
            '<div property="name">'
            + "".join("<p>%d" % i for i in range(depth))
            + "</div></div></body></html>").encode("utf-8")


def test_walkers_keep_document_order():
    doc = ('<div>pre<section><body vocab="https://schema.org/">'
           '<div typeof="Book"><span property="name">a<i>b</i>c</span>'
           '<p>d<b>e</b>f</p><span property="isbn">g</span></div>h</body>'
           '</section></div><body>not this one</body>')
    text, triples = X.extract_both(doc, URL)
    assert text == "a\nb\nc\nd\ne\nf\ng\nh"
    assert [(t[1].rsplit("/", 1)[1], t[2]) for t in triples[1:]] == [
        ("name", "abc"), ("isbn", "g")]


def test_deeply_nested_page_extracts():
    page = _deep_page(DEPTH)
    text, triples = X.extract_both(page, URL)
    levels = [str(i) for i in range(DEPTH)]
    assert text == "\n".join(levels)
    assert [t[1] for t in triples] == [X.RDF_TYPE, "https://schema.org/name"]
    assert triples[1][2] == "".join(levels)
    assert X.extract_rdfa(page, URL, strict=True) == triples
    with _parser_only():
        assert X.extract_both(page, URL) == (text, triples)
        assert X.extract_rdfa(page, URL, strict=True) == triples
    # an unclosed-<p> page that is also outside the fast grammar
    messy = page.replace(b"<html>", b"<html><?pi?>")
    assert X._fast_tree(messy.decode()) is None
    assert X.extract_both(messy, URL) == (text, triples)

    batch = pa.table({"url": [URL], "html": [page]})
    links = PageKGExtractor()(batch)
    assert links.num_rows > 0
    assert set(links["src_url"].to_pylist()) == {URL}
