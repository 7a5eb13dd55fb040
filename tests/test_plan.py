"""Compiled rule plan (pipeline/plan.py) against the action
interpreter: the flagship's per-page link rows must be identical, row
for row and in order, on both paths. In-process, no Ray."""

import pyarrow as pa
import pytest

from versa_ray.pipeline import follow, if_, link, materialize
from versa_ray.pipeline.plan import compile_plan
from versa_ray.web.extract import extract_both
from versa_ray.web.kgpipeline import (BF, LINKS_OUT_SCHEMA, SCH,
                                      PageKGExtractor, kg_rules)
from versa_ray.web.synth import page_batch

VOCAB = '<body vocab="https://schema.org/">%s</body>'
PERSON = ('<div resource="https://example.org/p/%s" typeof="Person">'
          '<meta property="name" content="%s">'
          '<meta property="birthDate" content="1970-01-01"></div>')

# name -> (html, True when the plan must fall back to the interpreter)
EDGE_PAGES = {
    "no-vocab": ('<body><div typeof="Person">'
                 '<span property="name">Ada</span></div></body>', False),
    "no-rdfa": ("<html><body><p>plain text only</p></body></html>", False),
    "book-no-isbn": (VOCAB % (
        '<article resource="https://example.org/b/1" typeof="Book">'
        '<h1 property="name">Untitled</h1></article>'), True),
    "person-no-fprint": (VOCAB % (
        '<div typeof="Person"><span>nobody</span></div>'), True),
    "same-person-twice": (VOCAB % (
        PERSON % ("1", "Ada") + PERSON % ("2", "Ada")
        + '<article resource="https://example.org/b/2" typeof="Book">'
        '<meta property="isbn" content="123">'
        '<a property="author" href="https://example.org/p/1">a</a>'
        '<a property="author" href="https://example.org/p/2">b</a>'
        '</article>'), False),
    "two-names": (VOCAB % (
        '<div resource="https://example.org/p/3" typeof="Person">'
        '<span property="name">Grace</span>'
        '<span property="name">Grace Hopper</span></div>'), False),
    "author-lookup-miss": (VOCAB % (
        '<article resource="https://example.org/b/3" typeof="Book">'
        '<meta property="isbn" content="456">'
        '<a property="author" href="https://example.org/nobody">x</a>'
        '<a property="publisher" href="https://example.org/o/1">o</a>'
        '</article>'
        '<div resource="https://example.org/o/1" typeof="Organization">'
        '<meta property="name" content="Later Press"></div>'), False),
    "property-resource-self-triple": (VOCAB % (
        '<div property="author" resource="https://example.org/p/4" '
        'typeof="Person"><meta property="name" content="Self"></div>'),
        False),
    "non-ascii-name": (VOCAB % (PERSON % ("5", "Zoë Ōtsuka 作家")), False),
    "whitespace-name": (VOCAB % (
        '<div resource="https://example.org/o/2" typeof="Organization">'
        '<span property="name">   </span></div>'), False),
    "duplicated-lines": (VOCAB % (
        '<article resource="https://example.org/b/4" typeof="Book Book">'
        '<meta property="isbn" content="789">'
        '<meta property="isbn" content="789">'
        '<meta property="inLanguage" content="en">'
        '<meta property="inLanguage" content="en"></article>'), False),
    "href-name": (VOCAB % (
        '<div resource="https://example.org/o/3" typeof="Organization">'
        '<a property="name" href="https://example.org/names/x">x</a>'
        '</div>'), False),
    "two-fingerprint-types": (VOCAB % (
        '<div resource="https://example.org/p/6" typeof="Person Organization">'
        '<meta property="name" content="Both"></div>'), True),
}


def _docs(pages):
    return [(url, extract_both(html, url)[1])
            for url, html in zip(pages["url"].to_pylist(),
                                 pages["html"].to_pylist())]


def _interpreter_rows(ex, docs):
    return [dict(row, src_url=url) for url, triples in docs
            for row in ex._transform(url, triples).to_rows()]


def _plan_rows(plan, ex, docs, fell_back):
    def fallback(url, triples):
        fell_back.append(url)
        return ex._transform(url, triples)

    return pa.Table.from_pydict(plan.run(docs, fallback),
                                schema=LINKS_OUT_SCHEMA).to_pylist()


@pytest.mark.parametrize("seed", [1, 2])
def test_plan_equals_interpreter_per_page_on_synth_corpus(seed):
    ex = PageKGExtractor()
    plan = compile_plan(*kg_rules())
    docs = _docs(page_batch(seed, 0, 300, 300))
    fell_back = []
    for doc in docs:
        assert _plan_rows(plan, ex, [doc], fell_back) == \
            _interpreter_rows(ex, [doc]), doc[0]
    assert fell_back == []


def test_plan_equals_interpreter_on_edge_pages():
    ex = PageKGExtractor()
    plan = compile_plan(*kg_rules())
    for name, (html, falls_back) in EDGE_PAGES.items():
        url = "https://example.org/edge/" + name
        docs = [(url, extract_both(html.encode("utf-8"), url)[1])]
        fell_back = []
        got = _plan_rows(plan, ex, docs, fell_back)
        assert got == _interpreter_rows(ex, docs), name
        assert fell_back == ([url] if falls_back else []), name


def test_plan_batch_interleaves_fallback_pages_in_order():
    """One batch mixing synth pages and every edge page, so fallback
    rows land between plan rows and the fingerprints of the whole batch
    hash in one call: the table equals the per-page interpreter rows
    concatenated, and the extractor emits exactly that table."""
    synth = page_batch(3, 0, 40, 40)
    urls = synth["url"].to_pylist()
    htmls = synth["html"].to_pylist()
    for k, (name, (html, _)) in enumerate(EDGE_PAGES.items()):
        urls.insert(3 * k, "https://example.org/edge/" + name)
        htmls.insert(3 * k, html.encode("utf-8"))
    pages = pa.table({"url": urls, "html": htmls})
    ex = PageKGExtractor()
    want = _interpreter_rows(ex, _docs(pages))
    fell_back = []
    assert _plan_rows(compile_plan(*kg_rules()), ex, _docs(pages),
                      fell_back) == want
    assert len(fell_back) == sum(fb for _, fb in EDGE_PAGES.values())
    assert ex(pages).to_pylist() == want


def test_rules_outside_the_subset_do_not_compile():
    fingerprint, transform, labelize = kg_rules()
    assert compile_plan(fingerprint, transform, labelize) is not None
    with_links = dict(fingerprint)
    with_links[SCH("Book")] = materialize(
        BF("Instance"), fprint=[(BF("isbn"), follow(SCH("isbn")))],
        links=[(BF("title"), follow(SCH("name")))])
    assert compile_plan(with_links, transform, labelize) is None
    with_if = dict(transform)
    with_if[SCH("name")] = link(rel=BF("name"), target=if_(True, "x"))
    assert compile_plan(fingerprint, with_if, labelize) is None
    as_if = dict(labelize)
    as_if[BF("Person")] = if_(True, follow(BF("name")))
    assert compile_plan(fingerprint, transform, as_if) is None


def test_extractor_refuses_rules_the_plan_cannot_compile(monkeypatch):
    import versa_ray.web.kgpipeline as kgp

    fingerprint, transform, labelize = kg_rules()
    with_if = dict(transform)
    with_if[SCH("name")] = link(rel=BF("name"), target=if_(True, "x"))
    monkeypatch.setattr(kgp, "kg_rules",
                        lambda: (fingerprint, with_if, labelize))
    with pytest.raises(ValueError, match="outside the rule subset"):
        kgp.PageKGExtractor()


def test_check_text_without_text_column_raises():
    pages = page_batch(1, 0, 2, 2).select(["url", "html"])
    with pytest.raises(ValueError, match="'text' column"):
        PageKGExtractor(check_text=True)(pages)
    assert PageKGExtractor()(pages).num_rows > 0
