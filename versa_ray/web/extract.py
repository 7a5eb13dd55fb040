"""HTML text extraction and RDFa-Lite triple extraction.

``parse_html`` builds one ``_Node`` tree per document; the text and
RDFa walkers read that tree. It has two tokenizers that build the same
tree:

* the fast path (``_fast_tree``) splits the decoded document once on
  tag tokens and reads each tag through a strict grammar (letters,
  digits and ``-`` in names, quoted attribute values, whitespace-only
  separators, comments, ``<!DOCTYPE ...>``). Short parsed tag tokens
  are kept in a bounded per-process memo, since most tags of a corpus
  repeat;
* any document with a construct outside that grammar (an element
  html.parser reads as raw text, such as ``script`` / ``style``, a
  ``<`` that does not open a well-formed tag, unquoted or ``=``-run
  attribute values, ``<?``, ``<![CDATA[`` or any other markup
  declaration) is parsed whole by the stdlib ``html.parser``
  (``_TreeBuilder``), the exact reference for the fast path
  (tests/test_extract_fast.py). A raw-text element is found by one
  scan before the split, so a page with a ``<script>`` costs
  html.parser plus that scan.

The RDFa-Lite walker follows the attribute semantics of the reference
extractor (rdfalite.py:78-172): track ``vocab`` / ``prefix`` /
``resource`` down the tree; ``typeof`` emits rdf:type statements;
``property`` emits a statement whose value is the nested resource if
present, else ``content`` / ``href`` / ``src`` / the element's text
value; unlike the reference, blank nodes are DETERMINISTIC
(content-derived per document), because random bnode ids would break
distributed re-execution and dedup. Every walker is iterative, so a
page nested thousands of elements deep extracts like any other.

Both functions are stateless and run vectorized-per-row inside
``map_batches`` tasks; per-document cost is one parse.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser, commentclose

from ..core import I, RDF_NS, absolutize
from ..core.hashing import simple_hashstring

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
_SKIP_TEXT = frozenset(("script", "style", "template"))

DEFAULT_PREFIXES = {
    "rdf": str(RDF_NS),
    "schema": "https://schema.org/",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "dc": "http://purl.org/dc/terms/",
    "bf": "http://bibfra.me/vocab/lite/",
}

RDF_TYPE = str(RDF_NS) + "type"


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag, attrs):
        self.tag = tag
        self.attrs = attrs
        self.children = []  # _Node or str (text)

    def text_value(self) -> str:
        """Concatenated descendant text (reference xml_value)."""
        out = []
        stack = [iter(self.children)]
        while stack:
            for c in stack[-1]:
                if isinstance(c, str):
                    out.append(c)
                else:
                    stack.append(iter(c.children))
                    break
            else:
                stack.pop()
        return "".join(out)


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", {})
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = _Node(tag, dict(attrs))
        self.stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(_Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        for ix in range(len(self.stack) - 1, 0, -1):
            if self.stack[ix].tag == tag:
                del self.stack[ix:]
                break

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)

    def parse_marked_section(self, i, report=1):
        # html.parser raises AssertionError on a '<![' that is not a
        # known marked section ('<![x', '<![1'); read it as the
        # bogus comment HTML5 makes of it rather than fail the page
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


def _parser_tree(html: str) -> _Node:
    """The stdlib html.parser tree: the fallback and the reference."""
    tb = _TreeBuilder()
    tb.feed(html)
    tb.close()
    return tb.root


# -- fast path: one regex split, a strict tag grammar, a tag memo ----------
#
# Every '<' of an accepted document opens a tag token that the grammar
# below reads, so html.parser would see the same tags and the same data
# runs between them. It calls html.unescape on each data run and on each
# non-empty attribute value, lower-cases tag and attribute names, keeps
# the last of duplicate attributes, and drops comments and declarations
# (a comment still ends the data run before it). Its raw-text elements
# (script/style, and title/textarea in versions with an RCDATA mode)
# read their content up to the end tag, so a document that opens one is
# declined; the element names and the comment close are html.parser's
# own, so the two paths agree on whichever version is installed.

_RAW_TEXT = (HTMLParser.CDATA_CONTENT_ELEMENTS
             + getattr(HTMLParser, "RCDATA_CONTENT_ELEMENTS", ()))
_opens_raw_text = re.compile("<(?:%s)" % "|".join(_RAW_TEXT), re.I).search
_split_tags = re.compile(r"(<[^<>]*>)").split
_START_TAG = re.compile(
    r"<([a-zA-Z][a-zA-Z0-9-]*)"
    r"((?:[ \t\n\r\f]+[a-zA-Z_:][a-zA-Z0-9_:.-]*"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(?:\"[^\"]*\"|'[^']*'))?)*)"
    r"[ \t\n\r\f]*(/?)>\Z")
_ATTR = re.compile(
    r"[ \t\n\r\f]+([a-zA-Z_:][a-zA-Z0-9_:.-]*)"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(\"[^\"]*\"|'[^']*'))?")
_END_TAG = re.compile(r"</([a-zA-Z][a-zA-Z0-9-]*)[ \t\n\r\f]*>\Z")

# tag token kinds: an element that opens (pushed), one that does not
# (void or self-closing), an end tag, and a dropped comment/declaration
_OPEN, _LEAF, _CLOSE, _SKIP = range(4)
_SKIPPED = (_SKIP, None, None)

# parsed tag tokens, per process; cleared whenever it reaches the cap.
# Only tokens up to _MEMO_TOKEN_MAX chars go in (a long inline value,
# such as a data: URI, rarely repeats), so it holds a few MiB at most.
_TAG_MEMO: dict = {}
_TAG_MEMO_MAX = 8192
_MEMO_TOKEN_MAX = 256


def _read_tag(tok: str):
    """One tag token -> (kind, name, attrs), or None outside the grammar."""
    c = tok[1:2]
    if c == "/":
        m = _END_TAG.match(tok)
        if m is None:
            return None
        return _CLOSE, m.group(1).lower(), None
    if c == "!":
        if tok.startswith("<!--"):
            # the comment must close inside this token, as html.parser
            # closes it at the first commentclose match after '<!--'
            return _SKIPPED if commentclose.search(tok, 4) else None
        return _SKIPPED if tok[:9].lower() == "<!doctype" else None
    m = _START_TAG.match(tok)
    if m is None:
        return None
    name = m.group(1).lower()
    attrs = {}
    for aname, value in _ATTR.findall(m.group(2)):
        if value:
            value = value[1:-1]
            if value:
                value = unescape(value)
        else:
            value = None
        attrs[aname.lower()] = value
    kind = _LEAF if m.group(3) or name in VOID_ELEMENTS else _OPEN
    return kind, name, attrs


def _fast_tree(html: str):
    """The ``_parser_tree`` of a document inside the fast grammar, or
    None for any other document. Every token is read before any node is
    built, so a declined document costs a split and a memo pass."""
    if _opens_raw_text(html):
        return None
    parts = _split_tags(html)  # text runs and tag tokens alternate
    toks = parts[1::2]
    if html.count("<") != len(toks):  # a '<' that opens no tag token
        return None
    texts = parts[0::2]
    memo = _TAG_MEMO
    entries = list(map(memo.get, toks))
    if None in entries:
        for ix, entry in enumerate(entries):
            if entry is None:
                tok = toks[ix]
                entry = entries[ix] = _read_tag(tok)
                if entry is None:
                    return None
                if len(tok) <= _MEMO_TOKEN_MAX:
                    if len(memo) >= _TAG_MEMO_MAX:
                        memo.clear()
                    memo[tok] = entry
    root = _Node("#root", {})
    stack = [root]
    kids = root.children
    for text, (kind, name, attrs) in zip(texts, entries):
        if text:
            kids.append(unescape(text) if "&" in text else text)
        if kind == _OPEN:
            node = _Node(name, dict(attrs))
            kids.append(node)
            stack.append(node)
            kids = node.children
        elif kind == _LEAF:
            kids.append(_Node(name, dict(attrs)))
        elif kind == _CLOSE:
            for ix in range(len(stack) - 1, 0, -1):
                if stack[ix].tag == name:
                    del stack[ix:]
                    kids = stack[-1].children
                    break
    text = texts[-1]
    if text:
        kids.append(unescape(text) if "&" in text else text)
    return root


def parse_html(html) -> _Node:
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", "replace")
    root = _fast_tree(html)
    return _parser_tree(html) if root is None else root


def _find(node: _Node, tag: str):
    """First descendant element named ``tag``, in document order."""
    stack = [iter(node.children)]
    while stack:
        for c in stack[-1]:
            if not isinstance(c, str):
                if c.tag == tag:
                    return c
                stack.append(iter(c.children))
                break
        else:
            stack.pop()
    return None


def extract_text(html) -> str:
    """Byte-stable text extraction: stripped text chunks of the <body>
    (whole document if no body), document order, newline-joined;
    script/style/template content skipped.

    This exact convention is the per-row invariant checked against the
    corpus's golden ``text`` column.
    """
    return text_from_tree(parse_html(html))


def text_from_tree(root: _Node) -> str:
    body = _find(root, "body") or root
    segments = []
    stack = [iter(body.children)]  # body's own tag is never skipped
    while stack:
        for c in stack[-1]:
            if isinstance(c, str):
                s = c.strip()
                if s:
                    segments.append(s)
            elif c.tag not in _SKIP_TEXT:
                stack.append(iter(c.children))
                break
        else:
            stack.pop()
    return "\n".join(segments)


def extract_rdfa(html, source_uri: str, strict: bool = False):
    """RDFa-Lite extraction -> list of (subject, predicate, object,
    obj_is_iri) tuples, document order, duplicates preserved.

    ``strict=True`` enables W3C-RDFa behaviors the reference's lite
    walker simplifies (rdfalite.py:78-172): the ``about`` attribute
    sets the element's subject; ``property`` + ``resource`` chains
    (parent-subject, prop, resource) instead of the lite walker's
    self-triple (it overwrites the subject with ``resource`` before
    emitting); ``prefix``/CURIE properties work without a ``vocab``
    in scope. Default (lite) mode is bit-compatible with the
    reference walker."""
    return rdfa_from_tree(parse_html(html), source_uri, strict=strict)


def extract_both(html, source_uri: str):
    """One parse, both products: (text, rdfa triples). The hot path for
    the page extraction stage — HTML parsing dominates, so share the
    tree."""
    root = parse_html(html)
    return text_from_tree(root), rdfa_from_tree(root, source_uri)


_RDFA_ATTRS = ("prefix", "about", "resource", "typeof", "property")


def rdfa_from_tree(root: _Node, source_uri: str, strict: bool = False):
    triples = []
    bnode_counter = [0]
    doc_tag = simple_hashstring(source_uri)

    def bnode():
        bnode_counter[0] += 1
        return I("_:b%s-%d" % (doc_tag, bnode_counter[0]))

    # pre-order walk: one (children, scope) frame per open element
    stack = [(iter((root,)), source_uri, None, None)]
    while stack:
        elems, resource, vocab, prefixes = stack[-1]
        for elem in elems:
            if not isinstance(elem, str):
                break
        else:
            stack.pop()
            continue
        prefixes = prefixes or dict(DEFAULT_PREFIXES)
        attrs = elem.attrs
        vocab = attrs.get("vocab", vocab)
        # lite mode gates ALL rdfa processing on a vocab in scope (the
        # reference walker's behavior); strict processes rdfa
        # attributes whenever any is present (CURIEs work vocab-less)
        active = vocab or (strict and any(a in attrs for a in _RDFA_ATTRS))
        if active:
            prefix = attrs.get("prefix")
            if prefix:
                bits = prefix.split()
                for i in range(0, len(bits) - 1, 2):
                    prefixes = dict(prefixes)
                    prefixes[bits[i].strip().rstrip(":")] = bits[i + 1].strip()
            about_subj = None
            if strict:
                about = attrs.get("about")
                if about:
                    try:
                        about_subj = I(absolutize(about, source_uri))
                        resource = about_subj
                    except ValueError:
                        pass
            subject = resource  # the property-triple subject in strict mode
            new_resource = attrs.get("resource")
            if new_resource:
                try:
                    new_resource = I(absolutize(new_resource, source_uri))
                    if not strict:
                        # lite quirk (reference rdfalite.py:106): the
                        # subject is overwritten BEFORE property
                        # emission, so property+resource co-occurrence
                        # yields a self-triple
                        resource = new_resource
                except ValueError:
                    new_resource = None

            typeof_list = attrs.get("typeof")
            if typeof_list:
                if strict and about_subj is not None:
                    # RDFa 1.1: @about wins as the typed resource even
                    # when @resource co-occurs (resource is then the
                    # current OBJECT, not the typed subject)
                    type_subj = about_subj
                else:
                    if not new_resource:
                        new_resource = bnode()
                    type_subj = new_resource or resource
                for typeof in typeof_list.split():
                    typ = None
                    if ":" in typeof:
                        p, local = typeof.split(":", 1)
                        if strict and p in prefixes:
                            try:
                                typ = I(absolutize(local, prefixes[p]))
                            except ValueError:
                                typ = None
                    if typ is None:
                        if not vocab:
                            continue
                        try:
                            typ = I(absolutize(typeof, vocab))
                        except ValueError:
                            continue
                    triples.append((type_subj, RDF_TYPE, typ, True))

            prop_list = attrs.get("property")
            new_value = None
            if prop_list:
                if new_resource:
                    new_value = new_resource
                for raw_prop in prop_list.split():
                    if raw_prop == "about":
                        continue
                    if ":" in raw_prop:
                        p, local = raw_prop.split(":", 1)
                        if p not in prefixes:
                            continue
                        try:
                            prop = I(absolutize(local, prefixes[p]))
                        except ValueError:
                            continue
                    else:
                        if not vocab:
                            continue  # bare terms need a vocab (both modes)
                        try:
                            prop = I(absolutize(raw_prop, vocab))
                        except ValueError:
                            continue
                    value = None
                    if new_value:
                        value = new_value
                    else:
                        for src_attr in ("content", "href", "src"):
                            v = attrs.get(src_attr)
                            if v:
                                try:
                                    value = I(v) if src_attr in ("href", "src") else v
                                except ValueError:
                                    value = None
                                break
                        if value is None:
                            value = elem.text_value()
                    subj = subject if strict else resource
                    triples.append((subj, prop, value, isinstance(value, I)))
            if new_value:
                resource = new_value
            elif strict and new_resource:
                resource = new_resource
        stack.append((iter(elem.children), resource, vocab, prefixes))
    return triples
