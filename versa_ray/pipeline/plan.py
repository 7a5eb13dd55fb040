"""Compiled per-batch form of a ``generic_pipeline`` rule set.

``compile_plan`` reads the three rule dicts ``generic_pipeline`` takes
(through the constructor arguments each action records on its closure)
and returns a :class:`RulePlan` when every rule is in the subset the
web flagship's ``kg_rules()`` uses:

* fingerprint: ``materialize(T, fprint=[(k, follow(rel)), ...])``
* transform: ``link(rel=R)`` and ``link(rel=R, target=lookup("@resource"))``
* labelize: ``follow(rel)``

Anything else compiles to ``None``: such a rule set runs only on the
interpreter (``generic_pipeline``), as the CLI ``transform`` does.

A plan runs a whole batch of documents at once, without a
``MicroModel``, a context or an action call per link: it groups each
document's triples by subject (with the rdf:type -> ``VTYPE_REL``
rename; the input model's duplicate refusal is applied to the output
links, where it has the same effect), hashes every fingerprint of
the batch in one ``simple_hashstrings`` call, then applies
the rel map, the ``@resource`` lookup and the labels, emitting
canonical link columns directly. The output equals the interpreter's
``to_rows()`` row for row, in order (tests/test_plan.py checks it).
A document the plan cannot reproduce exactly goes to the caller's
``fallback`` (the interpreter), decided from its own triples:

* a subject that matches two fingerprint rules (it then has two
  main entities, and the plan maps each subject to one);
* a fingerprint-typed subject with no fingerprint values (the
  interpreter takes the order-dependent counter ID);
* a triple with an empty subject or rel (the interpreter raises) or
  a null target.

The plan assumes ``generic_pipeline``'s default root context: no
vocabulary base and no ``lookups`` extras.
"""

from __future__ import annotations

from ..core import I, RDF_TYPE_REL, VLABEL_REL, VTYPE_REL, matches_uri_ref_syntax
from ..core.canon import EMPTY_ATTRS
from ..core.hashing import fingerprint_text, simple_hashstrings
from .context import is_pipeline_action

_VTYPE, _VLABEL = str(VTYPE_REL), str(VLABEL_REL)


def _args(action, kind):
    """Constructor arguments of a ``kind`` action, or None."""
    if not is_pipeline_action(action) or action.__name__ != "_" + kind:
        return None
    return getattr(action, "action_args", None)


def _follow_rel(action):
    """The one rel of a plain ``follow(rel)``, or None."""
    a = _args(action, "follow")
    if a is None or a["origin"] is not None or a["action"] is not None:
        return None
    rels = a["rels"]
    if len(rels) != 1 or not isinstance(rels[0], str) or not rels[0]:
        return None
    return str(rels[0])


def _fingerprint_rule(rule):
    """(output type, ((key, follow rel), ...)) of a plain materialize."""
    a = _args(rule, "materialize")
    if a is None:
        return None
    typ, fprint = a["typ"], a["fprint"]
    if not isinstance(typ, str) or not matches_uri_ref_syntax(typ):
        return None  # the interpreter would raise on I(typ)
    if (a["rel"], a["origin"], a["unique"], a["split"], a["attributes"],
            a["vars"]) != (None,) * 6 or a["links"] or a["preserve_fprint"]:
        return None
    if not isinstance(fprint, (list, tuple)) or not fprint:
        return None
    pairs = []
    for pair in fprint:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            return None
        k, v = pair
        frel = _follow_rel(v)
        if not isinstance(k, str) or not k or k == VTYPE_REL or frel is None:
            return None
        pairs.append((str(k), frel))
    return str(typ), tuple(pairs)


def _transform_rule(rule):
    """(output rel, is_lookup) of ``link(rel=R[, target=lookup("@resource")])``."""
    a = _args(rule, "link")
    if a is None:
        return None
    rel, target = a["rel"], a["target"]
    if (a["origin"], a["value"], a["source"]) != (None,) * 3 or a["attributes"]:
        return None
    if not isinstance(rel, str) or not rel or rel == VTYPE_REL:
        return None
    if target is None:
        return str(rel), False
    t = _args(target, "lookup")
    if t is None or (t["mapping"], t["key"], t["onmiss"]) != ("@resource", None, None):
        return None
    return str(rel), True


def compile_plan(fingerprint_rules, transform_rules, labelize_rules):
    """A :class:`RulePlan` for the three rule dicts, or None when any
    rule is outside the compiled subset."""
    fp, tr, lab = {}, {}, {}
    for n, (typ, rule) in enumerate(fingerprint_rules.items()):
        spec = _fingerprint_rule(rule)
        if spec is None or not isinstance(typ, str):
            return None
        fp[str(typ)] = (n, *spec)
    for rel, rule in transform_rules.items():
        spec = _transform_rule(rule)
        if spec is None or not isinstance(rel, str):
            return None
        tr[str(rel)] = spec
    for typ, rule in labelize_rules.items():
        lrel = _follow_rel(rule)
        if lrel is None or not isinstance(typ, str):
            return None
        lab[str(typ)] = lrel
    return RulePlan(fp, tr, lab)


class RulePlan:
    """The compiled fingerprint -> transform -> labelize rules."""

    def __init__(self, fingerprint, transform, labelize):
        # input type -> (rule number, output type,
        #                ((fingerprint key, input rel), ...))
        self.fingerprint = fingerprint
        # input rel -> (output rel, target is an @resource lookup)
        self.transform = transform
        # output type -> rel whose targets become labels
        self.labelize = labelize

    def _group(self, triples):
        """One document's triples as {subject: [(rel, target)]} in
        first-appearance order plus its fingerprinted subjects
        [(subject, rule, values)], or None to fall back. Repeated
        triples stay: ``_emit`` refuses duplicate output links, and a
        repeat keeps the first one's place there as the input model's
        refusal does."""
        by_subj = {}
        for s, p, o, _ in triples:
            if not s or not p or o is None:
                return None
            rel = VTYPE_REL if p == RDF_TYPE_REL else p
            links = by_subj.get(s)
            if links is None:
                by_subj[s] = links = []
            links.append((rel, o))
        ents = []
        fp = self.fingerprint
        for s, links in by_subj.items():
            rule = None
            for rel, o in links:
                if rel == VTYPE_REL and o in fp:
                    if rule is not None and rule is not fp[o]:
                        return None
                    rule = fp[o]
            if rule is None:
                continue
            vals = tuple(tuple(o for rel, o in links if rel == frel)
                         for _, frel in rule[2])
            if not any(vals):
                return None
            ents.append((s, rule, vals))
        return by_subj, ents

    @staticmethod
    def _entity_ids(grouped):
        """{(rule number, fingerprint values): entity ID} for every
        fingerprinted subject of the batch, hashed in one call."""
        texts = {}
        for g in grouped:
            if g is None:
                continue
            for _, (n, typ, keys), vals in g[1]:
                key = (n, vals)
                if key not in texts:
                    texts[key] = fingerprint_text(typ, {
                        (k, v) for (k, _), vs in zip(keys, vals) for v in vs})
        return dict(zip(texts, simple_hashstrings(list(texts.values()))))

    def run(self, docs, fallback):
        """Link columns for a batch of ``(tint, triples)`` documents:
        ``LINK_COLUMNS`` plus ``src_url`` (the tint of each row's
        document).
        ``fallback(tint, triples)`` returns the interpreter's output
        model for a document the plan does not reproduce."""
        grouped = [self._group(triples) for _, triples in docs]
        ids = self._entity_ids(grouped)
        origin, rel, target, is_iri, src = [], [], [], [], []
        for (tint, triples), g in zip(docs, grouped):
            n0 = len(origin)
            if g is None:
                for row in fallback(tint, triples).to_rows():
                    origin.append(row["origin"])
                    rel.append(row["rel"])
                    target.append(row["target"])
                    is_iri.append(row["target_is_iri"])
            else:
                self._emit(g, ids, origin, rel, target, is_iri)
            src.extend([tint] * (len(origin) - n0))
        return {"origin": origin, "rel": rel, "target": target,
                "target_is_iri": is_iri,
                "attrs": [EMPTY_ATTRS] * len(origin), "src_url": src}

    def _emit(self, g, ids, origin, rel, target, is_iri):
        by_subj, ents = g
        seen = set()
        by_origin_rel = {}

        def add(o, r, t, iri):
            key = (o, r, t)
            if key in seen:
                return
            seen.add(key)
            origin.append(o)
            rel.append(r)
            target.append(str(t))
            is_iri.append(iri)
            by_origin_rel.setdefault((o, r), []).append(t)

        mains = [(s, ids[(n, vals)], typ) for s, (n, typ, _), vals in ents]
        resource = {s: objid for s, objid, _ in mains}
        types = {}
        for _, objid, typ in mains:
            if objid not in types:
                types[objid] = typ
                add(objid, _VTYPE, typ, True)
        transform = self.transform
        for s, objid, _ in mains:
            for r, t in by_subj[s]:
                spec = transform.get(r)
                if spec is None:
                    continue
                out_rel, is_lookup = spec
                if is_lookup:
                    t = resource.get(t)
                    if t is not None:
                        add(objid, out_rel, t, True)
                else:
                    add(objid, out_rel, t, isinstance(t, I))
        for objid, typ in types.items():
            lrel = self.labelize.get(typ)
            if lrel is None:
                continue
            for label in list(by_origin_rel.get((objid, lrel), ())):
                label = str(label).strip() if label else ""
                if label:
                    add(objid, _VLABEL, label, False)
