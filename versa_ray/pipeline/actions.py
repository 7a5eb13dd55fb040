"""Pipeline action functions — the transform DSL.

Higher-order functions returning closures tagged ``is_pipeline_action``
that run against a :class:`versa_ray.pipeline.context.context`.
Semantics follow the reference action set
(/root/reference/tools/py/pipeline/link_materialize_actions.py and
other_actions.py) with two deliberate exclusions for safety and
determinism: no ``eval``-based string tests (``if_`` accepts only
callables/values) and no arbitrary ``run()`` of Python source.

Inside the engine these actions execute doc-locally within a
``map_batches`` task — each input record is an independent micro-model,
so no shared mutable state crosses task boundaries. Global effects
(dedup of emitted links, entity reconciliation) are realized by the
downstream shuffle stages, which is sound because all IDs are content
fingerprints.
"""

from __future__ import annotations

import re

from ..core import I, VTYPE_REL, VFPRINT_REL, absolutize
from ..model import vutil
from .context import context, is_pipeline_action

__all__ = [
    "link", "materialize", "COPY",
    "var", "extra", "attr", "contains", "origin", "rel", "target", "values",
    "ifexists", "if_", "foreach", "follow", "toiri", "lookup",
    "regex_match_modify", "compose", "ignore", "replace_from",
    "action_template", "SKIP", "materialize_entity", "create_resource",
]

SKIP = object()
_DEFAULT = object()


def _run(val, ctx):
    """Evaluate an argument that may be an action function."""
    return val(ctx) if is_pipeline_action(val) else val


def _mark(f, args=None):
    """Tag ``f`` as an action. ``args`` records the constructor's own
    arguments so ``pipeline.plan`` can read a rule set without
    running it."""
    f.is_pipeline_action = True
    if args is not None:
        f.action_args = args
    return f


# ---------------------------------------------------------------------------
# Entity materialization


def materialize_entity(ctx, etype, fprint=None):
    """Compute the content-fingerprint ID for a new entity
    (pipeline/main.py:139-155 semantics, deterministic-only)."""
    from ..core.hashing import fingerprint_text, simple_hashstring

    processed = []
    for k, v in fprint or []:
        processed.append((k, _run(v, ctx)))
    # vocabbase resolution
    if ctx.base:
        from ..core import is_absolute

        if not is_absolute(etype):
            etype = ctx.base + etype
        processed = [
            (k if is_absolute(k) else ctx.base + k, v) for (k, v) in processed
        ]
    plaintext = fingerprint_text(etype, processed)
    if plaintext is None:
        # Reference falls back to a counter-random ID with a warning;
        # we use the deterministic per-document counter sequence.
        return I(next(ctx.idgen))
    return I(ctx.idgen.send(plaintext))


def create_resource(output_model, rtypes, fprint, links, existing_ids=None, id_helper=None, preserve_fprint=False):
    """Imperative entity creation outside rule matching
    (pipeline/main.py:158-198)."""
    from .context import deterministic_idgen

    rtypes = rtypes if isinstance(rtypes, list) else [rtypes]
    rtype, *moretypes = rtypes
    links = list(links)
    for t in moretypes:
        links.append([VTYPE_REL, t])

    if isinstance(id_helper, str):
        idg = deterministic_idgen(id_helper)
    elif id_helper is None:
        idg = deterministic_idgen(None)
    else:
        idg = id_helper
    ctx = context(None, None, output_model, base=None, idgen=idg, existing_ids=existing_ids)
    rid = materialize_entity(ctx, rtype, fprint=fprint)
    if existing_ids is not None:
        if rid in existing_ids:
            return (False, rid)
        existing_ids.add(rid)
    output_model.add(rid, VTYPE_REL, rtype)
    if preserve_fprint:
        attrs = {k: v for (k, v) in fprint}
        attrs[VTYPE_REL] = rtypes
        output_model.add(rid, VFPRINT_REL, rtype, attrs)
    for r, t in links:
        output_model.add(rid, r, t)
    return (True, rid)


# ---------------------------------------------------------------------------
# link & materialize


def link(origin=None, rel=None, target=None, value=None, attributes=None, source=None):
    """Emit link(s) built from the context's current link with any
    components overridden; list-valued components multiply out
    (link_materialize_actions.py:20-77)."""
    args = dict(origin=origin, rel=rel, target=target, value=value,
                attributes=attributes, source=source)
    origin = _DEFAULT if origin is None else origin
    rel = _DEFAULT if rel is None else rel
    if target is None:
        target = value or _DEFAULT
    attributes = attributes or {}

    def _link(ctx):
        if source:
            if not is_pipeline_action(source):
                raise ValueError("Link source must be a pattern action function")
            for sub in source(ctx):
                o, r, t, _ = sub.current_link
                sub.output_model.add(o, r, t, attributes)
            return

        (co, cr, ct, ca) = ctx.current_link
        _o = _run(origin, ctx)
        o_list = [co] if _o is _DEFAULT else (_o if isinstance(_o, list) else [_o])
        _r = _run(rel, ctx)
        r_list = [cr] if _r is _DEFAULT else (_r if isinstance(_r, list) else [_r])
        _t = _run(target, ctx)
        t_list = [ct] if _t is _DEFAULT else (_t if isinstance(_t, list) else [_t])
        _attrs = _run(attributes, ctx)
        for o in o_list:
            for r in r_list:
                for t in t_list:
                    if None in (o, r, t):
                        continue
                    ctx.output_model.add(o, r, t, _attrs)

    return _mark(_link, args)


class COPY:
    """Signal for materialize: copy the context origin resource from
    input to output with the identical ID (selected rels or all)."""

    def __init__(self, rels=None):
        self.rels = rels
        self.id = None
        self.links = []


def _expand_attrs(attr_pairs):
    """(k, v) pair tuple -> attr dict, folding repeats into lists."""
    attrs = {}
    for k, v in attr_pairs:
        if k not in attrs:
            attrs[k] = v
        elif isinstance(attrs[k], list):
            attrs[k].append(v)
        else:
            attrs[k] = [attrs[k], v]
    return attrs


def _guarded_add(model, o, r, t, attr_pairs, added):
    """Add with a per-run added-links guard (the reference's
    _smart_add; link_materialize_actions.py:81-103)."""
    key = (str(o), str(r), str(t), tuple(attr_pairs))
    if key in added:
        return
    model.add(o, r, t, _expand_attrs(attr_pairs))
    added.add(key)


def materialize(typ, rel=None, origin=None, unique=None, fprint=None, links=None,
                split=None, attributes=None, attach=True, preserve_fprint=False,
                vars=None, debug=None):
    """Create a new resource related to the origin; the central
    triple-emitter of the DSL (link_materialize_actions.py:106-358).

    Emits: the attaching link(s) origin-(rel)->objid, the VTYPE link,
    optionally a VFPRINT link, and the nested ``links`` with stem/vein
    context chaining; multi-valued targets split on ``split``.
    """
    args = dict(typ=typ, rel=rel, origin=origin, unique=unique, fprint=fprint,
                links=links, split=split, attributes=attributes,
                attach=attach, preserve_fprint=preserve_fprint, vars=vars)
    links = links or []

    def _materialize(ctx):
        # vars= mappings land in a copied variable scope
        vars_items = list((vars or {}).items())
        if vars_items:
            ctx = ctx.copy(variables=ctx.variables.copy())
            for k, v in vars_items:
                if None in (k, v):
                    continue
                v = _run(v, ctx)
                if v:
                    ctx.variables[k] = v

        (o, r, t, a) = ctx.current_link
        if typ is None:
            raise ValueError("typ (type) argument to materialize cannot be None")
        if isinstance(typ, COPY):
            object_copy = typ
            object_copy.id = o
            _typ = next(vutil.resourcetypes(ctx.input_model, o), None)
            object_copy.links = []
            for stmt in ctx.input_model.match(o):
                if object_copy.rels is None or stmt[1] in object_copy.rels:
                    object_copy.links.append((stmt[1], stmt[2]))
        else:
            _typ = _run(typ, ctx)
            object_copy = None
        _fprint = fprint(ctx) if is_pipeline_action(fprint) else (fprint or unique)

        targets = (
            [sub.strip() for sub in t.split(split) if sub.strip()] if split else [t]
        )

        # a null rel in BOTH the context link and the params means
        # "don't attach" — the fingerprint-stage signal
        attach_ = False if rel is None and r is None else attach

        added = ctx.extras.setdefault("@added-links", set())
        rels = rel if isinstance(rel, list) else ([rel] if rel else [r])
        objids = []

        for target_ in targets:
            ctx_stem = ctx.copy(current_link=(o, r, target_, a))
            stem_o = o
            if origin:
                stem_o = origin(ctx_stem) if is_pipeline_action(origin) else origin
            if not stem_o:
                continue

            computed_fprint = set()
            first_type = _typ[0] if isinstance(_typ, list) else _typ
            rtypes = set(_typ if isinstance(_typ, list) else [_typ])
            if _fprint:
                for k, v in _fprint:
                    if None in (k, v):
                        continue
                    for subitem in v if isinstance(v, list) else [v]:
                        subval = _run(subitem, ctx_stem)
                        if subval:
                            subval = subval if isinstance(subval, list) else [subval]
                            if k == VTYPE_REL:
                                rtypes.update(subval)
                            computed_fprint.update((k, s) for s in subval)
            for extra_t in rtypes:
                if extra_t != first_type:
                    computed_fprint.add((VTYPE_REL, extra_t))

            if object_copy:
                objid = object_copy.id
            else:
                objid = materialize_entity(ctx_stem, first_type, fprint=computed_fprint)
            objids.append(objid)

            for relobj in rels:
                curr_rels = _run(relobj, ctx_stem)
                curr_rels = curr_rels if isinstance(curr_rels, list) else [curr_rels]
                for curr_rel in curr_rels:
                    if not curr_rel:
                        continue
                    if curr_rel.isdigit():
                        curr_rel = "_" + curr_rel
                    if attach_:
                        _guarded_add(
                            ctx_stem.output_model,
                            I(stem_o),
                            I(absolutize(curr_rel, ctx_stem.base)),
                            I(objid),
                            (),
                            added,
                        )

            # links are only processed the first time an objid appears
            # in this run; globally safe because IDs and payloads are
            # content-derived (emit+distinct equivalence)
            if objid not in ctx_stem.existing_ids:
                if first_type:
                    _guarded_add(
                        ctx_stem.output_model,
                        I(objid),
                        VTYPE_REL,
                        I(absolutize(first_type, ctx_stem.base)),
                        (),
                        added,
                    )
                if preserve_fprint:
                    non_type = [(k, v) for (k, v) in computed_fprint if k != VTYPE_REL]
                    fp_attrs = tuple(non_type + [(VTYPE_REL, rt) for rt in rtypes])
                    _guarded_add(
                        ctx_stem.output_model, I(objid), VFPRINT_REL, first_type,
                        fp_attrs, added,
                    )

                all_links = object_copy.links + links if object_copy else links
                for l in all_links:
                    if len(l) == 2:
                        lo, (lr, lt) = I(objid), l
                    elif len(l) == 3:
                        lo, lr, lt = l
                    else:
                        raise ValueError(l)

                    vein_vars = ctx_stem.variables.copy()
                    vein_vars["@stem"] = ctx_stem.current_link[0]
                    ctx_vein = ctx_stem.copy(
                        current_link=(objid, ctx_stem.current_link[1],
                                      ctx_stem.current_link[2], ctx_stem.current_link[3]),
                        variables=vein_vars,
                    )
                    lo = lo or ctx_vein.current_link[0]
                    lr = lr or ctx_vein.current_link[1]
                    lt = lt or ctx_vein.current_link[2]

                    lo = _run(lo, ctx_vein)
                    lo = lo if isinstance(lo, list) else [lo]
                    lr = _run(lr, ctx_vein)
                    ctx_vein = ctx_stem.copy(
                        current_link=(ctx_vein.current_link[0], lr,
                                      ctx_vein.current_link[2], ctx_stem.current_link[3]),
                        variables=vein_vars,
                    )

                    # an action returning a list of contexts drives
                    # dynamic link generation directly
                    if isinstance(lr, list):
                        if lr and isinstance(lr[0], context):
                            for newctx in lr:
                                lt(newctx)
                            continue

                    if lr:
                        lt = _run(lt, ctx_vein)
                        if lt is not None:
                            if lr.isdigit():
                                lr = "_" + lr
                            _lr = I(absolutize(lr, ctx_vein.base))
                            if isinstance(lt, list):
                                for valitem in lt:
                                    if not valitem:
                                        continue
                                    for loi in lo:
                                        _guarded_add(
                                            ctx_vein.output_model, loi, _lr, valitem, (), added
                                        )
                            else:
                                for loi in lo:
                                    _guarded_add(
                                        ctx_vein.output_model, loi, _lr, lt, (), added
                                    )
                ctx_stem.existing_ids.add(objid)
                for func in ctx.extras.get("@new-entity-hook", []):
                    func(objid)
        return objids

    return _mark(_materialize, args)


# ---------------------------------------------------------------------------
# Scalar / context accessors


def var(name):
    def _var(ctx):
        return ctx.variables.get(_run(name, ctx))

    return _mark(_var)


def extra(key, default=None):
    def _extra(ctx):
        return ctx.extras.get(_run(key, ctx), _run(default, ctx))

    return _mark(_extra)


def attr(aid):
    def _attr(ctx):
        return ctx.current_link[3].get(_run(aid, ctx))

    return _mark(_attr)


def contains(l, val):
    def _contains(ctx):
        _l = _run(l, ctx)
        vlist = val if isinstance(val, list) else [val]
        return any(v in _l for v in vlist)

    return _mark(_contains)


def origin(fprint=None):
    """Origin of the current link, or an entity ID computed from a
    fingerprint whose first pair must be the type rel
    (other_actions.py:75-120)."""

    def _origin(ctx):
        o = ctx.current_link[0]
        if is_pipeline_action(fprint):
            return fprint(ctx)
        if fprint:
            typ = None
            computed = []
            for k, v in fprint:
                if typ is None:
                    if k != VTYPE_REL:
                        raise ValueError(
                            "Key of the first unique list pair must be the Versa type relationship"
                        )
                    typ = v
                if None in (k, v):
                    continue
                for subitem in v if isinstance(v, list) else [v]:
                    subval = _run(subitem, ctx)
                    if subval:
                        subval = subval if isinstance(subval, list) else [subval]
                        computed.extend((k, s) for s in subval)
            return materialize_entity(ctx, typ, fprint=computed)
        return o

    return _mark(_origin)


def rel():
    def _rel(ctx):
        return ctx.current_link[1]

    return _mark(_rel)


def target():
    def _target(ctx):
        return ctx.current_link[2]

    return _mark(_target)


def values(*rels):
    def _values(ctx):
        out = []
        for r in rels:
            r = _run(r, ctx)
            if isinstance(r, list):
                out.extend(r)
            else:
                out.append(r)
        return out

    return _mark(_values)


# ---------------------------------------------------------------------------
# Control flow


def ifexists(test, value, alt=None):
    def _ifexists(ctx):
        return _run(value, ctx) if _run(test, ctx) else _run(alt, ctx)

    return _mark(_ifexists)


def if_(test, iftrue, iffalse=None, vars_=None):
    """Ternary (other_actions.py:213-249). String tests are evaluated
    over a SAFE whitelisted expression subset (safe_expr.py) instead
    of the reference's Python ``eval``: ``target`` is bound to the
    current link target and each entry of ``vars_`` is run (actions
    first) and bound by name, matching the reference's binding
    environment."""

    def _if_(ctx):
        if isinstance(test, str):
            from .safe_expr import safe_eval

            out_vars = {"target": ctx.current_link[2]}
            for k, v in (vars_ or {}).items():
                out_vars[str(k)] = _run(v, ctx)
            t = safe_eval(test, out_vars)
        else:
            t = _run(test, ctx)
        if t:
            return _run(iftrue, ctx)
        if iffalse is not None:
            return _run(iffalse, ctx)
        return None

    return _mark(_if_)


def foreach(origin=None, rel=None, target=None, attributes=None, action=None):
    """Cartesian product of component lists -> subcontexts
    (other_actions.py:253-292)."""

    def _foreach(ctx):
        _o, _r, _t, _a = (
            _run(origin, ctx), _run(rel, ctx), _run(target, ctx), _run(attributes, ctx),
        )
        (o, r, t, a) = ctx.current_link
        o_l = [o] if _o is None else (_o if isinstance(_o, list) else [_o])
        r_l = [r] if _r is None else (_r if isinstance(_r, list) else [_r])
        t_l = [t] if _t is None else (_t if isinstance(_t, list) else [_t])
        a_l = [a] if _a is None else (_a if isinstance(_a, list) else [_a])
        subcontexts = [
            ctx.copy(current_link=(co, cr, ct, ca))
            for co in o_l for cr in r_l for ct in t_l for ca in a_l
            if co
        ]
        if action:
            if not is_pipeline_action(action):
                raise TypeError("foreach() action arg must be callable")
            for sub in subcontexts:
                action(sub)
            return None
        return subcontexts

    return _mark(_foreach)


def follow(*rels, origin=None, action=None):
    """Multi-hop traversal in the input model: repeated frontier
    expansion via indexed match (other_actions.py:295-329)."""

    def _follow(ctx):
        assert ctx.input_model is not None
        _origin = _run(origin, ctx)
        _rels = [_run(r, ctx) for r in rels]
        (o, in_rel, t, a) = ctx.current_link
        computed_o = o if _origin is None else _origin
        frontier = [(computed_o, a)]
        for rel_ in _rels:
            nxt = []
            for fo, fa in frontier:
                for _, r, ft, fattrs in ctx.input_model.match(fo, rel_):
                    nxt.append((ft, fattrs))
            frontier = nxt
        if action:
            if not is_pipeline_action(action):
                raise TypeError("follow() action arg must be callable")
            results = []
            for ft, fa in frontier:
                sub = ctx.copy(current_link=(computed_o, in_rel, ft, fa))
                res = action(sub)
                res = [] if res is None else (res if isinstance(res, list) else [res])
                results.extend(res)
            return results
        return [ft for (ft, fa) in frontier]

    return _mark(_follow, dict(rels=rels, origin=origin, action=action))


# ---------------------------------------------------------------------------
# Value transforms


def toiri(arg, base=None, ignore_refs=True):
    from ..core import is_absolute, percent_encode

    def _toiri(ctx):
        _arg = _run(arg, ctx)
        _arg = [_arg] if not isinstance(_arg, list) else _arg
        ret = []
        for u in _arg:
            iu = u
            if not (ignore_refs and not is_absolute(iu)):
                try:
                    iu = I(iu)
                except ValueError:
                    try:
                        iu = I(percent_encode(iu))
                    except ValueError:
                        pass
                if base is not None and isinstance(iu, I):
                    iu = I(absolutize(iu, base))
            ret.append(iu)
        return ret

    return _mark(_toiri)


def lookup(mapping, key=None, onmiss=None):
    """Value lookup from an inline dict or one named in ctx.extras
    (broadcast tables in the distributed engine;
    other_actions.py:366-404)."""

    def _lookup(ctx):
        (_, _, t, _) = ctx.current_link
        _key = key(ctx) if is_pipeline_action(key) else (t if key is None else key)
        if isinstance(mapping, str):
            _mapping = (
                ctx.extras["lookups"][mapping]
                if "lookups" in ctx.extras
                else ctx.extras[mapping]
            )
        else:
            _mapping = mapping
        _onmiss = onmiss
        if onmiss is None:
            _onmiss = key
        elif onmiss is SKIP:
            _onmiss = None
        if isinstance(_key, list):
            _key = next(iter(_key), None)
        return _mapping.get(_key, _onmiss)

    return _mark(_lookup, dict(mapping=mapping, key=key, onmiss=onmiss))


def regex_match_modify(pattern, group_or_func, value=None):
    def _regex_modify(ctx):
        _pattern = re.compile(pattern) if isinstance(pattern, str) else pattern
        (_, _, t, _) = ctx.current_link
        _value = value(ctx) if is_pipeline_action(value) else (t if value is None else value)
        match = _pattern.match(_value)
        if not match:
            return _value
        if callable(group_or_func) and not isinstance(group_or_func, str):
            return group_or_func(match)
        return match.groupdict().get(group_or_func, "")

    return _mark(_regex_modify)


def compose(*funcs):
    """a, b, c, d evaluates as a(b(c(d(ctx))))."""

    def _compose(ctx):
        result = funcs[-1](ctx)
        for f in reversed(funcs[:-1]):
            result = f(result)
        return result

    return _mark(_compose)


def ignore():
    def _ignore(ctx):
        return None

    return _mark(_ignore)


def replace_from(patterns, old_text):
    def _replace_from(ctx):
        _old = _run(old_text, ctx)
        _old = [] if _old is None else _old
        was_list = isinstance(_old, list)
        _old = _old if was_list else [_old]
        new_texts = set()
        for text in _old:
            new_text = text
            for pat, repl in patterns:
                if pat.match(text):
                    new_text = pat.sub(repl, text)
            new_texts.add(new_text)
        out = list(new_texts)
        return out if was_list else out[0]

    return _mark(_replace_from)


def action_template(proto):
    """Reusable parameterized action macro (other_actions.py:498-510)."""

    def _prep(**terms):
        def _wrapper(ctx):
            for term, val in terms.items():
                ctx.variables[term] = _run(val, ctx)
            return proto(ctx)

        return _mark(_wrapper)

    return _prep
