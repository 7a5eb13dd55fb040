"""Doc-local pipeline runner: rule-dict matching & staged execution.

Replicates the reference transform strategy
(/root/reference/tools/py/pipeline/main.py:232-470): a fingerprint
stage maps input resources to output entities by type rules, a
transform stage matches each outbound input link against rel (or
(rel, Type...)-tuple) rules, and a labelize stage derives labels for
typed output resources. All of it runs against one document's
micro-models.

Where this interpreter runs: the CLI ``transform`` command and every
rule set outside the compiled subset of ``pipeline/plan.py``. The web
flagship (``web/kgpipeline.PageKGExtractor``) runs its rules as the
compiled plan and calls this interpreter only for the pages the plan
hands back; the interpreter is also the reference the plan is tested
against row for row (tests/test_plan.py).
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from ..core import VLABEL_REL, VTYPE_REL
from ..model import vutil
from ..model.micro import MicroModel
from .context import DUMMY_CONTEXT, context


def stage(sortkey):
    if callable(sortkey):
        raise RuntimeError("Use the decorator as @stage(N) rather than @stage")

    def _stage(func):
        func.pipeline_sort_key = sortkey
        return func

    return _stage


def _make_list(lvalue, *items):
    new = lvalue if isinstance(lvalue, list) else [lvalue]
    new.extend(items)
    return new


class definition:
    """A pipeline definition: methods decorated @stage(N) run in
    sortkey order; a stage returning False aborts the run."""

    def __init__(self):
        self._stages = []
        self._stages_hash = None

    def __setattr__(self, name, value):
        # adding a @stage(N) callable to an INSTANCE after a run must
        # invalidate the cached stage list (run() is per-document hot
        # path, so no dir() rescan per run; class-level monkeypatching
        # after the first run still needs an explicit
        # `inst._stages_hash = None`)
        if hasattr(value, "pipeline_sort_key"):
            self.__dict__["_stages_hash"] = None
        object.__setattr__(self, name, value)

    def _collect_stages(self):
        # collected once per instance (run() is called per document in
        # the hot path; a dir()/getattr scan per run is measurable).
        if self._stages_hash is not None:
            return
        names = [k for k in dir(self) if hasattr(getattr(self, k), "pipeline_sort_key")]
        stages = [getattr(self, k) for k in names]
        self._stages = sorted(
            ((int(s.pipeline_sort_key), s) for s in stages), key=itemgetter(0)
        )
        self._stages_hash = hash(tuple(names))

    def run(self, input_model=None, raw_source=None, output_model=None, **kwargs):
        self._collect_stages()
        self.input_model = MicroModel() if input_model is None else input_model
        self.output_model = MicroModel() if output_model is None else output_model
        self._raw_source = raw_source
        self.fingerprints = {}
        for _, st in self._stages:
            if st(**kwargs) is False:
                break
        return self.output_model

    # -- helpers (pipeline/main.py:290-433 semantics) ----------------------

    def fingerprint_helper(self, rules, root_context=DUMMY_CONTEXT):
        new_rids = set()
        for rid in list(vutil.all_origins(self.input_model)):
            for typ in vutil.resourcetypes(self.input_model, rid):
                if typ not in rules:
                    continue
                rule_tup = rules[typ]
                rule_tup = (
                    rule_tup if isinstance(rule_tup, (list, tuple)) else (rule_tup,)
                )
                for rule in rule_tup:
                    # insertion-ordered dicts, not sets: the order of a
                    # subject's mains is the order of its output rows,
                    # which must not depend on the string-hash seed
                    out_rids = {}

                    def new_entity(eid, _sink=out_rids):
                        _sink[eid] = None

                    # null rel signals materialize not to attach
                    link = (rid, None, typ, {})
                    ctx = root_context.copy(
                        current_link=link,
                        input_model=self.input_model,
                        output_model=self.output_model,
                    )
                    ne_hook = ctx.extras.setdefault("@new-entity-hook", [])
                    ctx.extras["@new-entity-hook"] = _make_list(ne_hook, new_entity)
                    mains = rule(ctx)
                    mains = mains if isinstance(mains, list) else [mains]
                    curr_m, curr_o = self.fingerprints.setdefault(rid, ({}, {}))
                    curr_m.update(dict.fromkeys(mains))
                    curr_o.update(out_rids)
                    for m in curr_m:
                        curr_o.pop(m, None)
                    new_rids.update(out_rids)
        return new_rids

    def transform_by_rel_helper(self, rules, origins=None, handle_misses=None,
                                root_context=DUMMY_CONTEXT):
        origins = origins or self.fingerprints
        applied = 0
        types_cache = {}
        # index rules by rel ONCE: plain rspecs apply to the main
        # entities, (rel, *types) rspecs to mains+others with a type
        # check — same matching semantics as the per-link scan, minus
        # the per-link loop over every rule
        plain_by_rel = {}
        typed_by_rel = {}
        for rspec, rule in rules.items():
            if isinstance(rspec, tuple):
                typed_by_rel.setdefault(rspec[0], []).append(
                    (rule, tuple(rspec[1:]))
                )
            else:
                plain_by_rel.setdefault(rspec, []).append(rule)
        # fingerprints are fixed during the transform stage; build the
        # @resource view once (rules read it, never mutate it)
        resource_map = {k: list(m) for (k, (m, _)) in self.fingerprints.items()}
        for rid in origins:
            mains, others = origins[rid]
            for o, r, t, attribs in self.input_model.match(rid):
                match_sets = {}
                for rule in plain_by_rel.get(r, ()):
                    for out_rid in mains:
                        match_sets[rule, out_rid] = None
                for rule, typs in typed_by_rel.get(r, ()):
                    for out_rid in itertools.chain(mains, others):
                        if out_rid not in types_cache:
                            types_cache[out_rid] = frozenset(
                                vutil.resourcetypes(self.output_model, out_rid)
                            )
                        if any(typ in types_cache[out_rid] for typ in typs):
                            match_sets[rule, out_rid] = None
                if not match_sets:
                    if handle_misses:
                        handle_misses((rid, r, t, attribs))
                    continue
                for rule, out_rid in match_sets:
                    link = (out_rid, r, t, attribs)
                    variables = root_context.variables.copy()
                    variables["input-resource"] = rid
                    extras = root_context.extras.copy()
                    extras["@resource"] = resource_map
                    ctx = root_context.copy(
                        current_link=link,
                        input_model=self.input_model,
                        output_model=self.output_model,
                        variables=variables,
                        extras=extras,
                    )
                    rule(ctx)
                    applied += 1
        return applied

    def labelize_helper(self, rules, label_rel=VLABEL_REL, origins=None,
                        handle_misses=None, root_context=DUMMY_CONTEXT):
        new_labels = {}
        for out_rid in vutil.all_origins(self.output_model, of_types="*"):
            for typ in vutil.resourcetypes(self.output_model, out_rid):
                if typ not in rules:
                    continue
                rule = rules[typ]
                link = (out_rid, VTYPE_REL, typ, {})
                ctx = root_context.copy(
                    current_link=link,
                    input_model=self.output_model,
                    output_model=self.output_model,
                )
                out_labels = rule(ctx)
                if not out_labels:
                    continue
                for label in out_labels:
                    if not label or not str(label).strip():
                        if handle_misses:
                            handle_misses(out_rid, typ)
                        continue
                    label = str(label).strip()
                    new_labels[out_rid] = label
                    self.output_model.add(out_rid, label_rel, label)
        return new_labels


class generic_pipeline(definition):
    """fingerprint -> transform -> labelize, from three rule dicts.

    Each run gets a FRESH context scope (extras, existing-ids, idgen
    counter): unlike the reference — whose DUMMY_CONTEXT leaks the
    @added-links guard between runs — a run here is a pure function of
    (rules, input model), which is required for the distributed engine
    where any worker may re-execute a document."""

    def __init__(self, fingerprint_rules, transform_rules, labelize_rules,
                 root_ctx=DUMMY_CONTEXT):
        self.fingerprint_rules = fingerprint_rules
        self.transform_rules = transform_rules
        self.labelize_rules = labelize_rules
        self._base_ctx = root_ctx
        self._root_ctx = root_ctx
        super().__init__()

    def run(self, input_model=None, raw_source=None, output_model=None, **kwargs):
        from .context import deterministic_idgen

        base = self._base_ctx
        self._root_ctx = context(
            base.current_link,
            None,
            output_model=base.output_model,
            base=base.base,
            variables=dict(base.variables),
            extras=dict(base.extras),
            idgen=deterministic_idgen(base.base, tint=str(kwargs.get("doc_tint", ""))),
            existing_ids=set(),
        )
        return super().run(
            input_model=input_model, raw_source=raw_source, output_model=output_model
        )

    @stage(1)
    def fingerprint(self):
        # returning False (no new resources) aborts the run
        return bool(
            self.fingerprint_helper(self.fingerprint_rules, root_context=self._root_ctx)
        )

    @stage(2)
    def main_transform(self):
        self.transform_by_rel_helper(self.transform_rules, root_context=self._root_ctx)
        return True

    @stage(3)
    def labelize(self):
        self.labelize_helper(self.labelize_rules, root_context=self._root_ctx)
        return True
