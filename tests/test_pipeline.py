"""Pipeline conformance — the five scenarios of the reference's
test/py/test_pipeline.py (same fixtures, same rule structure, same
exact output link counts and hash-ID anchor i5GvPVm7ClA), plus the
dedup-idempotence re-run check.
"""

import pytest
from conftest import read_reference, requires_reference

from versa_ray.core import I, VTYPE_REL
from versa_ray.model import MicroModel, vutil
from versa_ray.pipeline import (
    action_template,
    follow,
    generic_pipeline,
    link,
    lookup,
    materialize,
    origin,
    target,
    var,
)
from versa_ray.serial import literate

SCH = I("https://schema.org/")
BF = I("http://bibfra.me/")
WT = BF("Work")
IT = BF("Instance")

LABELIZE_RULES = {
    BF("Work"): follow(BF("name")),
    BF("Instance"): follow(BF("name")),
    BF("Person"): follow(BF("name")),
}

CATCHER_MD = "test/resource/schemaorg/catcherintherye-ugly.md"
BLACKSTAR_MD = "test/resource/schemaorg/blackstar.md"
CATCHER = read_reference(CATCHER_MD)
BLACKSTAR = read_reference(BLACKSTAR_MD)
needs_catcher = requires_reference(CATCHER_MD)
needs_blackstar = requires_reference(BLACKSTAR_MD)


def _author_materialize(**extra_kwargs):
    return materialize(
        BF("Person"),
        BF("creator"),
        vars={"birthDate": follow(SCH("authorBirthDate"), origin=var("input-resource"))},
        fprint=[(BF("name"), target()), (BF("birthDate"), var("birthDate"))],
        links=[(BF("name"), target()), (BF("birthDate"), var("birthDate"))],
        **extra_kwargs,
    )


@needs_catcher
def test_basics_1():
    modin = literate.parse(CATCHER)
    FINGERPRINT_RULES = {
        SCH("Book"): materialize(
            BF("Instance"), fprint=[(BF("isbn"), follow(SCH("isbn")))]
        )
    }
    TRANSFORM_RULES = {
        SCH("name"): link(rel=BF("name")),
        SCH("author"): _author_materialize(),
    }
    ppl = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
    modout = ppl.run(input_model=modin)
    assert len(modout) == 8
    assert len(list(vutil.all_origins(modout, only_types={BF("Instance")}))) == 1
    assert len(list(vutil.all_origins(modout, only_types={BF("Person")}))) == 1
    assert len(list(modout.match(None, BF("birthDate"), "1919-01-01"))) == 1


@needs_catcher
def test_basics_2_preserve_fprint_and_idempotent_rerun():
    modin = literate.parse(CATCHER)
    FINGERPRINT_RULES = {
        SCH("Book"): materialize(
            BF("Instance"), fprint=[(BF("isbn"), follow(SCH("isbn")))]
        )
    }
    TRANSFORM_RULES = {
        SCH("name"): link(rel=BF("name")),
        SCH("author"): _author_materialize(preserve_fprint=True),
    }
    ppl = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
    modout = ppl.run(input_model=modin)
    assert len(modout) == 9
    assert len(list(vutil.all_origins(modout, only_types={BF("Instance")}))) == 1
    assert len(list(vutil.all_origins(modout, only_types={BF("Person")}))) == 1

    # Re-run with a redundant type assertion in the fingerprint; merged
    # output must not change (dedup invariance, test_pipeline.py:144-173)
    TRANSFORM_RULES[SCH("author")] = materialize(
        BF("Person"),
        BF("creator"),
        vars={"birthDate": follow(SCH("authorBirthDate"), origin=var("input-resource"))},
        fprint=[
            (BF("name"), target()),
            (BF("birthDate"), var("birthDate")),
            (VTYPE_REL, BF("Person")),
        ],
        links=[(BF("name"), target()), (BF("birthDate"), var("birthDate"))],
        preserve_fprint=True,
    )
    ppl2 = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
    modout.update(ppl2.run(input_model=modin))
    assert len(modout) == 9
    assert len(list(modout.match(None, BF("birthDate"), "1919-01-01"))) == 1


@needs_catcher
def test_basics_3_nested_materialize():
    modin = literate.parse(CATCHER)
    FINGERPRINT_RULES = {
        SCH("Book"): materialize(
            var("itype"),
            fprint=[(BF("isbn"), follow(SCH("isbn")))],
            links=[
                (
                    BF("instantiates"),
                    materialize(
                        BF("Work"),
                        fprint=[
                            (BF("name"), follow(SCH("title"))),
                            (BF("creator"), follow(SCH("author"))),
                            (BF("language"), var("lang")),
                        ],
                        links=[("http://instantiated-by", var("@stem"))],
                        attach=False,
                    ),
                )
            ],
            vars={"lang": follow(SCH("inLanguage")), "itype": BF("Instance")},
        )
    }
    TRANSFORM_RULES = {
        (SCH("name"), WT, IT): link(rel=BF("name")),
        (SCH("author"), WT): materialize(
            BF("Person"),
            BF("creator"),
            vars={"birthDate": follow(SCH("authorBirthDate"), origin=var("input-resource"))},
            fprint=[
                (VTYPE_REL, SCH("Novelist")),
                (BF("name"), target()),
                (BF("birthDate"), var("birthDate")),
            ],
            links=[
                (VTYPE_REL, SCH("Novelist")),
                (BF("name"), target()),
                (BF("birthDate"), var("birthDate")),
            ],
            preserve_fprint=True,
        ),
    }
    ppl = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
    modout = ppl.run(input_model=modin)
    assert len(modout) == 15
    for typ in ("Instance", "Work", "Person"):
        assert len(list(vutil.all_origins(modout, only_types={BF(typ)}))) == 1
    assert len(list(modout.match(None, BF("birthDate"), "1919-01-01"))) == 1


@needs_catcher
def test_basics_4_action_template():
    modin = literate.parse(CATCHER)
    new_work = action_template(
        materialize(
            BF("Work"),
            fprint=[
                (BF("name"), var("title")),
                (BF("creator"), var("author")),
                (BF("language"), var("lang")),
            ],
            links=[("http://instantiated-by", var("stem"))],
            attach=False,
        )
    )
    FINGERPRINT_RULES = {
        SCH("Book"): materialize(
            BF("Instance"),
            fprint=[(BF("isbn"), follow(SCH("isbn")))],
            links=[
                (
                    BF("instantiates"),
                    new_work(
                        title=follow(SCH("title")),
                        creator=follow(SCH("author")),
                        lang=var("lang"),
                        stem=origin(),
                    ),
                )
            ],
            vars={"lang": follow(SCH("inLanguage"))},
        )
    }
    TRANSFORM_RULES = {
        (SCH("name"), WT, IT): link(rel=BF("name")),
        (SCH("author"), WT): materialize(
            BF("Person"),
            BF("creator"),
            vars={"birthDate": follow(SCH("authorBirthDate"), origin=var("input-resource"))},
            fprint=[
                (VTYPE_REL, SCH("Novelist")),
                (BF("name"), target()),
                (BF("birthDate"), var("birthDate")),
            ],
            links=[
                (VTYPE_REL, SCH("Novelist")),
                (BF("name"), target()),
                (BF("birthDate"), var("birthDate")),
            ],
            preserve_fprint=True,
        ),
    }
    ppl = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES)
    modout = ppl.run(input_model=modin)
    assert len(modout) == 15
    for typ in ("Instance", "Work", "Person"):
        assert len(list(vutil.all_origins(modout, only_types={BF(typ)}))) == 1


@needs_blackstar
def test_basics_5_musicbrainz_and_id_anchor():
    MB = I("https://musicbrainz.org/doc/MusicBrainz_Database/Schema/")
    R_TYP, RG_TYP, A_TYP = MB("Release"), MB("ReleaseGroup"), MB("Artist")
    DOC = I("http://example.org/records/")

    modin = literate.parse(BLACKSTAR)
    modin.add(DOC("md"), SCH("comment"), "test")

    FINGERPRINT_RULES = {
        SCH("MusicAlbum"): materialize(
            MB("ReleaseGroup"),
            fprint=[
                (MB("title"), follow(SCH("name"))),
                (MB("artist"), follow(SCH("byArtist"), SCH("name"))),
            ],
            links=[
                (
                    MB("contains"),
                    materialize(
                        MB("Release"),
                        fprint=[(MB("catalogue-number"), var("catnum"))],
                        links=[(MB("catalogue-number"), var("catnum"))],
                    ),
                )
            ],
            vars={"catnum": follow(SCH("catalogNumber"))},
        ),
        SCH("Person"): materialize(
            MB("Artist"),
            fprint=[(MB("name"), var("aname"))],
            links=[(MB("name"), var("aname")), (MB("remark"), var("comment"))],
            vars={"aname": follow(SCH("name")), "comment": follow(SCH("comment"))},
        ),
    }
    TRANSFORM_RULES = {
        (SCH("name"), R_TYP, RG_TYP): link(rel=MB("title")),
        (SCH("byArtist"), R_TYP): link(rel=MB("by"), target=lookup("@resource")),
    }
    MB_LABELIZE = {
        MB("ReleaseGroup"): follow(MB("title")),
        MB("Release"): follow(MB("title")),
        MB("Artist"): follow(MB("name")),
    }
    ppl = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, MB_LABELIZE)
    modout = ppl.run(input_model=modin)
    assert len(modout) == 16
    assert len(list(vutil.all_origins(modout, only_types={MB("ReleaseGroup")}))) == 1
    assert len(list(vutil.all_origins(modout, only_types={MB("Artist")}))) == 2
    # The hash-stable materialized-ID anchor from the reference suite
    assert [l[0] for l in modout.match(None, MB("remark"), "test")] == [I("i5GvPVm7ClA")]


INPUT_GRAPH_1 = '''\
# @docheader

* @iri:
    * @base: http://example.org/records/
    * @schema: https://schema.org/

# black-star [MusicAlbum]

* name: Mos Def & Talib Kweli Are Black Star
* byArtist: <md>
* byArtist: <tk>
* inLanguage: en

# train [MusicAlbum]

* name: Train of Thought
* byArtist: <tk>
* byArtist: <ht>
* inLanguage: en

# md [Person]

* alternateName: Mos Def
* name: Yasiin Bey
* birthDate: 1973-12-11

# tk [Person]

* alternateName: Talib Kweli
* name: Talib Kweli Greene
* birthDate: 1975-10-03

# ht [Person]

* alternateName: Hi-Tek
* name: Tony Cottrell
* birthDate: 1976-05-05
'''


def test_copy_filtering():
    """Graph trimming via COPY (reference test_pipeline_filtering.py:74-103)."""
    from versa_ray.pipeline import COPY, contains, if_

    DOC = I("http://example.org/records/")
    modin = literate.parse(INPUT_GRAPH_1)
    FINGERPRINT_RULES = {
        SCH("MusicAlbum"): if_(
            contains(follow(SCH("byArtist")), DOC("md")), materialize(COPY())
        ),
        SCH("Person"): materialize(COPY()),
    }
    ppl = generic_pipeline(FINGERPRINT_RULES, {}, {})
    modout = ppl.run(input_model=modin)
    assert len(modout) == 17
    assert len(list(vutil.all_origins(modout, only_types={SCH("MusicAlbum")}))) == 1
    assert len(list(vutil.all_origins(modout, only_types={SCH("Person")}))) == 3


@needs_catcher
def test_new_entity_hook_fires_twice():
    """Hook extras (reference test_pipeline_context_extras.py:44-95)."""
    from versa_ray.pipeline import DUMMY_CONTEXT

    modin = literate.parse(CATCHER)
    FINGERPRINT_RULES = {
        SCH("Book"): materialize(BF("Instance"), fprint=[(BF("isbn"), follow(SCH("isbn")))])
    }
    TRANSFORM_RULES = {
        SCH("name"): link(rel=BF("name")),
        SCH("author"): _author_materialize(),
    }
    modout = MicroModel()

    def new_entity_hook(eid):
        modout.add(eid, "http://example.org/materializedBy", "py.test")

    root_ctx = DUMMY_CONTEXT.copy(
        output_model=modout, extras={"@new-entity-hook": new_entity_hook}
    )
    ppl = generic_pipeline(FINGERPRINT_RULES, TRANSFORM_RULES, LABELIZE_RULES, root_ctx=root_ctx)
    ppl.run(input_model=modin, output_model=modout)
    assert len(list(modout.match(None, "http://example.org/materializedBy", None))) == 2


def test_dynamic_stage_invalidates_cache():
    """A @stage callable attached to an INSTANCE after the first run
    must be picked up on the next run (cache invalidates on set)."""
    from versa_ray.pipeline.runner import definition, stage

    calls = []

    class P(definition):
        @stage(1)
        def first(self):
            calls.append("first")
            return True

    p = P()
    p.run()
    assert calls == ["first"]

    @stage(2)
    def extra():
        calls.append("extra")
        return True

    p.extra = extra
    p.run()
    assert calls == ["first", "first", "extra"]
