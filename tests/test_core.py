"""Core conformance: hash convention, IRI handling, canonical encodings.

Anchors derive from the reference's executable test suite and vendored
hash implementation (see versa_ray/core/hashing.py docstring).
"""

import json

import pytest

from versa_ray.core import (
    EMPTY_ATTRS,
    I,
    VTYPE_REL,
    absolutize,
    attrs_from_json,
    attrs_to_json,
    canonical_json,
    fingerprint_text,
    is_absolute,
    link_to_row,
    matches_uri_ref_syntax,
    resource_id,
    row_to_link,
    simple_hashstring,
)
from versa_ray.core.mmh3 import hash64_signed


def test_mmh3_public_vectors():
    # Public mmh3.hash64 test vectors (x64 variant, seed 0, signed)
    assert hash64_signed("foo") == (-2129773440516405919, 9128664383759220103)
    assert hash64_signed(b"") == (0, 0)


def test_simple_hashstring_sentinel():
    assert simple_hashstring("") == "AAAAAAAAAAA"


def test_resource_id_anchors():
    # Matches reference vendored pymmh3 + resource_id convention
    assert (
        resource_id(
            "http://schema.org/Person",
            [("http://schema.org/name", "Augusta Ada King")],
        )
        == "xjgOrUFiw_o"
    )
    # The hash ID the reference pipeline test asserts (test_pipeline.py:415)
    MB = "https://musicbrainz.org/doc/MusicBrainz_Database/Schema/"
    assert resource_id(MB + "Artist", [(MB + "name", "Yasiin Bey")]) == "i5GvPVm7ClA"


def test_resource_id_type_dedup_and_sort():
    # VTYPE pair not duplicated if already present; pairs sorted
    t = "http://schema.org/Person"
    a = fingerprint_text(t, [("http://schema.org/name", "x"), (VTYPE_REL, t)])
    b = fingerprint_text(t, [("http://schema.org/name", "x")])
    assert a == b
    assert json.loads(a)[0][0] == str(VTYPE_REL)  # bibfra.me sorts first


def test_resource_id_requires_fingerprint():
    with pytest.raises(ValueError):
        resource_id("http://schema.org/Person", [])


def test_iriref_validation():
    assert I("spam") == "spam"
    with pytest.raises(ValueError):
        I("spam eggs")
    base = I("https://example.org/")
    assert base("a") == "https://example.org/a"
    assert repr(I("x")) == "I(x)"


def test_iri_predicates():
    assert matches_uri_ref_syntax("")
    assert matches_uri_ref_syntax("http://example.org/a?b#c")
    assert not matches_uri_ref_syntax("a b")
    assert is_absolute("http://example.org")
    assert not is_absolute("relative/path")
    assert absolutize("isbn", "https://schema.org/") == "https://schema.org/isbn"
    assert absolutize("http://a/b", "https://schema.org/") == "http://a/b"
    assert absolutize("x", None) == "x"
    assert absolutize("", "http://uche.ogbuji.net/poems/") == "http://uche.ogbuji.net/poems/"


def test_attrs_roundtrip():
    assert attrs_to_json(None) == EMPTY_ATTRS
    assert attrs_to_json({}) == EMPTY_ATTRS
    s = attrs_to_json({"b": "2", "a": "1"})
    assert s == '{"a":"1","b":"2"}'
    assert attrs_from_json(s) == {"a": "1", "b": "2"}


def test_link_row_roundtrip():
    row = link_to_row(I("http://e.org/s"), I("http://e.org/p"), I("http://e.org/o"), {"k": "v"})
    assert row["target_is_iri"] is True
    o, r, t, a = row_to_link(row)
    assert isinstance(t, I) and a == {"k": "v"}
    row2 = link_to_row("http://e.org/s", "http://e.org/p", "plain text")
    assert row2["target_is_iri"] is False and row2["attrs"] == EMPTY_ATTRS


def test_canonical_json_tags_iri_targets():
    rows = [
        link_to_row("http://e.org/b", "http://e.org/p", I("http://e.org/o")),
        link_to_row("http://e.org/a", "http://e.org/p", "text"),
    ]
    doc = json.loads(canonical_json(rows))
    assert doc[0][0] == "http://e.org/a"
    assert doc[1][3] == {"@target-type": "@iri-ref"}


# ---------------------------------------------------------------------------
# keyed exchange


def _exchange_schema():
    import pyarrow as pa

    return pa.schema({"k": pa.int64(), "n": pa.int64()})


@pytest.mark.parametrize("rows", [
    [],                      # empty
    [1],                     # single row
    [5, 5, 5, 5],            # all duplicates
    [0, 1, 0, 0, 0, 0],      # one hot key
])
def test_exchange_typed_output(ray_session, rows):
    import pyarrow as pa
    import ray.data as rd

    from versa_ray.core.exchange import exchange

    def _count_per_key(df):
        if not len(df):
            return None
        return df.groupby("k", as_index=False).size().rename(
            columns={"size": "n"})

    schema = _exchange_schema()
    ds = rd.from_arrow(pa.table({"k": pa.array(rows, type=pa.int64()),
                                 "v": pa.array([str(r) for r in rows])}))
    out = exchange(ds, "k", _count_per_key, schema,
                   num_buckets=3).materialize()
    assert out.schema().base_schema == schema
    assert out.schema().base_schema.metadata is None
    tables = [ray_session.get(r) for r in out.to_arrow_refs()]
    for t in tables:
        if t.num_rows:
            assert t.schema == schema
            assert t.schema.metadata is None
    got = [r for t in tables for r in t.to_pylist()]
    want = {}
    for r in rows:
        want[r] = want.get(r, 0) + 1
    assert sorted((d["k"], d["n"]) for d in got) == sorted(want.items())


def test_exchange_cogroup_int_widths_colocate(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from versa_ray.core.exchange import bucket_of, exchange

    keys = list(range(40))
    left = rd.from_arrow(pa.table({"a": pa.array(keys, type=pa.int32())}))
    right = rd.from_arrow(pa.table({
        "b": pa.array(keys, type=pa.int64()),
        "w": pa.array([f"w{k}" for k in keys])}))
    narrow = pa.table({"a": pa.array(keys, type=pa.int32())})
    wide = pd.DataFrame({"b": np.array(keys, dtype=np.int64)})
    assert (bucket_of(narrow, ["a"], 7) == bucket_of(wide, ["b"], 7)).all()

    def _join(lf, rf):
        if not len(lf) or not len(rf):
            return None
        return lf.merge(rf, left_on="a", right_on="b")[["a", "w"]]

    schema = pa.schema({"a": pa.int64(), "w": pa.string()})
    out = exchange([left, right], [["a"], ["b"]], _join, schema,
                   num_buckets=5)
    rows = sorted((r["a"], r["w"]) for r in out.take_all())
    assert rows == [(k, f"w{k}") for k in keys]


def test_bucketed_group_apply_min_group_size(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from versa_ray.core.exchange import bucketed_group_apply

    ds = rd.from_pandas(pd.DataFrame({"g": [1, 2, 2, 3, 3, 3],
                                      "x": [1, 2, 3, 4, 5, 6]}))
    schema = pa.schema({"g": pa.int64(), "s": pa.int64()})
    out = bucketed_group_apply(
        ds, ["g"], lambda grp: pd.DataFrame(
            {"g": [grp["g"].iloc[0]], "s": [grp["x"].sum()]}),
        schema, num_buckets=4, min_group_size=2)
    assert sorted((r["g"], r["s"]) for r in out.take_all()) == [(2, 5), (3, 15)]


def test_keyed_shuffles_route_through_exchange():
    """Every keyed shuffle goes through ``core.exchange``: no other
    module may call ``.map_groups(`` or build a ``"_cbucket"`` tag."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "versa_ray"
    owner = root / "core" / "exchange.py"
    offenders = [
        f"{path.relative_to(root.parent)}:{n}"
        for path in sorted(root.rglob("*.py")) if path != owner
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ".map_groups(" in line or '"_cbucket"' in line
    ]
    assert not offenders, offenders


def test_store_reads_route_through_manifest_source():
    """Every read of store files goes through the store's manifest-
    driven datasource: ``model/store.py`` never calls ``read_parquet(``."""
    import pathlib

    store = (pathlib.Path(__file__).resolve().parents[1]
             / "versa_ray" / "model" / "store.py")
    offenders = [
        n for n, line in enumerate(store.read_text().splitlines(), 1)
        if "read_parquet(" in line
    ]
    assert not offenders, offenders
