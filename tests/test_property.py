"""Property-based conformance (hypothesis).

* Hash differential: our murmur3 x64-128 against the reference's
  vendored pure-Python implementation (public-domain pymmh3), byte for
  byte over arbitrary unicode — the foundation of ID parity.
* Literate canonical round-trip: write(canonical) -> parse -> equal
  model, over generated simple models.
* Quad-key codec: with_quad_key encode/decode is lossless for any
  component strings (incl. separator/escape characters).
"""

import importlib.util
import os

import pytest
from conftest import reference_path, requires_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from versa_ray.core.mmh3 import hash64_signed


PYMMH3 = "tools/py/contrib/pymmh3.py"
needs_pymmh3 = requires_reference(PYMMH3)


def _load_pymmh3():
    spec = importlib.util.spec_from_file_location("pymmh3", reference_path(PYMMH3))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


pymmh3 = _load_pymmh3() if os.path.exists(reference_path(PYMMH3)) else None


@needs_pymmh3
@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_hash64_differential(s):
    assert hash64_signed(s) == tuple(pymmh3.hash64(s))


@needs_pymmh3
@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_hash128_differential_bytes(b):
    from versa_ray.core.mmh3 import hash128_x64

    h1, h2 = hash128_x64(b)
    assert (h1 | (h2 << 64)) == pymmh3.hash128(b)


_IRI_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-._~"


@st.composite
def simple_model(draw):
    from versa_ray.core import I
    from versa_ray.model.micro import MicroModel

    m = MicroModel()
    n = draw(st.integers(min_value=1, max_value=6))
    for _ in range(n):
        o = "http://eg.org/" + draw(st.text(_IRI_CHARS, min_size=1, max_size=8))
        r = "http://voc.org/" + draw(st.text(_IRI_CHARS, min_size=1, max_size=8))
        t = draw(st.text(st.characters(exclude_characters='"\\\n\r<>', exclude_categories=("Cs", "Cc")), min_size=1, max_size=20))
        m.add(I(o), I(r), t.strip() or "x")
    return m


@settings(max_examples=50, deadline=None)
@given(simple_model())
def test_literate_canonical_roundtrip(m):
    from versa_ray.serial import literate

    text = literate.write_string(m, canonical=True)
    m2 = literate.parse(text)
    assert m == m2, text


@settings(max_examples=100, deadline=None)
@given(
    st.text(max_size=40),
    st.text(max_size=40),
    st.one_of(st.none(), st.text(max_size=40)),
    st.booleans(),
    st.text(max_size=40),
)
def test_quad_key_codec_lossless(origin, rel, target, is_iri, attrs):
    import pyarrow as pa

    from versa_ray.model.linkset import (
        _NULL_SENTINEL,
        _escape_col,
        quad_from_key,
    )
    import pyarrow.compute as pc

    tbl = pa.table(
        {
            "origin": [origin],
            "rel": [rel],
            "target": [target],
            "target_is_iri": [is_iri],
            "attrs": [attrs],
        }
    )
    key = pc.binary_join_element_wise(
        _escape_col(tbl["origin"]),
        _escape_col(tbl["rel"]),
        pc.coalesce(_escape_col(tbl["target"]), pa.scalar(_NULL_SENTINEL)),
        pc.cast(tbl["target_is_iri"], pa.string()),
        _escape_col(tbl["attrs"]),
        "\x1f",
    )
    out = quad_from_key(key)
    assert out["origin"][0].as_py() == origin
    assert out["rel"][0].as_py() == rel
    assert out["target"][0].as_py() == target
    assert out["target_is_iri"][0].as_py() == is_iri
    assert out["attrs"][0].as_py() == attrs


def test_literate_roundtrip_property():
    """Property: random link-sets survive canonical-write -> parse
    round-trips (IRIs/literals from a constrained but adversarial
    alphabet: spaces, colons, unicode, digits)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from versa_ray.model.micro import MicroModel
    from versa_ray.serial import literate

    iri = st.from_regex(r"urn:x:[A-Za-z0-9_.-]{1,12}", fullmatch=True)
    literal = st.text(
        alphabet=st.characters(
            codec="utf-8",
            exclude_characters="\n\r",
            exclude_categories=("Cs", "Cc"),
        ),
        min_size=0, max_size=24,
    ).filter(lambda s: s.strip() == s)
    link = st.tuples(iri, iri, st.one_of(iri.map(lambda s: ("iri", s)),
                                         literal.map(lambda s: ("lit", s))))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(link, min_size=1, max_size=12))
    def check(links):
        m = MicroModel()
        for o, r, (kind, t) in links:
            from versa_ray.core import I

            m.add(o, r, I(t) if kind == "iri" else t)
        text = literate.write_string(m, canonical=True)
        m2 = literate.parse(text)
        got = {(o, r, str(t)) for o, r, t, a in m2.match()}
        want = {(o, r, str(t)) for o, r, t, a in m.match()}
        assert got == want, (sorted(want - got), sorted(got - want), text)

    check()


def test_ntriples_roundtrip_property():
    """Property: literals with quotes/backslashes/tabs survive NT
    write -> parse (our codec escapes ECHARs; the reference writer
    does not — documented divergence, serial/ntriples.py)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from versa_ray.core import I
    from versa_ray.model.micro import MicroModel
    from versa_ray.serial import ntriples

    iri = st.from_regex(r"urn:x:[A-Za-z0-9_.-]{1,12}", fullmatch=True)
    literal = st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_categories=("Cs",)
        ),
        min_size=0, max_size=24,
    )
    link = st.tuples(iri, iri, st.one_of(iri.map(lambda s: ("iri", s)),
                                         literal.map(lambda s: ("lit", s))))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(link, min_size=1, max_size=12))
    def check(links):
        m = MicroModel()
        for o, r, (kind, t) in links:
            m.add(I(o), I(r), I(t) if kind == "iri" else t)
        text = ntriples.write_string(m)
        m2 = ntriples.parse(text)
        got = {(o, r, str(t)) for o, r, t, a in m2.match()}
        want = {(o, r, str(t)) for o, r, t, a in m.match()}
        assert got == want, (sorted(want - got), sorted(got - want), text)

    check()


def _line_dedup_reference(docs, line_words):
    """Pure in-memory reference: global first-wins per distinct line
    over (doc order, line order)."""
    seen = set()
    out = {}
    for doc_id in sorted(docs):
        ws = docs[doc_id].split()
        lines = [
            " ".join(ws[i:i + line_words])
            for i in range(0, len(ws), line_words)
        ] or [""]
        kept = []
        for ln in lines:
            if ln not in seen:
                seen.add(ln)
                kept.append(ln)
        out[doc_id] = " ".join(kept)
    return out


def test_line_dedup_matches_reference_randomized(ray_session):
    """Randomized corpora (heavy repetition, partition-split inputs):
    the distributed op equals the sequential first-wins reference."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.dedup import line_dedup

    rng = np.random.RandomState(17)
    vocab = ["w%d" % i for i in range(30)]  # tiny vocab -> many dup lines
    for trial in range(3):
        docs = {
            i: " ".join(rng.choice(vocab, rng.randint(0, 25)))
            for i in range(40)
        }
        df = pd.DataFrame(
            {"doc_id": list(docs), "text": list(docs.values())})
        # split across multiple input blocks to exercise the shuffles
        ds = rd.from_pandas([df.iloc[:13], df.iloc[13:27], df.iloc[27:]])
        got = line_dedup(ds, line_words=4).to_pandas()
        got = dict(zip(got["doc_id"], got["text"]))
        want = _line_dedup_reference(docs, 4)
        assert got == want, f"trial {trial}: mismatch"


def test_incremental_minhash_replay_equals_batch_randomized(ray_session,
                                                            tmp_path):
    """Randomized planted-cluster corpora split into 3 id-ordered
    deltas: replaying through the persistent LSH state equals the
    one-shot batch clustering (bridge-free corpora)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.dedup import incremental_minhash_dedup, minhash_dedup

    rng = np.random.RandomState(23)
    for trial in range(2):
        rows = []
        base_texts = {}
        for i in range(36):
            # each doc draws a distinct vocabulary slice -> clusters
            # are well separated (no cross-delta bridges)
            words = ["t%d_%d" % (i, j) for j in range(30)]
            base_texts[i] = " ".join(words)
            rows.append({"doc_id": i, "text": base_texts[i]})
        # plant near-dup clusters, members spread across deltas
        for src, dst in [(1, 14), (1, 25), (7, 30), (20, 33)]:
            rows[dst]["text"] = base_texts[src] + " x%d" % dst
        df = pd.DataFrame(rows)
        state = str(tmp_path / f"st{trial}")
        parts = [df[df.doc_id < 12], df[(df.doc_id >= 12) & (df.doc_id < 24)],
                 df[df.doc_id >= 24]]
        inc = []
        for p in parts:
            a, _k = incremental_minhash_dedup(
                state, rd.from_pandas(p.reset_index(drop=True)),
                threshold=0.5)
            inc.append(a.to_pandas())
        inc_df = pd.concat(inc).sort_values("doc_id", ignore_index=True)
        batch = minhash_dedup(
            rd.from_pandas(df), threshold=0.5
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(inc_df, batch)
        assert inc_df.set_index("doc_id")["cluster"][14] == 1
        assert inc_df.set_index("doc_id")["cluster"][33] == 20


def test_inverted_index_matches_brute_force_randomized(ray_session,
                                                       tmp_path):
    """Randomized corpora (unicode noise, empty docs, multi-block
    inputs, string ids): bucket-pruned postings lookup equals the
    brute-force tokenizer truth for every probe, including probes
    absent from the corpus."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from versa_ray.ops.retrieval import (
        build_inverted_index, lookup_postings, tokenize)

    rng = np.random.RandomState(23)
    vocab = ["tok%d" % i for i in range(40)] + ["héllo", "naïve", "∑x"]
    for trial in range(3):
        docs = {
            "d%03d" % i: " ".join(
                rng.choice(vocab, rng.randint(0, 30)))
            for i in range(50)
        }
        docs["d_empty"] = ""
        df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
        ds = rd.from_pandas([df.iloc[:17], df.iloc[17:39], df.iloc[39:]])
        idx = str(tmp_path / f"invidx{trial}")
        build_inverted_index(ds, idx, num_term_buckets=4)
        probe = list(rng.choice(vocab, 5)) + ["absent_term"]
        got_df = lookup_postings(idx, probe).to_pandas()
        got = {
            (r.doc_id, r.term): int(r.tf) for r in got_df.itertuples()
        }
        want = {}
        for did, text in docs.items():
            toks = tokenize(text)
            for t in set(probe):
                # the tokenizer contract lowercases and strips
                # non-[a-z0-9]; probe terms are matched as stored
                tf = toks.count(t)
                if tf:
                    want[(did, t)] = tf
        assert got == want, f"trial {trial}: {got} != {want}"
