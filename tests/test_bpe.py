"""Distributed BPE training/encoding vs a brute-force pure-Python
reference implementation of the published algorithm."""

import re
from collections import Counter

import pandas as pd
import pytest
import ray.data as rd

from versa_ray.ops import bpe
from versa_ray.ops.bpe import (
    apply_merges,
    encode_bpe,
    spaced,
    train_bpe,
    word_freqs,
)

CORPUS = [
    "the cat sat on the mat",
    "the bat and the cat chat",
    "mats and bats and cats",
    "low lower lowest slow slower slowest",
    "new newer newest few fewer fewest",
    "abc abc abc aaa aaaa aa a",
    "numbers 123 1234 123 12 and words",
    "",
    "the the the the the",
]


def _ref_bpe(texts, n_merges):
    """Brute-force reference: Sennrich-style word-level BPE with the
    module's exact contract (spaced symbols, leftmost replace,
    freq-desc / pair-asc winner)."""
    wf = Counter(
        w for t in texts for w in re.findall(r"[a-z0-9]+", t.lower())
    )
    syms = {w: spaced(w) for w in wf}
    merges = []
    for rank in range(n_merges):
        pc = Counter()
        for w, f in wf.items():
            parts = syms[w].split()
            for a, b in zip(parts, parts[1:]):
                pc[(a, b)] += f
        if not pc:
            break
        (lhs, rhs), n = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((rank, lhs, rhs, n))
        for w in syms:
            syms[w] = syms[w].replace(f" {lhs} {rhs} ", f" {lhs}{rhs} ")
    return merges, syms


def _docs_ds(blocks):
    return rd.from_pandas(
        pd.DataFrame({"doc_id": range(len(CORPUS)), "text": CORPUS})
    ).repartition(blocks)


def test_word_freqs_matches_counter(ray_session):
    got = word_freqs(_docs_ds(3)).to_pandas()
    want = Counter(
        w for t in CORPUS for w in re.findall(r"[a-z0-9]+", t.lower())
    )
    assert dict(zip(got["word"], got["freq"])) == dict(want)


@pytest.mark.parametrize("threshold", [200_000, 0])
def test_train_bpe_matches_reference(ray_session, threshold, shuffle_width,
                                     monkeypatch):
    # threshold=0 forces the DISTRIBUTED merge loop (vocab never fits);
    # the default takes the driver-side path — both must agree with
    # the brute-force reference bit-exactly
    shuffle_width(5)
    monkeypatch.setattr(bpe, "DRIVER_VOCAB_THRESHOLD", threshold)
    got = train_bpe(_docs_ds(4), num_merges=8, flush_every=3)
    want, _ = _ref_bpe(CORPUS, 8)
    assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_apply_merges_replays_training_state(ray_session, shuffle_width):
    shuffle_width(5)
    merges = train_bpe(_docs_ds(2), num_merges=12)
    _, syms = _ref_bpe(CORPUS, 12)
    pairs = list(zip(merges["lhs"], merges["rhs"]))
    for w, s in syms.items():
        assert apply_merges(w, pairs) == s.split(), w


def test_encode_bpe_counts(ray_session, shuffle_width):
    shuffle_width(5)
    merges = train_bpe(_docs_ds(2), num_merges=8)
    out = (
        encode_bpe(_docs_ds(3), merges, concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pairs = list(zip(merges["lhs"], merges["rhs"]))
    assert len(out) == len(CORPUS)
    for _, row in out.iterrows():
        words = re.findall(r"[a-z0-9]+", CORPUS[int(row["doc_id"])].lower())
        assert row["n_words"] == len(words)
        assert row["n_bpe_tokens"] == sum(
            len(apply_merges(w, pairs)) for w in words
        )


def test_train_bpe_exhausts_pairs_early(ray_session, shuffle_width):
    ds = rd.from_pandas(pd.DataFrame({"text": ["a a a"]}))
    shuffle_width(3)
    merges = train_bpe(ds, num_merges=10)
    # single word 'a' -> ' a </w> ': one merge then no adjacent pairs
    assert [tuple(r) for r in merges.itertuples(index=False)] == [
        (0, "a", "</w>", 3)
    ]
