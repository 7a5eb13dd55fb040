"""Versa ID convention: content-fingerprint hashes.

Reproduces, bit for bit, the hash convention of the reference toolchain
(see /root/reference/tools/py/contrib/datachefids.py:35-55 and
/root/reference/tools/py/pipeline/main.py:93-132 — "Computing Versa
Resource Hashes"): MurmurHash3 x64-128 first lane of the canonical
ordered-JSON fingerprint string, big-endian packed, urlsafe base64
without padding.

Anchors (verified by tests/test_hashing.py) — these match what the
reference's own vendored pure-Python murmur3 produces and the hash IDs
its executable test suite asserts (test/py/test_pipeline.py:415):
    resource_id('http://schema.org/Person',
                [('http://schema.org/name', 'Augusta Ada King')])
        == 'xjgOrUFiw_o'
    resource_id(MB + 'Artist', [(MB + 'name', 'Yasiin Bey')])
        == 'i5GvPVm7ClA'
    simple_hashstring('') sentinel == 'AAAAAAAAAAA'
(The module-docstring anchors in the reference's datachefids.py, e.g.
'bBsHvHu8S-M', disagree with its own vendored implementation — they are
stale; the runnable test anchors above are authoritative.)

All IDs in this engine come from content fingerprints — never from
per-process counters — so any worker on any node computes the same ID
for the same entity. That property is what lets the distributed
pipeline emit everything and reconcile by groupby instead of
coordinating a shared "existing IDs" set.
"""

from __future__ import annotations

import base64
import json
import struct
from collections import OrderedDict

from .mmh3 import hash64_batch, hash64_signed
from .irihelpers import I, is_absolute

VERSA_BASEIRI = I("http://bibfra.me/purl/versa/")
VTYPE_REL = I(VERSA_BASEIRI + "type")
VLABEL_REL = I(VERSA_BASEIRI + "label")
VFPRINT_REL = I(VERSA_BASEIRI + "fingerprint")

#: Hash of the empty string under this convention (sentinel value).
FROM_EMPTY_64BIT_HASH = "AAAAAAAAAAA"


_HASHSTRING_MEMO: dict = {}


def _b64_id(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def simple_hashstring(obj, bits: int = 64) -> str:
    """Short string hash of ``obj`` (via ``str()``), ``bits`` wide.
    Memoized: the pure-Python murmur3 is the costly part, and entity
    fingerprint strings repeat heavily across documents (head
    entities)."""
    key = (str(obj), bits)
    hit = _HASHSTRING_MEMO.get(key)
    if hit is not None:
        return hit
    basis = hash64_signed(key[0])[0] >> (64 - bits)
    raw = struct.pack("!q", basis)
    if bits != 64:
        raw = raw[: -int((64 - bits) / 8)]
    out = _b64_id(raw)
    if len(_HASHSTRING_MEMO) < 500_000:
        _HASHSTRING_MEMO[key] = out
    return out


def simple_hashstrings(texts) -> list:
    """``simple_hashstring(t)`` (64 bits) for each str in ``texts``,
    hashed in one vectorized ``hash64_batch`` call. A text must not end
    in NUL (the batch hasher pads with NUL); fingerprint JSON never
    does."""
    raw = hash64_batch(texts).astype(">u8").tobytes()
    return [_b64_id(raw[i: i + 8]) for i in range(0, len(raw), 8)]


class OrderedJsonEncoder(json.JSONEncoder):
    """JSON-serialize OrderedDicts preserving their order (canonical form)."""

    def encode(self, o):
        if isinstance(o, OrderedDict):
            return (
                "{"
                + ",".join(self.encode(k) + ":" + self.encode(v) for k, v in o.items())
                + "}"
            )
        return json.JSONEncoder.encode(self, o)


def fingerprint_text(etype: str, fprint) -> str | None:
    """Canonical plaintext for a fingerprint set, or None if empty.

    Sorted (key, value) pairs — always including (VTYPE_REL, etype) —
    JSON-serialized compactly.
    """
    pairs = [(k, v) for (k, v) in (fprint or [])]
    if not pairs:
        return None
    if (VTYPE_REL, etype) not in pairs:
        pairs.append((VTYPE_REL, etype))
    pairs.sort()
    return json.dumps(pairs, separators=(",", ":"), cls=OrderedJsonEncoder)


def resource_id(etype, fprint=None, vocabbase=None) -> I:
    """Deterministic entity ID from type + fingerprint pairs.

    Unlike the reference there is NO random fallback: at distributed
    scale every ID must be content-derived, so an empty fingerprint is
    an error (the reference merely warns — see
    link_materialize_actions.py:256-258).
    """
    if vocabbase and not is_absolute(etype):
        etype = vocabbase + etype
    processed = []
    for k, v in fprint or []:
        if vocabbase and not is_absolute(k):
            k = vocabbase + k
        processed.append((k, v))
    plaintext = fingerprint_text(etype, processed)
    if plaintext is None:
        raise ValueError(
            "resource_id requires a non-empty fingerprint: content-derived "
            "IDs are mandatory in a distributed pipeline"
        )
    return I(simple_hashstring(plaintext))
