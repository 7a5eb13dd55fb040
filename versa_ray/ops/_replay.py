"""Replay-safety bookkeeping for an incremental state store.

The incremental-minhash state (``ops/dedup.py``) detects replayed
deltas by recording a content fingerprint of every applied delta into
a small JSON meta file next to the state: atomic tmp+``os.replace``
write, a capped history window, and an idempotent short-circuit when
the fp is already present.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

# how many applied-delta fingerprints the meta retains: bounds the
# replay-detection window (a delta older than the window re-applies)
# while keeping the meta file O(1)
REPLAY_HISTORY = 16


@contextmanager
def _meta_lock(meta_path, timeout=30.0, stale_after=60.0):
    """O_EXCL lock file serializing the meta read-modify-write: a
    writer recording its own delta can race another caller completing
    a crashed writer's pending delta (``_recover_pending_delta``
    tolerates concurrent recoverers) — unserialized, the later
    ``os.replace`` drops the other's fingerprint and a replay of that
    delta re-applies as duplicate rows. The hold is ms-scale (one
    small JSON rewrite); ``stale_after`` breaks a lock orphaned by a
    crash inside the window."""
    lock = meta_path + ".lock"
    deadline = time.time() + timeout
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            break
        except FileExistsError:
            try:
                if time.time() - os.stat(lock).st_mtime > stale_after:
                    os.unlink(lock)
                    continue
            except OSError:
                pass  # holder released between exists-check and stat
            if time.time() > deadline:
                raise TimeoutError(
                    f"meta lock busy past {timeout}s: {lock}")
            time.sleep(0.05)
    try:
        yield
    finally:
        try:
            os.unlink(lock)
        except OSError:
            pass


def record_applied_fp(meta_path, fp, applied_key, counter_key, n=0):
    """Idempotently fold ``fp`` into ``meta[applied_key]`` (capped at
    ``REPLAY_HISTORY``) and add ``n`` to ``meta[counter_key]``, via
    atomic tmp+``os.replace`` under ``_meta_lock`` (concurrent
    recorders serialize; the idempotence check re-reads inside the
    lock, so the same fp recorded twice counts once)."""
    with _meta_lock(meta_path):
        meta = {}
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
        applied = meta.get(applied_key, [])
        if fp in applied:
            return
        meta[applied_key] = (applied + [fp])[-REPLAY_HISTORY:]
        meta[counter_key] = int(meta.get(counter_key, 0)) + int(n)
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, meta_path)


def content_hash_part(ids_hashed, payload):
    """Order-independent 64-bit content hash of one block's
    (id, payload-row) pairs: a rolling-multiply fold of each payload
    row (columns of the ``uint64`` matrix ``payload``) XORed with the
    row's pre-hashed id, summed mod 2^64 — blocks' partial sums add
    commutatively, so the total is identical whatever the block order
    or split. The incremental-minhash state fingerprints deltas with
    this."""
    mult = np.uint64(0x9E3779B97F4A7C15)
    h = np.zeros(len(payload), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(payload.shape[1]):  # payload width is small
            h = h * mult + payload[:, j]
        row_h = ids_hashed.astype(np.uint64) ^ (h * mult)
    return int(row_h.sum(dtype=np.uint64))


def applied_fps(meta_path, applied_key):
    """The recorded fingerprint history (empty if no meta yet)."""
    if not os.path.exists(meta_path):
        return []
    with open(meta_path) as f:
        return json.load(f).get(applied_key, [])
