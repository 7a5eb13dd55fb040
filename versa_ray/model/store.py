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
``_linkset_meta.json`` file, written once when the store is created,
records the bucket counts; readers never need them supplied.

Every write is an EPOCH COMMIT (``_commit``): ``_epoch.json`` points
at ``_manifest-<N>.json``, which lists every live parquet file with
its (rel_bucket, part_id) and row count. A directory without
``_epoch.json`` is not a store. ``write_linkset``, ``update_linkset``
and ``compact_linkset`` stage their files under ``.staging-<uuid>``,
move them in (uuid names, no collisions), check that no other writer
committed meanwhile and atomically flip the pointer to the next
epoch. A reader that resolved epoch N keeps reading exactly N's files
while a writer commits N+1; files no kept manifest lists (replaced
partitions, a crashed writer's adopted files or staging) are
reclaimed by ``vacuum_linkset``.

Every read of store files (``read_linkset`` and the old-partition reads
of ``update_linkset`` and ``compact_linkset``) is planned from ONE
manifest load by ``_read_entries``: the manifest's entries are pruned
by partition, and a small ``ray.data.Datasource`` builds the read tasks
from them, with row counts from the manifest and sizes and the unified
schema from the file footers. No Ray task runs until the Dataset
executes.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager as _contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa

from .linkset import QUAD_COLS, match

_META_NAME = "_linkset_meta.json"
_EPOCH_NAME = "_epoch.json"
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

    One directory per (rel_bucket, part_id); every file carries its
    partition values in the path (lineage). The input need not be
    distinct: the write runs ONE partition-keyed shuffle
    (``_partition_distinct``) that drops duplicate quads inside each
    partition and lands every partition whole in one block, so the
    store holds exactly one file per non-empty partition.

    The write is a commit that replaces every partition: on a new path
    it commits epoch 1, on an existing store the next epoch, whose
    manifest lists only the files this write produced (the previous
    epoch stays readable until ``vacuum_linkset``). Rewriting a store
    with other bucket counts than it was created with raises
    ``ValueError``."""
    os.makedirs(path, exist_ok=True)
    with _writer_claim(path):
        cur = _current_epoch(path)
        if cur is None:
            with open(os.path.join(path, _META_NAME), "w") as f:
                json.dump({"num_rel_buckets": num_rel_buckets,
                           "num_partitions": num_partitions}, f)
        else:
            meta = _read_meta(path)
            have = (meta["num_rel_buckets"], meta["num_partitions"])
            if have != (num_rel_buckets, num_partitions):
                raise ValueError(
                    f"write_linkset: store {path} has (num_rel_buckets, "
                    f"num_partitions) = {have}, not "
                    f"{(num_rel_buckets, num_partitions)}")
        _commit(path, ds, cur, [])
    return path


def _read_meta(path: str) -> dict:
    with open(os.path.join(path, _META_NAME)) as f:
        return json.load(f)


def _current_epoch(path: str):
    """The committed epoch, or None when ``path`` holds no store yet. A
    present but unreadable pointer raises ``ValueError``."""
    try:
        with open(os.path.join(path, _EPOCH_NAME)) as f:
            raw = f.read()
    except FileNotFoundError:
        return None
    try:
        return int(json.loads(raw)["epoch"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"store {path}: unreadable {_EPOCH_NAME}") from e


def _manifest_path(path: str, epoch: int) -> str:
    return os.path.join(path, f"_manifest-{epoch}.json")


def _load_manifest(path: str, epoch=None) -> dict:
    if epoch is None:
        epoch = _current_epoch(path)
    if epoch is None:
        raise FileNotFoundError(
            f"{path} is not a link-set store: no {_EPOCH_NAME}")
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
    writer is known to be gone."""
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


def _manifest_metrics(entries: list) -> list:
    """Per-partition rows and file counts of a manifest's entries."""
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


def _commit(path: str, ds, cur, keep: list) -> list:
    """The store's one commit, run under ``_writer_claim``: stage
    ``ds``'s partitioned files under ``.staging-<uuid>``, adopt them,
    check that the epoch is still ``cur`` (the epoch this writer
    resolved; None for a new store) and flip ``_epoch.json`` to a
    manifest listing ``keep`` (the entries of ``cur`` that stay live)
    plus the adopted files. Returns the new manifest's entries."""
    import shutil
    import uuid

    meta = _read_meta(path)
    staging = os.path.join(path, f".staging-{uuid.uuid4().hex[:12]}")
    try:
        _partition_distinct(
            ds, meta["num_rel_buckets"], meta["num_partitions"]
        ).write_parquet(staging, partition_cols=list(_PART_COLS))
        new_entries = _adopt_staged_files(path, staging)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    if _current_epoch(path) != cur:
        raise StoreWriteConflict(
            f"store {path}: epoch advanced past {cur} during this write "
            "(a claim-bypassing writer committed); refusing to flip the "
            "pointer over their commit"
        )
    entries = keep + new_entries
    _commit_epoch(path, (cur or 0) + 1, entries)
    return entries


def vacuum_linkset(path: str, keep_epochs: int = 1,
                   claim_ttl=None) -> dict:
    """Garbage-collect files unreferenced by the newest
    ``keep_epochs`` manifests (and drop the older manifests), plus
    the ``.staging-*`` directories a crashed writer left behind. The
    GC point for the additive epoch protocol — run it when no reader
    needs the older snapshots. Runs under the same ``_writer_claim``
    fence as every commit: a concurrent writer's staged or adopted-
    but-not-yet-committed files are referenced by NO manifest and an
    unfenced vacuum would delete them out from under its commit.
    Returns {"files_removed", "manifests_removed"}."""
    if int(keep_epochs) < 1:
        # keep_epochs=0 would compute an EMPTY keep set and delete
        # every live file and manifest — a typo must not wipe a store
        raise ValueError("vacuum_linkset: keep_epochs must be >= 1")
    with _writer_claim(path, ttl=claim_ttl):
        return _vacuum_locked(path, keep_epochs)


def _vacuum_locked(path: str, keep_epochs: int) -> dict:
    import glob as _glob
    import shutil

    cur = _load_manifest(path)["epoch"]
    keep = set(range(max(1, cur - keep_epochs + 1), cur + 1))
    live: set = set()
    for ep in keep:
        try:
            for e in _load_manifest(path, ep)["files"]:
                live.add(os.path.normpath(os.path.join(path, e["path"])))
        except FileNotFoundError:
            pass
    for staging in _glob.glob(os.path.join(path, ".staging-*")):
        shutil.rmtree(staging, ignore_errors=True)
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


def _pruned_entries(path: str, man: dict, rel=None, origin=None,
                    origin_part_ids=None) -> list:
    """The entries of manifest ``man`` whose (rel_bucket, part_id) a
    read constrained by rel / origin / origin partitions opens."""
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
    return [
        e for e in man["files"]
        if (rbs is None or e["rel_bucket"] in rbs)
        and (pids is None or e["part_id"] in pids)
    ]


def pruned_fragments(path: str, rel=None, origin=None, epoch=None,
                     origin_part_ids=None):
    """The live files of the given (or current) epoch that a read
    constrained by rel / origin / origin partitions opens, as absolute
    paths. The epoch is resolved once, from ``_epoch.json``."""
    man = _load_manifest(path, epoch)
    return [
        os.path.join(path, e["path"])
        for e in _pruned_entries(path, man, rel, origin, origin_part_ids)
    ]


def _read_store_files(files, schema: pa.Schema) -> list:
    """One read task: the files read as plain Parquet (no hive
    partition columns), cast to the read's unified ``schema``, as one
    block."""
    import pyarrow.parquet as pq

    align = _aligner(schema.names, schema)
    tables = []
    for f in files:
        pf = pq.ParquetFile(f)
        have = set(pf.schema_arrow.names)
        tables.append(align(pf.read([c for c in schema.names if c in have])))
    return [pa.concat_tables(tables)]


@functools.cache
def _store_source():
    """The store's ``ray.data.Datasource`` class (built on first use:
    this module does not import Ray at load time). Read tasks take
    their rows from the manifest and their size and the unified schema
    from the footers, read in the driver, so no Ray task runs before
    execution. Every ``BlockMetadata`` carries ``size_bytes`` and the
    source answers ``estimate_inmemory_data_size``: with the size
    unknown, the union with a delta in ``update_linkset`` stalls for
    seconds on every commit."""
    from ray.data import Datasource, ReadTask
    from ray.data.block import BlockMetadata

    class StoreSource(Datasource):
        def __init__(self, path: str, entries: list, columns=None):
            import pyarrow.parquet as pq

            self._files = [os.path.join(path, e["path"]) for e in entries]
            self._rows = [int(e["rows"]) for e in entries]
            footers = [pq.read_metadata(f) for f in self._files]
            self._sizes = [
                sum(m.row_group(i).total_byte_size
                    for i in range(m.num_row_groups))
                for m in footers
            ]
            schema = pa.unify_schemas(
                [m.schema.to_arrow_schema() for m in footers]
            ).remove_metadata()
            self._schema = (schema if columns is None
                            else pa.schema([schema.field(c) for c in columns]))

        def estimate_inmemory_data_size(self):
            return sum(self._sizes)

        def get_read_tasks(self, parallelism: int):
            return [
                ReadTask(
                    functools.partial(_read_store_files,
                                      [self._files[i] for i in g],
                                      self._schema),
                    BlockMetadata(
                        num_rows=sum(self._rows[i] for i in g),
                        size_bytes=sum(self._sizes[i] for i in g),
                        input_files=[self._files[i] for i in g],
                        exec_stats=None),
                    schema=self._schema)
                for g in np.array_split(np.arange(len(self._files)),
                                        min(parallelism, len(self._files)))
            ]

    return StoreSource


def _read_entries(path: str, entries: list, columns=None):
    """The store's one read path: a Dataset over the given (non-empty)
    manifest entries, projected to ``columns`` if given."""
    import ray.data as rd

    return rd.read_datasource(_store_source()(path, entries, columns))


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


def _aligner(cols, stored: pa.Schema):
    """Batch map to exactly ``cols``: each column cast to its ``stored``
    type where it has one, missing columns as typed nulls, no schema
    metadata. A column stored only as all-null (type ``null``) has no
    declared type, so a batch's own type for it is kept."""

    def _align(tbl: pa.Table) -> pa.Table:
        out = []
        for c in cols:
            typ = stored.field(c).type if c in stored.names else None
            if c not in tbl.column_names:
                out.append(pa.nulls(tbl.num_rows, typ or pa.null()))
            elif typ is not None and typ != pa.null() and tbl[c].type != typ:
                out.append(tbl[c].cast(typ))
            else:
                out.append(tbl[c])
        return pa.table(out, names=cols)

    return _align


def _partition_distinct(ds, r_b: int, n_p: int):
    """The store's one shuffle: tag rows with their partition, exchange
    on ``_pkey`` (several partitions may share a bucket) and drop
    duplicate quads inside each bucket. The dedup is exact and global,
    because identical quads share origin and rel and so always land in
    the same partition. Extra (lineage) columns keep their
    lexicographic minimum, as in ``distinct_links``; a bucket without
    duplicates skips that sort. Each partition's rows end up wholly in
    one block, so a partitioned write of the result emits one file per
    partition."""
    from ..core.exchange import exchange

    skip = set(QUAD_COLS) | set(_PART_COLS)

    def _dedup(df: pd.DataFrame) -> pd.DataFrame:
        if df.duplicated(subset=QUAD_COLS).any():
            extras = [c for c in df.columns if c not in skip]
            if extras:
                df = df.sort_values(extras, kind="stable")
            df = df.drop_duplicates(subset=QUAD_COLS)
        return df.drop(columns=["_pkey"])

    return exchange(
        ds.map_batches(_partition_tagger(r_b, n_p), batch_format="pyarrow"),
        "_pkey", _dedup, lambda sch: sch.remove(sch.get_field_index("_pkey")))


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
    rescan.

    The rewrite is an epoch commit (``_commit``): the new files are
    staged, moved in and published by one atomic ``_epoch.json``
    flip, so a reader never sees pre-update P1 with post-update P2 —
    it reads the file list of whichever epoch it resolved, and the
    previous epoch stays readable (``read_linkset(epoch=...)``) until
    ``vacuum_linkset``. A crash before the flip leaves the store at
    the previous epoch; its staged or adopted files are unreferenced
    and ``vacuum_linkset`` removes them.

    Writes are FENCED: the whole update runs under the store's
    ``_writer_claim`` (O_EXCL claim file), so a second concurrent
    writer raises ``StoreWriteConflict`` instead of racing the epoch
    pointer flip; pass ``claim_ttl`` seconds to break a hard-crashed
    writer's stale claim. The epoch is ALSO re-checked immediately
    before the flip (CAS) to refuse cleanly if a claim-bypassing
    writer committed. Returns {"partitions_updated", "rows_after"}."""
    with _writer_claim(path, ttl=claim_ttl):
        return _update_linkset_locked(path, new_ds)


def _update_linkset_locked(path: str, new_ds):
    man = _load_manifest(path)
    meta = _read_meta(path)
    _tag = _partition_tagger(meta["num_rel_buckets"], meta["num_partitions"])
    merged = new_ds.materialize()

    # affected partition list: bounded by R x P, never by data size
    def _pairs(tbl: pa.Table) -> pd.DataFrame:
        return _tag(tbl).select(list(_PART_COLS)).to_pandas().drop_duplicates()

    affected = {
        (int(r["rel_bucket"]), int(r["part_id"]))
        for r in merged.map_batches(_pairs, batch_format="pyarrow")
        .take_all()
    }
    entries = man["files"]
    if affected:
        old_entries = [
            e for e in man["files"]
            if (e["rel_bucket"], e["part_id"]) in affected
        ]
        if old_entries:
            old = _read_entries(path, old_entries)
            stored = old.schema().base_schema
            # schema-align both sides to the stored column types: a
            # delta without the store's lineage columns (or vice versa,
            # or with one all null) gets typed nulls, and no side ships
            # schema metadata into the shuffle
            new_cols = list(merged.schema().names)
            align = _aligner(
                new_cols + [c for c in stored.names if c not in new_cols],
                stored)
            merged = merged.map_batches(align, batch_format="pyarrow").union(
                old.map_batches(align, batch_format="pyarrow"))
        entries = _commit(path, merged, man["epoch"], [
            e for e in man["files"]
            if (e["rel_bucket"], e["part_id"]) not in affected
        ])
    return {
        "partitions_updated": len(affected),
        "rows_after": int(sum(e["rows"] for e in entries)),
    }


def read_linkset(path: str, rel=None, origin=None, target=None, attrs=None,
                 columns=None, epoch=None, origin_part_ids=None):
    """Predicate-pruned read of a stored link-set.

    The read is planned from one manifest load: the live files of one
    epoch (the given one, or the current one resolved once from
    ``_epoch.json``), pruned by the rel / origin partitions before any
    bytes are read. Each read task's row count comes from the
    manifest, its size and the schema from the file footers, so
    building the Dataset runs no Ray task and ``count()`` of an
    unconstrained read needs no execution. ``columns`` prunes at the
    Parquet column level on top (only requested columns leave
    storage). The exact row-level match then runs as the usual Arrow
    mask. Returns the store's columns (the canonical five link columns
    plus any lineage columns), unified over the files read, or the
    requested subset. A directory without ``_epoch.json`` is not a
    store and raises ``FileNotFoundError``.

    ``origin_part_ids`` is the file-pruning handle for a DISTRIBUTED
    origin constraint (a binding set too large to broadcast): pass
    the distinct origin hash-partitions (``part_ids_of_origins_ds``)
    to prune files WITHOUT row-level origin matching — exactness must
    then come from the caller's semi-join."""
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
    entries = _pruned_entries(path, _load_manifest(path, epoch), rel=rel,
                              origin=origin, origin_part_ids=origin_part_ids)
    if not entries:
        import ray.data as rd

        from ..core.canon import LINK_SCHEMA

        empty = rd.from_arrow(LINK_SCHEMA.empty_table())
        return empty.select_columns(list(columns)) if columns else empty
    ds = _read_entries(path, entries, read_cols)
    if rel is not None or origin is not None or target is not None or attrs:
        ds = match(ds, origin=origin, rel=rel, target=target, attrs=attrs)
    if columns is not None and set(read_cols) != set(columns):
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
    ``_partition_distinct`` shuffle and the same epoch commit
    (``_commit``) as every other write — a reader sees the old or the
    new epoch, never a mix — and then vacuums down to ``vacuum_keep``
    epochs. Runs under the same ``_writer_claim`` fence as update (a
    concurrent writer raises ``StoreWriteConflict``). Returns
    {"partitions_compacted", "files_before", "files_after"}."""
    with _writer_claim(path, ttl=claim_ttl):
        return _compact_linkset_locked(path, max_files, vacuum_keep)


def _compact_linkset_locked(path, max_files, vacuum_keep):
    man = _load_manifest(path)
    by_part: dict = {}
    for e in man["files"]:
        by_part.setdefault((e["rel_bucket"], e["part_id"]), []).append(e)
    victims = {k: es for k, es in by_part.items() if len(es) > max_files}
    files_before = len(man["files"])
    if not victims:
        return {"partitions_compacted": 0, "files_before": files_before,
                "files_after": files_before}

    merged = _read_entries(path, [
        e for _, es in sorted(victims.items())
        for e in sorted(es, key=lambda e: e["path"])])
    entries = _commit(path, merged, man["epoch"], [
        e for e in man["files"]
        if (e["rel_bucket"], e["part_id"]) not in victims
    ])
    # compaction is the default GC point, but keep the PREVIOUS epoch
    # (vacuum_keep=2): a reader that resolved the pre-compact epoch
    # must still find its files; pass vacuum_keep=1 only when no
    # concurrent/time-travel readers exist
    _vacuum_locked(path, vacuum_keep)  # already under our claim
    return {"partitions_compacted": len(victims),
            "files_before": files_before, "files_after": len(entries)}
