"""The three benchmark workloads and their seeded inputs.

Each workload is a class with ``prepare`` (set-up: input generation,
worker warm-up and any derived inputs, all charged to ``setup_s``),
``op`` (one closed-loop operation, timed), ``traced_op`` (the same
operation split at layer boundaries with every stage materialized), and
``reads`` (the pruned-read batch that follows each operation).

Correctness is checked against an in-process reference that never goes
through Ray: ``PageKGExtractor`` + ``EntityScorer`` called directly on the
page table, deduplicated as a Python set of canonical quad strings.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
from session import host_steal_s

BF = "http://bibfra.me/vocab/lite/"
NAME_REL = BF + "name"
QUAD_COLS = ("origin", "rel", "target", "target_is_iri", "attrs")
NUM_PARTITIONS = 16  # build_kg's default store layout


class CheckFailed(AssertionError):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- canonical link-set view --------------------------------------------------


def quad_strings(tbl: pa.Table) -> list:
    cols = [tbl[c].to_pylist() for c in QUAD_COLS]
    return [
        "\x1f".join((o, r, "\x00" if t is None else t, "1" if b else "0", a))
        for o, r, t, b, a in zip(*cols)
    ]


def digest(quads) -> int:
    """Order-independent digest: uint64 sum of an 8-byte BLAKE2b per quad."""
    total = 0
    for q in quads:
        total += int.from_bytes(
            hashlib.blake2b(q.encode("utf-8"), digest_size=8).digest(), "little")
    return total % (1 << 64)


class LinkIndex:
    """The expected distinct link-set with the per-origin and per-rel
    views the read checks need."""

    def __init__(self, quads):
        self.quads = set(quads)
        self.by_origin: dict = {}
        self.rel_count: dict = {}
        for q in self.quads:
            origin, rel, _ = q.split("\x1f", 2)
            self.by_origin.setdefault(origin, set()).add(q)
            self.rel_count[rel] = self.rel_count.get(rel, 0) + 1

    def add(self, quads) -> "LinkIndex":
        return LinkIndex(self.quads | set(quads))

    @property
    def count(self) -> int:
        return len(self.quads)

    @property
    def digest(self) -> int:
        return digest(self.quads)


# -- seeded inputs ------------------------------------------------------------


def alias_table(seed: int) -> dict:
    from versa_ray.web.synth import author_name

    return {author_name(seed, a): f"https://authority.example.org/person/{a}"
            for a in range(16)}


def page_table(seed: int, start: int, stop: int, n_pages: int) -> pa.Table:
    from versa_ray.web.synth import page_batch

    return page_batch(seed, start, stop, n_pages)


def write_shards(tbl: pa.Table, out_dir: str, n_files: int) -> str:
    """Write a table as ``n_files`` Parquet files, as a crawl's shards."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    step = -(-tbl.num_rows // n_files)
    for k in range(n_files):
        part = tbl.slice(k * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{k:03d}.parquet"))
    return out_dir


def reference_links(pages: pa.Table, alias: dict) -> pa.Table:
    """Link rows (before dedup) extracted and scored in-process."""
    from versa_ray.web.kgpipeline import (EntityScorer, PageKGExtractor,
                                          build_alias_index)

    ex = PageKGExtractor(check_text=True)
    sc = EntityScorer(index=build_alias_index(alias))
    parts = [sc(ex(pages.slice(i, 500))) for i in range(0, pages.num_rows, 500)]
    return pa.concat_tables(parts)


# -- Ray-side helpers ---------------------------------------------------------


def arrow_of(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in QUAD_COLS})
    return pa.concat_tables(tables, promote_options="default")


def store_files(store: str) -> list:
    from versa_ray.model.store import pruned_fragments

    if not os.path.isdir(store):
        return []
    return pruned_fragments(store)


def partition_of(path: str) -> tuple:
    parts = dict(p.split("=", 1) for p in path.split(os.sep) if "=" in p)
    return parts.get("rel_bucket"), parts.get("part_id")


class Stats:
    """Samples and counters gathered over one run."""

    def __init__(self, steal_share: float):
        self.steal_share = steal_share
        self.samples = {"setup": [], "op": [], "lookup": [], "scan": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.layer: dict = {}

    def note(self, key: str, value) -> None:
        self.layer.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def timed(self, kind: str, **work):
        """Time the block as one ``kind`` sample, together with the CPU
        time the hypervisor stole from this host meanwhile and the work
        the block did (pages, link rows)."""
        t0, s0 = time.perf_counter(), host_steal_s()
        yield
        self.samples[kind].append({"s": time.perf_counter() - t0,
                                   "steal": host_steal_s() - s0, **work})

    def net_s(self, sample: dict) -> float:
        """A sample's wall time less the share of the host's steal that
        fell on its blocking path: the driver and ``num_cpus`` Ray
        workers keep ``num_cpus + 1`` vCPUs busy, one of which the
        blocking path runs on at a time. Steal is CPU time other tenants
        of the physical machine took, not the program's own cost. The
        correction is capped at half the sample."""
        return sample["s"] - min(self.steal_share * sample["steal"],
                                 sample["s"] / 2)


# -- shared op pieces ---------------------------------------------------------


class Workload:
    name = ""
    # rel scans of similar size (about one link per page each), so their
    # median is one well-defined scan cost
    scan_rels = (BF + "creator", BF + "isbn", BF + "date")
    lookups_per_batch = 24

    def __init__(self, seed: int, work: str, tracer, stats: Stats):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.stats = stats
        self.alias = alias_table(seed)
        self.rng = random.Random(seed)
        self.n_ops = 0

    # the store the last op committed, and the link-set it must hold
    store: str = ""
    expected: LinkIndex = None

    def record(self) -> dict:
        return {}

    def pick_origins(self) -> list:
        origins = sorted(self.expected.by_origin)
        return self.rng.sample(origins, min(self.lookups_per_batch, len(origins)))

    def check_store(self) -> None:
        """The committed link-set, read file by file with pyarrow from the
        live file list, equals the expected one."""
        tables = [pq.read_table(f, columns=list(QUAD_COLS))
                  for f in store_files(self.store)]
        quads = quad_strings(pa.concat_tables(tables)) if tables else []
        check(len(quads) == len(set(quads)), f"{self.name}: duplicate links stored")
        check(len(quads) == self.expected.count,
              f"{self.name}: {len(quads)} links, expected {self.expected.count}")
        check(digest(quads) == self.expected.digest,
              f"{self.name}: link-set digest differs from the reference")

    def reads(self, origins) -> None:
        """The fixed pruned-read batch: origin lookups, then rel scans,
        each checked against the expected link-set."""
        from versa_ray.model.store import read_linkset

        for o in origins:
            with self.tracer.span("store.lookup"):
                with self.stats.timed("lookup"):
                    rows = read_linkset(self.store, origin=o).take_all()
            got = set(quad_strings(pa.Table.from_pylist(rows))) if rows else set()
            check(got == self.expected.by_origin.get(o, set()),
                  f"{self.name}: lookup {o} returned {len(got)} rows")
        for rel in self.scan_rels:
            with self.tracer.span("store.scan"):
                with self.stats.timed("scan"):
                    rows = read_linkset(self.store, rel=rel).take_all()
            check(len(rows) == self.expected.rel_count.get(rel, 0),
                  f"{self.name}: scan {rel} returned {len(rows)} rows")

    # -- traced layers ------------------------------------------------------

    def traced_extract_score(self, pages_ds, checkpoint=None):
        """extract_links -> [Parquet checkpoint ->] score_entities, each
        materialized; the layer counts are taken only when tracing."""
        import ray.data as rd

        from versa_ray.web.kgpipeline import extract_links, score_entities

        with self.tracer.span("extract"):
            ex = extract_links(pages_ds, check_text=True).materialize()
        if checkpoint:
            with self.tracer.span("checkpoint"):
                ex.write_parquet(checkpoint)
                ex = rd.read_parquet(checkpoint).materialize()
        with self.tracer.span("score"):
            sc = score_entities(ex, self.alias).materialize()
        if self.tracer.enabled:
            st = self.stats
            rows = arrow_of(ex)
            names = [t for r, t in zip(rows["rel"].to_pylist(),
                                       rows["target"].to_pylist())
                     if r == NAME_REL]
            scored = arrow_of(sc)
            st.note("extract.rows_out", rows.num_rows)
            st.note("score.rows", scored.num_rows)
            st.note("score.distinct_mention_frac",
                    len(set(names)) / max(1, len(names)))
            st.note("score.hits", sum(1 for a in scored["attrs"].to_pylist()
                                      if a and "@authority" in a))
        return sc

    def traced_dedup(self, links_ds):
        import ray

        from versa_ray.model.linkset import distinct_links

        st = self.stats
        rows_in = links_ds.count()
        st.note("dedup.rows_in", rows_in)
        st.note("dedup.bytes_in", links_ds.size_bytes())
        with self.tracer.span("dedup"):
            dd = distinct_links(links_ds).materialize()
        blocks = sorted(t.num_rows for t in ray.get(dd.to_arrow_refs())
                        if t.num_rows)
        rows_out = sum(blocks)
        st.note("dedup.rows_out", rows_out)
        st.note("dedup.dup_frac", 1 - rows_out / max(1, rows_in))
        if blocks:
            st.note("dedup.block_skew", blocks[-1] / blocks[len(blocks) // 2])
        return dd

    def traced_commit(self, fn, *args, **kw):
        """Call the store-layer commit ``fn`` and record what it wrote."""
        from versa_ray.model.store import StoreWriteConflict, pruned_fragments

        st = self.stats
        before = set(store_files(self.store))
        try:
            with self.tracer.span("store.commit"):
                out = fn(*args, **kw)
        except StoreWriteConflict:
            st.note("store.conflicts", 1)
            raise
        st.note("store.conflicts", 0)
        after = store_files(self.store)
        written = [f for f in after if f not in before]
        parts_all = {partition_of(f) for f in after}
        st.note("store.files_written", len(written))
        st.note("store.files_after", len(after))
        st.note("store.touched_frac",
                len({partition_of(f) for f in written}) / max(1, len(parts_all)))
        origins = self.pick_origins()
        st.note("store.lookup_files_frac", sorted(
            len(pruned_fragments(self.store, origin=o)) / max(1, len(after))
            for o in origins)[len(origins) // 2])
        return out


# -- kg_build -----------------------------------------------------------------


class KGBuild(Workload):
    """build_kg over a seeded pages corpus (the kgbuild path)."""

    name = "kg_build"
    n_pages = 1500

    def prepare(self, rep: int) -> None:
        from versa_ray.web.kgpipeline import build_kg

        pages = page_table(self.seed, 0, self.n_pages, self.n_pages)
        self.pages_dir = write_shards(pages, os.path.join(self.work, "pages"), 6)
        warm = write_shards(pages.slice(0, 100), os.path.join(self.work, "warm"), 2)
        out = os.path.join(self.work, "warm-kg")
        shutil.rmtree(out, ignore_errors=True)
        build_kg(pages_path=warm, out_dir=out, alias_table=self.alias,
                 check_text=True)
        shutil.rmtree(out, ignore_errors=True)
        self._pages = pages

    def reference(self) -> None:
        self.ref_links = reference_links(self._pages, self.alias)
        self.rows_in = self.ref_links.num_rows
        self.expected = LinkIndex(quad_strings(self.ref_links))

    def _out(self) -> str:
        out = os.path.join(self.work, f"kg-{self.n_ops}")
        shutil.rmtree(os.path.join(self.work, f"kg-{self.n_ops - 1}"),
                      ignore_errors=True)
        self.store = os.path.join(out, "stage=linkset")
        return out

    def op(self) -> None:
        from versa_ray.web.kgpipeline import build_kg

        out = self._out()
        with self.stats.timed("op", pages=self.n_pages, links_in=self.rows_in):
            build_kg(pages_path=self.pages_dir, out_dir=out,
                     alias_table=self.alias, check_text=True)
        self.n_ops += 1

    def traced_op(self) -> None:
        import ray.data as rd

        from versa_ray.model.store import write_linkset

        out = self._out()
        pages = rd.read_parquet(self.pages_dir, columns=["url", "html", "text"])
        sc = self.traced_extract_score(
            pages, checkpoint=os.path.join(out, "stage=extracted"))
        dd = self.traced_dedup(sc)
        self.traced_commit(write_linkset, dd, self.store,
                           num_partitions=NUM_PARTITIONS)
        self.n_ops += 1

    def record(self) -> dict:
        return {"pages": self.n_pages, "links_in": self.rows_in,
                "links_out": self.expected.count}


# -- kg_merge -----------------------------------------------------------------


class KGMerge(Workload):
    """distinct_links + write_linkset over overlapping re-crawl windows."""

    name = "kg_merge"
    n_pages = 2000
    window = 520  # pages per re-crawl window
    step = 200  # window stride: each page lands in window/step = 2.6 windows

    def prepare(self, rep: int) -> None:
        import ray.data as rd

        pages = page_table(self.seed, 0, self.n_pages, self.n_pages)
        pages_dir = write_shards(pages, os.path.join(self.work, "pages"), 8)
        ds = rd.read_parquet(pages_dir, columns=["url", "html", "text"])
        links = arrow_of(self.traced_extract_score(ds))
        links = links.sort_by("src_url")
        # page index of each row's source url (urls end in the page number)
        page_of = [int(u.rsplit("/", 1)[1]) for u in links["src_url"].to_pylist()]
        starts = {}
        for i, p in enumerate(page_of):
            starts.setdefault(p, i)
        bounds = [starts.get(p, len(page_of)) for p in range(self.n_pages)]
        bounds.append(len(page_of))

        def rows_of(lo, hi):
            return links.slice(bounds[lo], bounds[hi] - bounds[lo])

        out = os.path.join(self.work, "windows")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        self.rows_in = 0
        for w, lo in enumerate(range(0, self.n_pages, self.step)):
            hi = lo + self.window
            parts = [rows_of(lo, min(hi, self.n_pages))]
            if hi > self.n_pages:  # windows wrap around the corpus
                parts.append(rows_of(0, hi - self.n_pages))
            win = pa.concat_tables(parts)
            self.rows_in += win.num_rows
            pq.write_table(win, os.path.join(out, f"window-{w:03d}.parquet"))
        self.windows_dir = out
        self._pages = pages
        self.ref_links = links

    def reference(self) -> None:
        self.expected = LinkIndex(quad_strings(self.ref_links))

    def _out(self) -> str:
        shutil.rmtree(os.path.join(self.work, f"merged-{self.n_ops - 1}"),
                      ignore_errors=True)
        self.store = os.path.join(self.work, f"merged-{self.n_ops}")
        return self.store

    def op(self) -> None:
        import ray.data as rd

        from versa_ray.model.linkset import distinct_links
        from versa_ray.model.store import write_linkset

        out = self._out()
        with self.stats.timed("op", pages=self.n_pages, links_in=self.rows_in):
            write_linkset(distinct_links(rd.read_parquet(self.windows_dir)),
                          out, num_partitions=NUM_PARTITIONS)
        self.n_ops += 1

    def traced_op(self) -> None:
        import ray.data as rd

        from versa_ray.model.store import write_linkset

        out = self._out()
        with self.tracer.span("read"):
            rows = rd.read_parquet(self.windows_dir).materialize()
        dd = self.traced_dedup(rows)
        self.traced_commit(write_linkset, dd, out, num_partitions=NUM_PARTITIONS)
        self.n_ops += 1

    def record(self) -> dict:
        return {"pages": self.n_pages, "links_in": self.rows_in,
                "links_out": self.expected.count}


# -- kg_store -----------------------------------------------------------------


class KGStore(Workload):
    """update_kg deltas on a stored KG, each followed by pruned reads."""

    name = "kg_store"
    n_pages = 600
    n_deltas = 6
    recrawl = 40  # re-crawled pages per delta
    fresh = 40  # new pages per delta

    def prepare(self, rep: int) -> None:
        from versa_ray.web.kgpipeline import build_kg

        pages = page_table(self.seed, 0, self.n_pages, self.n_pages)
        pages_dir = write_shards(pages, os.path.join(self.work, "pages"), 4)
        self.deltas = []
        for k in range(self.n_deltas):
            lo = (k * 97 * self.recrawl) % (self.n_pages - self.recrawl)
            new = self.n_pages + k * self.fresh
            tbl = pa.concat_tables([
                page_table(self.seed, lo, lo + self.recrawl, self.n_pages),
                page_table(self.seed, new, new + self.fresh, self.n_pages),
            ])
            path = os.path.join(self.work, f"delta-{k}.parquet")
            pq.write_table(tbl, path)
            self.deltas.append((path, tbl))
        out = os.path.join(self.work, "pristine")
        shutil.rmtree(out, ignore_errors=True)
        with self.tracer.span("setup.pristine"):
            build_kg(pages_path=pages_dir, out_dir=out, alias_table=self.alias,
                     check_text=True)
        self.pristine = os.path.join(out, "stage=linkset")
        self._pages = pages

    def reference(self) -> None:
        from versa_ray.model.store import read_linkset

        self.ref_links = reference_links(self._pages, self.alias)
        self.expected = LinkIndex(quad_strings(self.ref_links))
        self.delta_quads = []
        self.delta_rows = []
        for _, tbl in self.deltas:
            links = reference_links(tbl, self.alias)
            self.delta_rows.append(links.num_rows)
            self.delta_quads.append(quad_strings(links))
        # the pristine store must hold the reference link-set, and each
        # pruned lookup the rows a full read holds for that origin
        self.store = self.pristine
        self.check_store()
        full = quad_strings(arrow_of(read_linkset(self.store)))
        by_origin: dict = {}
        for q in full:
            by_origin.setdefault(q.split("\x1f", 1)[0], set()).add(q)
        self.origins = self.pick_origins()
        for o in self.origins[:5]:
            got = set(quad_strings(pa.Table.from_pylist(
                read_linkset(self.store, origin=o).take_all())))
            check(got == by_origin[o], f"kg_store: pristine lookup {o} differs")
        self.base = self.expected
        self.store = os.path.join(self.work, "store")

    def _next_delta(self) -> int:
        """Reset the store to a fresh copy of the pristine one and return
        the delta to apply. Every update then starts from the same store
        state, so its cost does not depend on how many updates fit in a
        run."""
        k = self.n_ops % self.n_deltas
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.pristine, self.store)
        self.expected = self.base.add(self.delta_quads[k])
        return k

    def op(self) -> None:
        import ray.data as rd

        from versa_ray.web.kgpipeline import update_kg

        k = self._next_delta()
        with self.stats.timed("op", pages=len(self.deltas[k][1]),
                              links_in=self.delta_rows[k]):
            res = update_kg(rd.read_parquet(self.deltas[k][0]), self.store,
                            alias_table=self.alias, check_text=True)
        self.n_ops += 1
        check(res["rows_after"] == self.expected.count,
              f"kg_store: rows_after {res['rows_after']}, "
              f"expected {self.expected.count}")

    def traced_op(self) -> None:
        import ray.data as rd

        from versa_ray.model.store import update_linkset

        k = self._next_delta()
        pages = rd.read_parquet(self.deltas[k][0])
        dd = self.traced_dedup(self.traced_extract_score(pages))
        res = self.traced_commit(update_linkset, self.store, dd)
        self.n_ops += 1
        check(res["rows_after"] == self.expected.count,
              f"kg_store: rows_after {res['rows_after']}, "
              f"expected {self.expected.count}")

    def pick_origins(self) -> list:
        # one fixed lookup batch per run, drawn from the pristine store
        if getattr(self, "origins", None):
            return self.origins
        return super().pick_origins()

    def record(self) -> dict:
        return {"pages": self.n_pages, "deltas": self.n_deltas,
                "delta_pages": self.recrawl + self.fresh,
                "links_pristine": self.base.count}


WORKLOADS = {w.name: w for w in (KGBuild, KGMerge, KGStore)}
