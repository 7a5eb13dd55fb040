"""Rows/s microbenchmarks for the four hot kernels the ROADMAP names.

Each kernel runs on inputs taken from the workload's own seeded corpus,
repeats for a fixed time budget, and reports the median rate of its
repetitions. The CPU count they ran on is in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa

KERNEL_PAGES = 200  # pages fed to the extract and rule kernels
DEDUP_ROWS = 30_000  # link rows in the fixed distinct_links table
HASH_KEYS = 50_000  # keys per hash64_batch call


def _rate(fn, units: int, budget_s: float, min_reps: int = 3) -> float:
    """Median units/s of ``fn()`` repeated for ``budget_s`` seconds."""
    rates = []
    t_end = time.perf_counter() + budget_s
    while len(rates) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


def extract_kernel(pages: pa.Table, budget_s: float) -> float:
    """``web.extract.extract_both`` in-process: pages/s."""
    from versa_ray.web.extract import extract_both

    docs = list(zip(pages["html"].to_pylist(), pages["url"].to_pylist()))

    def run():
        for html, url in docs:
            extract_both(html, url)

    return _rate(run, len(docs), budget_s)


def pipeline_kernel(pages: pa.Table, budget_s: float) -> tuple:
    """One document's ``generic_pipeline(*kg_rules()).run``: docs/s and
    links emitted per doc."""
    from versa_ray.core import RDF_TYPE_REL, VTYPE_REL
    from versa_ray.model.micro import MicroModel
    from versa_ray.pipeline import generic_pipeline
    from versa_ray.web.extract import extract_rdfa
    from versa_ray.web.kgpipeline import kg_rules

    pipe = generic_pipeline(*kg_rules())
    docs = [(url, extract_rdfa(html, url)) for html, url in
            zip(pages["html"].to_pylist(), pages["url"].to_pylist())]
    links = []

    def run():
        links.clear()
        for url, triples in docs:
            model = MicroModel()
            for s, p, o, _is_iri in triples:
                model.add(s, VTYPE_REL if p == RDF_TYPE_REL else p, o)
            links.append(len(pipe.run(input_model=model, doc_tint=url).to_rows()))

    rate = _rate(run, len(docs), budget_s)
    return rate, sum(links) / len(links)


def hash_kernel(keys: list, budget_s: float) -> float:
    """``core.mmh3.hash64_batch`` over ASCII keys: keys/s."""
    from versa_ray.core.mmh3 import hash64_batch

    arr = np.array((keys * (HASH_KEYS // len(keys) + 1))[:HASH_KEYS])
    return _rate(lambda: hash64_batch(arr), len(arr), budget_s)


def dedup_table(links: pa.Table) -> pa.Table:
    """The fixed distinct_links input: the workload's link rows repeated
    up to DEDUP_ROWS rows."""
    reps = DEDUP_ROWS // links.num_rows + 1
    return pa.concat_tables([links] * reps).slice(0, DEDUP_ROWS)


def dedup_kernel(table: pa.Table, budget_s: float) -> float:
    """``model.linkset.distinct_links`` over a fixed in-memory link
    table, materialized: input rows/s."""
    import ray.data as rd

    from versa_ray.model.linkset import distinct_links

    return _rate(lambda: distinct_links(rd.from_arrow(table)).materialize(),
                 table.num_rows, budget_s, min_reps=2)
