"""Operators over link-sets and document corpora: graph analytics and
validation over the link-set and the parts graph, entity resolution,
document dedup, curation, retrieval, sampling and tokenization, the
aggregates and joins they use, and the clickstream windows over the
synthetic ``events`` table (``windows``)."""

from . import (
    agg,
    boilerplate,
    chunking,
    contamination,
    curation,
    dedup,
    graph,
    io,
    joins,
    lm,
    mentions,
    retrieval,
    sample,
    textstats,
    urltools,
    validate,
    windows,
)
