"""Operators over link-sets and document corpora: graph analytics and
validation over the link-set and the parts graph, entity resolution,
document dedup, curation, retrieval, sampling and tokenization, and
the aggregates and joins they use."""

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
)
