"""versa_ray — a Ray-Data-native knowledge-graph construction engine
with the query/data-processing capabilities of the Versa link model.

The fundamental abstraction is the link quad (origin, rel, target,
attrs), stored as Arrow rows (see versa_ray.core.canon.LINK_SCHEMA) and
processed as ray.data.Dataset pipelines of vectorized map_batches
stages. Extraction and entity scoring run as tasks with a per-worker
cache; every keyed shuffle (dedup, canonicalization, the store
commit) goes through the one exchange primitive in
versa_ray.core.exchange.
"""

from .core import (
    ATTRIBUTES,
    EMPTY_ATTRS,
    I,
    LINK_COLUMNS,
    LINK_SCHEMA,
    ORIGIN,
    RDF_NS,
    RDF_TYPE_REL,
    RDFS_NS,
    RELATIONSHIP,
    TARGET,
    VERSA_BASEIRI,
    VERSA_NULL,
    VFPRINT_REL,
    VLABEL_REL,
    VTYPE_REL,
    resource_id,
    simple_hashstring,
)

__version__ = "0.4.0"
