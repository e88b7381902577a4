"""ramspect: induced-subgraph size spectra of Ramsey-type graphs.

Exact spectrum oracles for small graphs, richness/diversity audits,
point-probability anticoncentration tools, and the randomized construction
that certifies many distinct induced-subgraph sizes near a target edge count.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    anticoncentration,
    double_exposure,
    graph_core,
    ramsey_construct,
    spectrum_oracle,
    structure_audit,
)
