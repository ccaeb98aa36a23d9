"""Phylogenetic decisiveness checking via no-rainbow hypergraph colorings."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Coloring,
    ComponentPartition,
    CoveragePattern,
    Hypergraph,
    build_hypergraph,
    connected_components,
    is_rainbow,
    verify_no_rainbow,
)
from .errors import (  # noqa: F401
    DecisiveError,
    InputFormatError,
    InvalidInstanceError,
    SizeLimitError,
)
from .nrc import NrcOutcome, nrc, nrc2, nrc3, nrc4, non_neighbor_witness  # noqa: F401
from .pipeline import SubsetTrace, Verdict, decide, decisive_subset  # noqa: F401
from .reduction import fpt_nrc4, reduce_pattern  # noqa: F401
