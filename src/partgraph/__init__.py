"""Local structure of the single-cell transfer graph on integer partitions.

Vertices are the partitions of a fixed weight; two are joined when moving a
single corner cell turns one into the other.  The package computes which
moves are admissible, the bipartite corner graph a partition's block pattern
determines, closed forms for degrees and clique numbers, and it can replay
every closed form against brute force over all partitions up to a weight
bound.

The names imported below are the public API.
"""

from .graphs import (
    CliqueClassification,
    CliqueClassificationError,
    NeighborhoodCheck,
    PairCheck,
    SimpleGraph,
    build_partition_graph,
    classify_clique,
    cliques_through,
    induced_neighborhood,
    line_graph,
    verify_line_graph_theorem,
)
from .local_model import (
    LocalType,
    admissibility_graph,
    degree_formula,
    local_clique_number,
    local_dimension,
    local_type,
    side_degrees,
)
from .oracle import (
    CheckResult,
    VerificationReport,
    observe,
    run_all,
    verify_cliques,
    verify_degrees,
    verify_neighborhoods,
    verify_type_determinacy,
)
from .partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    gaps,
    make_partition,
    parse_partition,
)
from .transfers import (
    InadmissibleTransferError,
    TransferMove,
    apply_transfer,
    are_adjacent,
    neighbors,
)

__version__ = "0.1.0"
