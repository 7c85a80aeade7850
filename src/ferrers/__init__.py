"""Exact spanning-tree counts and degree-product bounds for bipartite graphs.

The toolkit proves, at desk scale and in exact arithmetic, that a connected
bipartite graph has at most (1/mn) * prod(deg) spanning trees, with equality
exactly for the staircase graphs whose Y-neighborhoods nest.  Everything on
the certified path runs over integers or Fractions, the spectral
majorization step included (certify_majorization: Ky Fan's maximum
principle and Sylvester's criterion, checked in integers), and it is the
verdict of the spectrum verb too.  Floating point appears only in the
Jacobi eigensolver, which reports the spectrum beside that verdict and
serves kyfan_check, the maximum principle on float matrices; no verdict on
a graph and no campaign reads it.
"""

from .errors import (
    CapExceeded,
    DimensionError,
    DisconnectedGraph,
    FerrersError,
    GraphFormatError,
    IdentityViolation,
    InvalidPartition,
    IsolatedVertex,
    NonConvergence,
    TheoremViolation,
)
from .graphs import (
    BipartiteGraph,
    DegreeData,
    PartitionSpec,
    bit_indices,
    canonical_form,
    degrees,
    enumerate_connected,
    ferrers_from_partition,
    from_biadjacency,
    graph_from_mask,
    is_connected,
    is_ferrers,
    parse_graph,
    write_graph,
)
from .linalg import (
    RationalMatrix,
    bareiss_det,
    leading_minors,
    matrix_M,
    projection_P,
    projection_Q,
    rat_str,
    scaled_schur,
)
from .spectral import (
    SpectralReport,
    Spectrum,
    certify_majorization,
    eigen_sym,
    kyfan_check,
    majorization_report,
    overlap_defect,
    overlap_trace,
    report_dict,
)
from .trees import (
    check_reduction,
    ferrers_invariant,
    tau_brute_force,
    tau_matrix_tree,
)
from .verify import (
    CampaignSummary,
    VerificationRecord,
    corollary_check,
    equality_flag_diagonalization,
    record_dict,
    summary_dict,
    verify_graph,
    verify_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "CampaignSummary",
    "CapExceeded",
    "DegreeData",
    "DimensionError",
    "DisconnectedGraph",
    "FerrersError",
    "GraphFormatError",
    "IdentityViolation",
    "InvalidPartition",
    "IsolatedVertex",
    "NonConvergence",
    "PartitionSpec",
    "RationalMatrix",
    "SpectralReport",
    "Spectrum",
    "TheoremViolation",
    "VerificationRecord",
    "bareiss_det",
    "bit_indices",
    "canonical_form",
    "certify_majorization",
    "check_reduction",
    "corollary_check",
    "degrees",
    "eigen_sym",
    "enumerate_connected",
    "equality_flag_diagonalization",
    "ferrers_from_partition",
    "ferrers_invariant",
    "from_biadjacency",
    "graph_from_mask",
    "is_connected",
    "is_ferrers",
    "kyfan_check",
    "leading_minors",
    "majorization_report",
    "matrix_M",
    "overlap_defect",
    "overlap_trace",
    "parse_graph",
    "projection_P",
    "projection_Q",
    "rat_str",
    "record_dict",
    "report_dict",
    "scaled_schur",
    "summary_dict",
    "tau_brute_force",
    "tau_matrix_tree",
    "verify_graph",
    "verify_pairs",
    "write_graph",
]
