"""Exact dimer-model statistics on planar bipartite graphs with matrix edge weights.

The library couples two independent computation routes: block Kasteleyn
determinants (with a sign connection solved from the face parity rule)
and a brute-force enumeration oracle over covers and half-edge colorings;
``dimerlab.certify`` checks one against the other.  Every formula is exact
over rationals; floats are an opt-in backend.
"""

from .certify import certify_graph, certify_move
from .graph import (
    BLACK,
    WHITE,
    Edge,
    EmbeddedGraph,
    Face,
    GraphError,
    Vertex,
    build_graph,
    graph_to_spec,
    load_graph,
    save_graph,
    trace_faces,
    validate,
)
from .kasteleyn import (
    KasteleynSystem,
    assemble,
    connection_is_valid,
    flip_coboundary,
    solve_signs,
)
from .linalg import (
    BlockMatrix,
    LinalgError,
    Matrix,
    ShapeError,
    SingularMatrixError,
    char_coeffs,
    det,
    inverse,
    minor,
)
from .moves import (
    MoveCertificate,
    MoveError,
    contract,
    gauge,
    gauge_certificate,
    gauge_tree_to_identity,
    leaf_trim,
    parallel_reduce,
    square_move,
)
from .oracle import (
    EnumerationCapError,
    cover_weight,
    enumerate_colorings,
    enumerate_covers,
    oracle_cover_table,
    oracle_distribution,
    oracle_joint,
    oracle_moment,
    oracle_partition,
    oracle_product_expectation,
    sample_cover,
)
from .statistics import (
    Distribution,
    covariance,
    cycle_probability_matrix,
    expected_multiplicity,
    joint_distribution,
    moment,
    multiplicity_distribution,
    pr_used,
    probability_matrix,
    product_expectation,
    psi,
    variance,
)
from . import zoo

__version__ = "0.1.0"
