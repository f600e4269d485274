"""sdglab: symmetric disk graphs over arbitrary metrics.

Build threshold disk graphs from metrics or weighted graphs, compute their
minimum spanning forests, certify the logarithmic lightness bound
w(MSF(SDG)) <= 2 * log_{5/4} n * w(MST) constructively, and solve the bounded
range assignment problem within a logarithmic factor.
"""

from .assignment import AssignmentReport, CostRatioReport, bounded_assignment, cost_ratio_check
from .decomposition import (
    BoundViolationError,
    DecompositionCertificate,
    LightnessTrace,
    Prepared,
    TraceRound,
    WeightCoefficientReport,
    decompose,
    lightness_bound,
    lightness_trace,
    log_rounds_bound,
    verify_certificate,
    weight_coefficient,
)
from .disk import RangeAssignment, build_sdg, sdg_msf
from .graph import Forest, WeightedGraph, complete_graph, dense_msf, edge_key, is_msf, kruskal_msf
from .hamiltonian import HamPath, approx_ham_path, exact_min_ham_path, shortcut_path
from .instances import (
    InstanceBundle,
    InstanceFormatError,
    gen_c3,
    gen_chain_metric,
    gen_line_graph,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
    gen_star_metric,
    mix_seed,
    read_instance,
    write_instance,
)
from .metric import Metric, MetricError, MetricViolation, validate_metric

__version__ = "0.1.0"
