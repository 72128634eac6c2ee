"""threshq: certified bounds and exact values for the minimum number of
distinct eigenvalues of a threshold graph."""

__version__ = "0.1.0"

from .bounds import (
    Certificate,
    QBound,
    SelfCheckError,
    classify_q,
    classify_text,
    ub_section12,
    verify_certificate,
    verify_qbound,
)
from .gram import (
    GramFactor,
    cogram,
    construct_library,
    dup_realization,
    gram,
    jdup_realization,
    orthogonal_certificate,
    section12_factor,
)
from .orthosearch import (
    Feasible,
    Infeasible,
    SSPReport,
    SupportPattern,
    decide_column_orthogonal,
    low_q_search,
    ssp_check,
)
from .sequences import (
    BlockForm,
    CreationSequence,
    ThresholdGraph,
    block_form,
    build_graph,
    dup_graph,
    enumerate_connected,
    from_adjacency,
    graph_from_text,
    jdup_graph,
    parse_creation_sequence,
    to_edge_list,
    unique_path_bound,
)
from .spectra import (
    PatternReport,
    SpectrumSummary,
    check_matrix,
    cluster_spectrum,
    eigen_sym,
    in_pattern,
    load_factor,
    load_matrix,
    q_of_matrix,
    save_factor,
    save_matrix,
)
from .tables import TABLE7, TABLE8, TableReport, reproduce_table

__all__ = [name for name in dir() if not name.startswith("_")]
