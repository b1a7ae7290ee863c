"""Block-graph structural analysis and equitable coloring toolkit."""

from .graph import (
    BlockDecomposition,
    BlockGraph,
    LevelAssignment,
    clique_levels,
    clique_star_center,
    decompose,
    from_edge_list,
    generate_block_graphs,
)
from .invariants import (
    AlphaMinResult,
    DcResult,
    ParamReport,
    alpha,
    alpha_min,
    alpha_with,
    bounds_report,
    counting_lower_bound,
    dc_exact,
    is_ais,
    is_v_ais,
)
from .characterization import (
    CharCertificate,
    OpDescriptor,
    OpKind,
    StarExtension,
    apply_operation,
    find_decomposition,
    generate_with_alphamin,
    verify_certificate,
)
from .gls import (
    BinPackingInstance,
    Coloring,
    CountMatrix,
    GlsGraph,
    build_gls,
    color_nplus2,
    color_uniform,
    equitably_k1_colorable_uniform,
)
from .oracle import (
    SpectrumReport,
    bin_packing_decide,
    brute_alpha,
    brute_alpha_with,
    brute_dc,
    canonical_form,
    check_coloring,
    count_block_graphs,
    exact_chi_eq,
    exact_equitable_colorable,
    spectrum,
)

__version__ = "0.1.0"
