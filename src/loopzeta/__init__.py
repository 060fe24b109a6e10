"""loopzeta: loop measures, zeta determinants and square subdivisions.

Numerical companion to a family of identities connecting random-walk loop
measures on finite graphs, Brownian loop masses and zeta-regularized
Laplacian determinants on model surfaces, and central-charge reweighting of
square subdivisions of the Gaussian free field.
"""

from .surfaces import (
    DiskDirichlet,
    EnumerationBudgetError,
    FlatTorus,
    HeatCoefficients,
    IntervalDirichlet,
    ModelSurface,
    RectangleDirichlet,
    RoundSphere,
    parse_surface,
)
from .zeta import (
    EULER_GAMMA,
    ZetaDetReport,
    log_det_zeta,
    mellin_zeta,
    polyakov_alvarez,
    richardson_zeta_at_zero,
    scaled_surface,
    zeta,
    zeta_at_zero,
)
from .loopmass import (
    LoopMassQuery,
    decay_residual,
    fit_log_slope,
    loop_mass,
    loop_mass_quadrature,
    theorem_residual_boundary,
    theorem_residual_closed,
    zeta_from_weighted_loops,
)
from .graphs import (
    Graph,
    determinant_identity,
    grid_graph,
    loop_mass_exact,
    loop_mass_truncated,
    penalized_loop_mass,
    read_edge_list,
    sample_loop_soup,
    spanning_tree_count,
    write_edge_list,
)
from .lattice import (
    CATALAN,
    TorusLatticeSpec,
    aspect_difference_residual,
    constant_term,
    discrete_torus_log_det,
    standard_sequence,
    torus_constant,
)
from .gff import (
    GridField,
    dirichlet_energy,
    read_field,
    sample_dgff,
    square_average,
    write_field,
)
from .subdivision import (
    ChargeParams,
    DyadicPartition,
    adjacency_graph,
    charge_to_params,
    regime_protocol,
    render_svg,
    subdivide,
)
from .reweight import (
    ExperimentReport,
    density_ratio_check,
    det_weight,
    project_onto_partition,
    reweighting_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
