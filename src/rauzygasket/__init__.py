"""Rauzy induction on special systems of isometries, the projectivized
Markov map of the Rauzy gasket, exact cylinder measures, and numerical
Hausdorff-dimension upper bounds."""

__version__ = "0.1.0"

from .induction import (  # noqa: F401
    Hole,
    HoleAt,
    SpecialSystem,
    Step,
    Survived,
    Tie,
    TieEncountered,
    accelerated_step,
    classify_thin,
    make_system,
    rauzy_step,
)
from .graph import (  # noqa: F401
    RauzyGraph,
    RauzyPath,
    build_graph,
    cocycle_of,
    enumerate_paths,
    is_complete,
    is_positive,
)
from .markov import (  # noqa: F401
    ChartPoint,
    MarkovCell,
    apply_T,
    cell_of,
    chaos_game,
    cylinder_vertices,
    inverse_branch,
    jacobian,
)
from .measures import (  # noqa: F401
    TailCurve,
    cylinder_measure,
    first_return,
    mc_balance,
    mc_kerckhoff,
    path_probability,
    roof,
    roof_tail,
)
from .dimension import (  # noqa: F401
    Cylinder,
    DimensionReport,
    ad_bound,
    box_counting,
    delta_estimate,
    dimension_report,
    enumerate_cylinders,
    fast_decay_estimate,
    survivor_mass,
)
