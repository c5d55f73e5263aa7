"""Solver toolkit for shortest paths with exclusive-disjunction arc-pair conflicts.

A conflict couples two arcs of a digraph and charges its penalty when a
path uses both of them or neither of them.  The package bundles the
exact data model, exact and heuristic solvers, two benchmark instance
generators, an LP-format model exporter, and a file-based CLI.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    ArcRecord,
    ConflictRecord,
    Instance,
    InvariantError,
    MalformedPathError,
    PathSolution,
    SelectionViolation,
    evaluate,
    validate_selection,
)
from .generators import (  # noqa: F401
    RandomConfig,
    SmallWorldConfig,
    UnsatisfiableConfigError,
    arc_count,
    conflict_count,
    generate_random,
    generate_small_world,
    parse_profile,
    ring_degree,
)
from .instance_io import (  # noqa: F401
    ParseError,
    load_instance,
    parse_instance,
    render_instance,
    save_instance,
)
from .model_export import (  # noqa: F401
    ConstraintRow,
    ExportedModel,
    MissingVariableError,
    VariableDef,
    export_flow_model,
    induced_assignment,
    instance_digest,
    verify_model_at_point,
)
from .solvers import (  # noqa: F401
    GapUndefinedError,
    GuardExceededError,
    SolveReport,
    SolveStatus,
    branch_and_bound,
    brute_force,
    dijkstra,
    enumerate_simple_paths,
    local_search,
    optimality_gap,
    shortest_path_vertices,
)
