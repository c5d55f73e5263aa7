"""Independent optimum of an exported model through scipy's HiGHS MILP solver.

Used only by the correctness gate of the ``exact`` workload.  scipy is
optional: ``highs_oracle`` returns None when it cannot be imported, and
the gate then notes the skip.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

TIME_LIMIT_S = 20.0


def highs_oracle() -> Optional[Callable]:
    """A function model -> optimal objective (None if HiGHS proves nothing)."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_matrix
    except ImportError:
        return None

    def solve(model) -> Optional[float]:
        index = {var.name: i for i, var in enumerate(model.variables)}
        cost = np.zeros(len(index))
        for coeff, name in model.objective_terms:
            cost[index[name]] += coeff
        rows, cols, values, lower, upper = [], [], [], [], []
        for r, row in enumerate(model.rows):
            for coeff, name in row.terms:
                rows.append(r)
                cols.append(index[name])
                values.append(coeff)
            lower.append(row.rhs if row.sense in (">=", "=") else -math.inf)
            upper.append(row.rhs if row.sense in ("<=", "=") else math.inf)
        matrix = coo_matrix((values, (rows, cols)), shape=(len(model.rows), len(index)))
        result = milp(
            cost,
            constraints=LinearConstraint(matrix.tocsr(), lower, upper),
            integrality=[1 if var.kind == "binary" else 0 for var in model.variables],
            bounds=Bounds([var.lower for var in model.variables],
                          [var.upper for var in model.variables]),
            options={"time_limit": TIME_LIMIT_S},
        )
        return float(result.fun) if result.status == 0 else None

    return solve
