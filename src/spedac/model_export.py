"""Flow-model export and verification.

The exported model is the standard linearisation of the problem:

* binary x_{tail}_{head} per arc, binary y_{k} per conflict k;
* objective  sum w*x  +  sum p*(2y - x_a - x_b + 1), whose constant part
  (sum of all penalties) rides on a fixed auxiliary variable
  ONE_VAR_CONSTANT bounded to 1, the usual trick of LP writers;
* one flow-conservation row per vertex (outflow - inflow is +1 at the
  source, -1 at the sink, 0 elsewhere);
* three linkage rows per conflict forcing y = x_a AND x_b;
* continuous order variables u_v in [0, n-1] with u_source fixed to 0
  and one Miller-Tucker-Zemlin (MTZ) row per arc
      u_head >= u_tail + 1 - n*(1 - x) ,
  emitted for every arc (also arcs entering the source, which the row
  simply forces off) so that every integer-feasible point decodes to
  exactly one simple source-sink path.

The catalog records (VariableDef, ConstraintRow) are named tuples, which
the builder makes with tuple.__new__ rather than through their
Python-level __new__.  It makes each variable name once per arc, vertex
or conflict, and each +-1 term tuple once per arc and per vertex; every
row that mentions a variable shares those objects.

verify_model_at_point evaluates rows and objective exactly, so model files
can be cross-checked against solver output without tolerance questions:
an int value is taken as it is and any other value is read once as a
Fraction, every value is scaled by one common denominator D (the lcm of
their denominators) to an integer, and rows, bounds and the objective
are then summed in plain int arithmetic against rhs*D and bound*D.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, NamedTuple, Sequence, Union

from . import __version__
from .core import Instance, PathSolution
from .instance_io import render_instance

Number = Union[int, Fraction]

CONSTANT_VAR = "ONE_VAR_CONSTANT"
_TERMS_PER_LINE = 8  # terms on one line of a written LP sum


class MissingVariableError(KeyError):
    """The assignment lacks a variable of the model."""


class VariableDef(NamedTuple):
    name: str
    kind: str  # "binary" or "continuous"
    lower: int
    upper: int


class ConstraintRow(NamedTuple):
    name: str
    terms: tuple[tuple[int, str], ...]  # (coefficient, variable name)
    sense: str  # "<=", ">=", "="
    rhs: int


@dataclass(frozen=True)
class ExportedModel:
    """Variable catalog, objective, and rows of the exported model."""

    variables: tuple[VariableDef, ...]
    objective_terms: tuple[tuple[int, str], ...]
    rows: tuple[ConstraintRow, ...]
    header: tuple[str, ...]

    def render(self) -> str:
        """LP-format text: ASCII, LF endings, deterministic."""
        out: list[str] = [f"\\ {line}" for line in self.header]
        out.append("Minimize")
        out.append(f" obj: {_wrap_terms(self.objective_terms)}")
        out.append("Subject To")
        out.extend([
            f" {name}: {_wrap_terms(terms)} {sense} {rhs}"
            for name, terms, sense, rhs in self.rows
        ])
        out.append("Bounds")
        for name, kind, lower, upper in self.variables:
            if kind == "binary":
                continue
            if lower == upper:
                out.append(f" {name} = {lower}")
            else:
                out.append(f" {lower} <= {name} <= {upper}")
        out.append("Binaries")
        out.extend([f" {name}" for name, kind, _, _ in self.variables if kind == "binary"])
        out += ("End", "")  # "" gives the final newline without a copy of the text
        return "\n".join(out)


def _wrap_terms(terms: Sequence[tuple[int, str]]) -> str:
    """Signed terms, _TERMS_PER_LINE to a line, later lines indented by
    three spaces.

    An empty sum is written as the zero multiple of the constant variable.
    """
    pieces = [
        f"- {-coeff} {name}" if coeff < 0 else f"+ {coeff} {name}" for coeff, name in terms
    ] or ["+ 0 " + CONSTANT_VAR]
    # The join's separator completes "\n  " to the three-space indent.
    for i in range(_TERMS_PER_LINE - 1, len(pieces) - 1, _TERMS_PER_LINE):
        pieces[i] += "\n  "
    return " ".join(pieces)


def instance_digest(instance: Instance) -> str:
    """sha256 of the canonical instance text; ties a model file to its instance."""
    return hashlib.sha256(render_instance(instance).encode("ascii")).hexdigest()


def export_flow_model(instance: Instance) -> ExportedModel:
    """Build the linearised flow model for an instance, MTZ rows included."""
    n = instance.vertex_count
    arcs = instance.arcs
    conflicts = instance.conflicts
    # Every name and every +-1 term is made once and shared by the rows.
    x_name = [f"x_{a.tail}_{a.head}" for a in arcs]
    y_name = [f"y_{k}" for k in range(len(conflicts))]
    u_name = [f"u_{v}" for v in range(n)]
    plus_x = [(1, x) for x in x_name]
    minus_x = [(-1, x) for x in x_name]
    plus_u = [(1, u) for u in u_name]
    minus_u = [(-1, u) for u in u_name]

    var = partial(tuple.__new__, VariableDef)
    variables: list[VariableDef] = [VariableDef(CONSTANT_VAR, "continuous", 1, 1)]
    variables.extend([var((name, "binary", 0, 1)) for name in (*x_name, *y_name)])
    variables.extend([
        var((u, "continuous", 0, 0 if v == instance.source else n - 1))
        for v, u in enumerate(u_name)
    ])

    # Objective: w*x collects -p for each conflict the arc belongs to,
    # y gets 2p, and the constant sum(p) rides on the fixed variable.
    x_coeff = [a.weight for a in arcs]
    for c in conflicts:
        x_coeff[c.arc_a] -= c.penalty
        x_coeff[c.arc_b] -= c.penalty
    objective: list[tuple[int, str]] = [
        (coeff, name) for coeff, name in zip(x_coeff, x_name) if coeff != 0
    ]
    objective.extend([(2 * c.penalty, y) for c, y in zip(conflicts, y_name)])
    if instance.penalty_total:
        objective.append((instance.penalty_total, CONSTANT_VAR))

    rhs = [0] * n
    rhs[instance.source] = 1
    rhs[instance.sink] = -1
    row = partial(tuple.__new__, ConstraintRow)
    rows: list[ConstraintRow] = []
    for v, out, into in zip(range(n), instance.outgoing, instance.incoming):
        terms = (*map(plus_x.__getitem__, out), *map(minus_x.__getitem__, into))
        rows.append(row((f"flow_{v}", terms, "=", rhs[v])))
    for k, c in enumerate(conflicts):
        y = (1, y_name[k])
        a, b = minus_x[c.arc_a], minus_x[c.arc_b]
        rows.append(row((f"penalty_lb_{k}", (y, a, b), ">=", -1)))
        rows.append(row((f"penalty_ub_a_{k}", (y, a), "<=", 0)))
        rows.append(row((f"penalty_ub_b_{k}", (y, b), "<=", 0)))
    # u_head - u_tail - n*x >= 1 - n  <=>  u_head >= u_tail + 1 - n(1-x)
    rows.extend([
        row(("mtz" + x[1:], (plus_u[a.head], minus_u[a.tail], (-n, x)), ">=", 1 - n))
        for a, x in zip(arcs, x_name)
    ])

    header = (
        "SPEDAC flow model",
        f"instance-sha256: {instance_digest(instance)}",
        "sec-mode: mtz",
        f"tool-version: {__version__}",
    )
    return ExportedModel(
        variables=tuple(variables),
        objective_terms=tuple(objective),
        rows=tuple(rows),
        header=header,
    )


def verify_model_at_point(
    model: ExportedModel, assignment: Mapping[str, Number]
) -> tuple[Fraction, list[str]]:
    """Exact check of an assignment against every row, bound, and the objective.

    Returns (objective value, names of violated rows); bound violations
    are reported as "bound_<variable>".  Raises MissingVariableError if
    the assignment misses any catalog variable, and a ValueError naming
    the variable if Fraction() cannot take its value (inf, nan, None, a
    non-numeric string).
    """
    exact: list[Number] = []
    for name, _, _, _ in model.variables:
        if name not in assignment:
            raise MissingVariableError(name)
        value = assignment[name]
        if type(value) is not int:
            try:
                value = Fraction(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"variable {name}: {value!r} is not a finite rational number"
                ) from exc
        exact.append(value)
    scale = math.lcm(*[value.denominator for value in exact])
    values: dict[str, Number] = {}
    violated: list[str] = []
    for (name, kind, lower, upper), value in zip(model.variables, exact):
        scaled = values[name] = (
            value if scale == 1 else value.numerator * (scale // value.denominator)
        )
        if not lower * scale <= scaled <= upper * scale or (
            kind == "binary" and scaled != 0 and scaled != scale
        ):
            violated.append(f"bound_{name}")
    for name, terms, sense, rhs in model.rows:
        lhs = 0
        for coeff, x in terms:
            lhs += coeff * values[x]
        rhs *= scale
        ok = (
            lhs <= rhs if sense == "<="
            else lhs >= rhs if sense == ">="
            else lhs == rhs
        )
        if not ok:
            violated.append(name)
    objective = sum([coeff * values[name] for coeff, name in model.objective_terms])
    return Fraction(objective, scale), violated


def induced_assignment(instance: Instance, solution: PathSolution) -> dict[str, int]:
    """The assignment a path induces on the exported model's variables.

    x flags arcs on the path, y is the AND of each conflict's arc flags,
    u numbers path vertices by visit order (off-path vertices sit at 0),
    and the constant variable is 1.
    """
    flags = [0] * len(instance.arcs)
    for idx in solution.arc_indices:
        flags[idx] = 1
    values: dict[str, int] = {CONSTANT_VAR: 1}
    for tail, head, x in zip(instance.tails, instance.heads, flags):
        values[f"x_{tail}_{head}"] = x
    for k, c in enumerate(instance.conflicts):
        values[f"y_{k}"] = flags[c.arc_a] * flags[c.arc_b]
    position = {v: i for i, v in enumerate(solution.vertices)}
    for v in range(instance.vertex_count):
        values[f"u_{v}"] = position.get(v, 0)
    return values
