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

verify_model_at_point evaluates rows and objective exactly, so model files
can be cross-checked against solver output without tolerance questions:
each value is read once as a Fraction, every value is scaled by one
common denominator D (the lcm of their denominators) to an integer, and
rows, bounds and the objective are then summed in plain int arithmetic
against rhs*D and bound*D.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import __version__
from .core import Instance, PathSolution
from .instance_io import render_instance

Number = Union[int, Fraction]

CONSTANT_VAR = "ONE_VAR_CONSTANT"


class MissingVariableError(KeyError):
    """The assignment lacks a variable of the model."""


@dataclass(frozen=True)
class VariableDef:
    name: str
    kind: str  # "binary" or "continuous"
    lower: int
    upper: int


@dataclass(frozen=True)
class ConstraintRow:
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
        out.extend(_wrap_terms(" obj:", self.objective_terms))
        out.append("Subject To")
        for row in self.rows:
            out.extend(_wrap_terms(f" {row.name}:", row.terms, row.sense, row.rhs))
        out.append("Bounds")
        for var in self.variables:
            if var.kind == "binary":
                continue
            if var.lower == var.upper:
                out.append(f" {var.name} = {var.lower}")
            else:
                out.append(f" {var.lower} <= {var.name} <= {var.upper}")
        out.append("Binaries")
        for var in self.variables:
            if var.kind == "binary":
                out.append(f" {var.name}")
        out.append("End")
        return "\n".join(out) + "\n"


def _wrap_terms(
    prefix: str,
    terms: Sequence[tuple[int, str]],
    sense: Optional[str] = None,
    rhs: Optional[int] = None,
    per_line: int = 8,
) -> list[str]:
    pieces = [f"{'-' if coeff < 0 else '+'} {abs(coeff)} {name}" for coeff, name in terms]
    if not pieces:
        pieces = ["+ 0 " + CONSTANT_VAR]
    lines = []
    for i in range(0, len(pieces), per_line):
        chunk = " ".join(pieces[i: i + per_line])
        lines.append(f"{prefix} {chunk}" if i == 0 else f"   {chunk}")
    if sense is not None:
        lines[-1] += f" {sense} {rhs}"
    return lines


def instance_digest(instance: Instance) -> str:
    """sha256 of the canonical instance text; ties a model file to its instance."""
    return hashlib.sha256(render_instance(instance).encode("ascii")).hexdigest()


def export_flow_model(instance: Instance) -> ExportedModel:
    """Build the linearised flow model for an instance, MTZ rows included."""
    n = instance.vertex_count
    arcs = instance.arcs
    x_name = [f"x_{a.tail}_{a.head}" for a in arcs]
    y_name = [f"y_{k}" for k in range(len(instance.conflicts))]

    variables: list[VariableDef] = [VariableDef(CONSTANT_VAR, "continuous", 1, 1)]
    variables.extend(VariableDef(name, "binary", 0, 1) for name in x_name)
    variables.extend(VariableDef(name, "binary", 0, 1) for name in y_name)

    # Objective: w*x collects -p for each conflict the arc belongs to,
    # y gets 2p, and the constant sum(p) rides on the fixed variable.
    x_coeff = [a.weight for a in arcs]
    for c in instance.conflicts:
        x_coeff[c.arc_a] -= c.penalty
        x_coeff[c.arc_b] -= c.penalty
    objective: list[tuple[int, str]] = [
        (coeff, name) for coeff, name in zip(x_coeff, x_name) if coeff != 0
    ]
    objective.extend(
        (2 * c.penalty, y_name[k]) for k, c in enumerate(instance.conflicts)
    )
    if instance.penalty_total:
        objective.append((instance.penalty_total, CONSTANT_VAR))

    rows: list[ConstraintRow] = []
    for v in range(n):
        terms = [(1, x_name[a]) for a in instance.outgoing[v]]
        terms += [(-1, x_name[a]) for a in instance.incoming[v]]
        rhs = 1 if v == instance.source else (-1 if v == instance.sink else 0)
        rows.append(ConstraintRow(f"flow_{v}", tuple(terms), "=", rhs))
    for k, c in enumerate(instance.conflicts):
        y = y_name[k]
        a, b = x_name[c.arc_a], x_name[c.arc_b]
        rows.append(
            ConstraintRow(f"penalty_lb_{k}", ((1, y), (-1, a), (-1, b)), ">=", -1)
        )
        rows.append(ConstraintRow(f"penalty_ub_a_{k}", ((1, y), (-1, a)), "<=", 0))
        rows.append(ConstraintRow(f"penalty_ub_b_{k}", ((1, y), (-1, b)), "<=", 0))

    header = [
        "SPEDAC flow model",
        f"instance-sha256: {instance_digest(instance)}",
        "sec-mode: mtz",
        f"tool-version: {__version__}",
    ]
    for v in range(n):
        upper = 0 if v == instance.source else n - 1
        variables.append(VariableDef(f"u_{v}", "continuous", 0, upper))
    for idx, a in enumerate(arcs):
        # u_head - u_tail - n*x >= 1 - n  <=>  u_head >= u_tail + 1 - n(1-x)
        rows.append(
            ConstraintRow(
                f"mtz_{a.tail}_{a.head}",
                ((1, f"u_{a.head}"), (-1, f"u_{a.tail}"), (-n, x_name[idx])),
                ">=",
                1 - n,
            )
        )

    return ExportedModel(
        variables=tuple(variables),
        objective_terms=tuple(objective),
        rows=tuple(rows),
        header=tuple(header),
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
    exact: list[Fraction] = []
    for var in model.variables:
        if var.name not in assignment:
            raise MissingVariableError(var.name)
        value = assignment[var.name]
        try:
            exact.append(Fraction(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"variable {var.name}: {value!r} is not a finite rational number"
            ) from exc
    scale = math.lcm(*(value.denominator for value in exact))
    values: dict[str, int] = {}
    violated: list[str] = []
    for var, value in zip(model.variables, exact):
        scaled = values[var.name] = value.numerator * (scale // value.denominator)
        if not var.lower * scale <= scaled <= var.upper * scale or (
            var.kind == "binary" and scaled not in (0, scale)
        ):
            violated.append(f"bound_{var.name}")
    for row in model.rows:
        lhs = sum(coeff * values[name] for coeff, name in row.terms)
        rhs = row.rhs * scale
        ok = (
            lhs <= rhs if row.sense == "<="
            else lhs >= rhs if row.sense == ">="
            else lhs == rhs
        )
        if not ok:
            violated.append(row.name)
    objective = sum(coeff * values[name] for coeff, name in model.objective_terms)
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
    for arc, x in zip(instance.arcs, flags):
        values[f"x_{arc.tail}_{arc.head}"] = x
    for k, c in enumerate(instance.conflicts):
        values[f"y_{k}"] = flags[c.arc_a] * flags[c.arc_b]
    position = {v: i for i, v in enumerate(solution.vertices)}
    for v in range(instance.vertex_count):
        values[f"u_{v}"] = position.get(v, 0)
    return values
