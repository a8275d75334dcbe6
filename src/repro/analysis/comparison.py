"""Head-to-head comparison of architectural alternatives.

The paper's core use case (section 4, Figure 6): evaluate the *same* offered
service under two different assemblies — same components, different wiring
and connectors — and determine which assembly is more reliable, where the
ranking flips, and by how much.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.crossover import Crossover, find_crossovers, pfail_difference
from repro.analysis.sweep import SweepResult, sweep_parameter
from repro.errors import EvaluationError
from repro.model.assembly import Assembly

__all__ = ["AssemblyComparison", "compare_assemblies"]


@dataclass(frozen=True)
class AssemblyComparison:
    """The outcome of comparing two assemblies over a parameter sweep.

    Attributes:
        sweep_a, sweep_b: the two reliability series (same grid).
        crossovers: parameter values where the ranking flips.
    """

    sweep_a: SweepResult
    sweep_b: SweepResult
    crossovers: tuple[Crossover, ...]

    @property
    def grid(self) -> np.ndarray:
        """The common parameter grid."""
        return self.sweep_a.values

    def winner_at(self, value: float) -> str:
        """Name of the more reliable assembly at a grid point (ties go to
        the first assembly)."""
        pfail_a = self.sweep_a.at(value)
        pfail_b = self.sweep_b.at(value)
        return self.sweep_a.assembly if pfail_a <= pfail_b else self.sweep_b.assembly

    def dominant(self) -> str | None:
        """The assembly that wins on the *entire* grid, or ``None`` when the
        ranking flips somewhere."""
        diff = self.sweep_a.pfail - self.sweep_b.pfail
        if np.all(diff <= 0.0):
            return self.sweep_a.assembly
        if np.all(diff >= 0.0):
            return self.sweep_b.assembly
        return None

    def max_advantage(self) -> tuple[str, float, float]:
        """``(assembly, parameter value, reliability gain)`` of the largest
        pointwise reliability advantage either way."""
        diff = self.sweep_b.pfail - self.sweep_a.pfail  # >0 where A wins
        index = int(np.argmax(np.abs(diff)))
        winner = self.sweep_a.assembly if diff[index] > 0 else self.sweep_b.assembly
        return winner, float(self.grid[index]), float(abs(diff[index]))

    def rows(self) -> list[tuple[float, float, float, str]]:
        """``(value, reliability_a, reliability_b, winner)`` table rows."""
        out = []
        for v, pa, pb in zip(self.grid, self.sweep_a.pfail, self.sweep_b.pfail):
            winner = self.sweep_a.assembly if pa <= pb else self.sweep_b.assembly
            out.append((float(v), float(1 - pa), float(1 - pb), winner))
        return out


def compare_assemblies(
    assembly_a: Assembly,
    assembly_b: Assembly,
    service: str,
    parameter: str,
    values: Sequence[float] | np.ndarray,
    fixed: Mapping[str, float] | None = None,
    method: str = "symbolic",
    refine_crossovers: bool = True,
) -> AssemblyComparison:
    """Sweep ``service`` in both assemblies and locate ranking flips.

    Both assemblies must offer a service named ``service`` with the swept
    formal parameter; crossover refinement bisects the *numeric* evaluators
    (domain checks off) between bracketing grid points.
    """
    if assembly_a.name == assembly_b.name:
        raise EvaluationError(
            "assemblies under comparison need distinct names "
            f"(both are {assembly_a.name!r})"
        )
    sweep_a = sweep_parameter(assembly_a, service, parameter, values, fixed, method)
    sweep_b = sweep_parameter(assembly_b, service, parameter, values, fixed, method)

    refine = None
    if refine_crossovers:
        refine = pfail_difference(
            assembly_a, assembly_b, service, parameter, fixed
        )

    crossovers = find_crossovers(
        sweep_a.values, sweep_a.pfail, sweep_b.pfail, refine=refine
    )
    return AssemblyComparison(sweep_a, sweep_b, tuple(crossovers))
