"""Catalog of the benchmark problems driven from the command line.

All problems live on s in (0, 2).  Guidance for picking the rescaling
exponent gamma = 1/r: a smooth solution wants r = 1; a smooth source with
rational order delta = p/q wants r = q (then the rescaled solution is
polynomial-like); an irrational delta wants a moderately large q chosen so
the rescaled solution is smooth enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .frac_ops import PowerSum, TransformSpec
from .ode_solver import TimeProblem
from .pde_solver import manufactured_sine_power

__all__ = ["ProblemCatalogEntry", "CATALOG", "get_entry", "build_problem"]

DEFAULT_T = 2.0
DEFAULT_LAMBDA = 1.0


@dataclass(frozen=True)
class ProblemCatalogEntry:
    """Defaults and metadata for one benchmark problem."""

    problem_id: str
    description: str
    kind: str  # "ode-power" | "ode-source" | "pde-power"
    delta: float
    r: int
    lam: float = DEFAULT_LAMBDA
    horizon_T: float = DEFAULT_T
    sigma: float | None = None
    default_n: int = 12
    default_m: int | None = None
    default_ref_n: int = 60

    @property
    def has_exact(self) -> bool:
        return self.kind != "ode-source"


CATALOG: dict[str, ProblemCatalogEntry] = {
    "example1": ProblemCatalogEntry(
        "example1",
        "smooth solution u = s^2; gamma = 1 is optimal",
        "ode-power",
        delta=0.5,
        r=1,
        sigma=2.0,
        default_n=4,
    ),
    "example2a": ProblemCatalogEntry(
        "example2a",
        "rational power solution u = s^(3/5); gamma = 1/5 (1/8 also works)",
        "ode-power",
        delta=0.2,
        r=5,
        sigma=0.6,
        default_n=12,
    ),
    "example2b": ProblemCatalogEntry(
        "example2b",
        "irrational power solution u = s^(sqrt(2)/2); gamma = 1/7",
        "ode-power",
        delta=0.2,
        r=7,
        sigma=math.sqrt(2.0) / 2.0,
        default_n=24,
    ),
    "example3": ProblemCatalogEntry(
        "example3",
        "source g = sin(s), exact solution unknown; gamma = 1/6 vs 1",
        "ode-source",
        delta=0.5,
        r=6,
        default_n=20,
    ),
    "example4": ProblemCatalogEntry(
        "example4",
        "2-d subdiffusion, u = sin(pi x) sin(pi y) s^(3/5); gamma = 1/5",
        "pde-power",
        delta=0.5,
        r=5,
        sigma=0.6,
        default_n=20,
        default_m=20,
    ),
    "example5": ProblemCatalogEntry(
        "example5",
        "2-d subdiffusion, u = sin(pi x) sin(pi y) s^(sqrt(2)/2); gamma = 1/7",
        "pde-power",
        delta=0.2,
        r=7,
        sigma=math.sqrt(2.0) / 2.0,
        default_n=16,
        default_m=20,
    ),
}


def get_entry(problem_id: str) -> ProblemCatalogEntry:
    try:
        return CATALOG[problem_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise DomainError(f"unknown problem {problem_id!r}; known: {known}") from None


def build_problem(entry: ProblemCatalogEntry):
    """Instantiate the entry's problem plus its exact solution (None if unknown)."""
    transform = TransformSpec(entry.r, entry.horizon_T)
    if entry.kind == "pde-power":
        return manufactured_sine_power(entry.delta, transform, entry.sigma, dimension=2)
    if entry.kind == "ode-source":
        return TimeProblem.from_source(np.sin, entry.delta, entry.lam, transform), None
    u = PowerSum(((1.0, entry.sigma),))
    return TimeProblem.manufactured(u, entry.delta, entry.lam, transform), u
