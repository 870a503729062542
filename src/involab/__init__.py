"""Surfaces with free (Z/2)^n symmetry.

Cubical models of real moment-angle complexes over polygon boundaries,
the coordinate sign-flip action and its freely acting subgroups, regular
(Z/2)^n covers of closed surfaces, and the exact and asymptotic
behaviour of the maximal free rank as a function of the genus.
"""

from .scomplex import SimplicialComplex, from_facets, polygon_boundary
from .rzk import (
    Cell,
    CubicalSurface,
    build,
    euler_characteristic,
    genus,
    orientability,
    polygon_genus,
    verify_closed_surface,
)
from .action import (
    Subgroup,
    is_free_subgroup,
    lemma_generators,
    max_free_rank,
    orientation_sign,
)
from .cover import (
    CoverComplex,
    SurfacePresentation,
    build_cover,
    presentation,
)

# the fgenus names are resolved on first use (PEP 562), so that rzk, free-rank
# and cover never load them; mpmath loads later still, with lambert_w or H's
# route for mpf genera and from 10^26 on
_FGENUS = {"FValue", "GenusDecomposition", "H", "decompose", "equality_genera", "f_bounds",
           "f_exact", "figure1_data", "lambert_w", "min_genus"}


def __getattr__(name: str):
    if name in _FGENUS:
        from . import fgenus

        return getattr(fgenus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SimplicialComplex",
    "from_facets",
    "polygon_boundary",
    "Cell",
    "CubicalSurface",
    "build",
    "euler_characteristic",
    "genus",
    "orientability",
    "polygon_genus",
    "verify_closed_surface",
    "Subgroup",
    "is_free_subgroup",
    "lemma_generators",
    "max_free_rank",
    "orientation_sign",
    "CoverComplex",
    "SurfacePresentation",
    "build_cover",
    "presentation",
    "FValue",
    "GenusDecomposition",
    "H",
    "decompose",
    "equality_genera",
    "f_bounds",
    "f_exact",
    "figure1_data",
    "lambert_w",
    "min_genus",
]

__version__ = "0.1.0"
