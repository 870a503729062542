"""Surfaces with free (Z/2)^n symmetry.

Cubical models of real moment-angle complexes over polygon boundaries,
the coordinate sign-flip action and its freely acting subgroups, regular
(Z/2)^n covers of closed surfaces, and the exact and asymptotic
behaviour of the maximal free rank as a function of the genus.
"""

import importlib

# each public name and the module that defines it, in the order of __all__; the
# package imports a module when one of its names is first read (PEP 562), so a
# subcommand loads only what it runs, and mpmath loads later still, with
# lambert_w or H's route for mpf genera and from 10^26 on
_HOME = {
    "SimplicialComplex": "scomplex", "from_facets": "scomplex", "polygon_boundary": "scomplex",
    "Cell": "rzk", "CubicalSurface": "rzk", "build": "rzk", "euler_characteristic": "rzk",
    "genus": "rzk", "orientability": "rzk", "polygon_genus": "rzk",
    "verify_closed_surface": "rzk",
    "Subgroup": "action", "is_free_subgroup": "action", "lemma_generators": "action",
    "max_free_rank": "action", "orientation_sign": "action",
    "CoverComplex": "cover", "SurfacePresentation": "cover", "build_cover": "cover",
    "presentation": "cover",
    "FValue": "fgenus", "GenusDecomposition": "fgenus", "H": "fgenus", "decompose": "fgenus",
    "equality_genera": "fgenus", "f_exact": "fgenus",
    "figure1_data": "fgenus", "lambert_w": "fgenus", "min_genus": "fgenus",
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
