"""Dirichlet-polynomial approximation toolkit.

Submodules
----------
series    Dirichlet polynomials, seminorms, sup norms, abscissa estimates
bohr      prime-power multi-indices and the polynomial/polydisc dictionary
geometry  compact subsets of the plane: sampling, translation, contours
fit       discrete minimax fitting with and without coefficient constraints
laurent   Laurent decomposition on holed domains, rational Dirichlet fits
universal one partial-sum ladder approximating a whole family of targets
chordal   Riemann-sphere chordal metric and zeta convergence checks

The submodules and the names below load on first access, so importing
the package, or `dirapprox.cli`, loads no numpy.  A name is looked up in
its submodule on every access, never cached here, so a patched submodule
attribute is what the package hands out.

Each exported name is a non-data descriptor on the package module's own
class (`_Package`), not a PEP 562 `__getattr__` miss: on Python 3.11 a
miss builds and discards an AttributeError before `__getattr__` runs,
about 1 us per `dx.<name>`, against about 0.2 us for the descriptor.
Being non-data, the descriptor yields to the module's dict, so `setattr`
on the package shadows a name and `delattr` unshadows it.  `__getattr__`
is left with the submodules themselves and `__version__`.
"""

import importlib
import sys
import types

from . import errors

_EXPORTS = {
    "series": ("AbscissaReport", "CoefficientRule", "DirichletPolynomial",
               "estimate_abscissas", "evaluate", "evaluate_many", "seminorm_sigma",
               "shift_by_delta"),
    "bohr": ("LiftedPolynomial", "bohr_gap_report", "lift", "unlift"),
    "geometry": ("SampleDensity", "annulus", "disc", "discretize", "jordan_polygon", "rectangle",
                 "translate", "union_of_disjoint"),
    "fit": ("FitResult", "TargetFunction", "constrained_fit", "convergence_study", "minimax_fit"),
    "laurent": ("LaurentPieces", "RationalDirichletFunction", "laurent_decompose",
                "rational_dirichlet_fit"),
    "universal": ("FamilyEntry", "TargetFamily", "UniversalOptions", "UniversalSchedule",
                  "build_universal", "compact_rectangle", "verify_schedule"),
    "chordal": ("ConvergenceReport", "chi", "chi_many", "chi_uniform_error",
                "chordal_convergence_check", "zeta_chordal_convergence_check"),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME, "__version__"]


class _Export:
    """getattr(submodule, name) on every access; importing the submodule on first use."""

    __slots__ = ("name", "home")

    def __init__(self, name: str, home: str):
        self.name, self.home = name, home

    def __get__(self, package, owner=None):
        if package is None:
            return self
        # sys.modules first: import_module costs several times more per access
        return getattr(sys.modules.get(self.home) or importlib.import_module(self.home), self.name)


class _Package(types.ModuleType):
    """The package module's class: one _Export per name of _HOME."""


for _name, _home in _HOME.items():
    setattr(_Package, _name, _Export(_name, _home))
sys.modules[__name__].__class__ = _Package
del _name, _home, _Export, _Package, types  # so dir() lists the names it listed before


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name == "__version__":
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("dirapprox")
        except PackageNotFoundError:  # running from a source tree
            return "0.0.0.dev0"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
