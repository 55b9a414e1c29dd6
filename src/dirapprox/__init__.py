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

The submodules and the names below load on first access (PEP 562), so
importing the package, or `dirapprox.cli`, loads no numpy.  A name is
looked up in its submodule on every access, never cached here, so a
patched submodule attribute is what the package hands out.
"""

import importlib
import sys

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


def __getattr__(name: str):
    if name in _HOME:  # sys.modules first: import_module costs several times more per access
        return getattr(sys.modules.get(_HOME[name]) or importlib.import_module(_HOME[name]), name)
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
