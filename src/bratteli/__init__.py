"""Exact tail-invariant measures on generalized Bratteli diagrams.

The library works with diagrams built from countably many odometers chained
by single edges, plus finite stationary standard diagrams.  It computes tower
heights and telescopings in exact integer arithmetic, represents tail
invariant measures as level vector sequences, extends odometer measures to
their saturations with certified finite/infinite verdicts, builds and
verifies closed-form eigenpairs and their induced measures, classifies
distinguished classes of finite stationary diagrams, and analyzes adic
successor dynamics under per-vertex edge orders.

The package namespace is lazy: ``import bratteli`` loads none of the layer
modules, and each public name below imports its defining module on first
access (PEP 562), so a caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names the package takes from it
_EXPORTS = {
    "diagram": (
        "DiagramError", "DiagramSpec", "ExplicitFinite", "ExplicitLevels", "GeneralChain",
        "HeightsVector", "LevelMatrix", "NonStationaryUniform", "OdometerChain", "StationaryAK",
        "StationaryDecreasing", "StationaryIncreasing", "Truncation", "VertexId", "WindowError",
        "WorkBudgetError", "count_paths_bruteforce", "diagram_from_json", "heights", "incidence",
        "telescope",
    ),
    "extension": (
        "FINITE", "INFINITE", "UNDETERMINED", "ConvergenceResult", "ErgodicClassification",
        "ExtendedMeasure", "OracleVerdict", "classify_ergodic_measures", "closed_form_oracles",
        "odometer_extension_mass", "extend_odometer", "extended_cylinder_measure", "mass_series_terms",
    ),
    "finite_stationary": (
        "ClassDecomposition", "DistinguishedData", "FiniteStationaryMeasure", "decompose",
        "distinguished_classes", "measures_finite_stationary", "spectral_radius",
    ),
    "measure": (
        "CylinderSpec", "EndVertex", "ExplicitPath", "InvarianceReport", "MeasureVectors",
        "OdometerMeasure", "check_tail_invariance",
    ),
    "orders": (
        "ALEPH0", "AllMaximalPrefix", "ExtensionVerdict", "QuasiStationary", "VertexOrder",
        "canonical_order", "classify_odometer", "extension_verdict", "minimal_path_into",
        "orbit_frequencies", "order_at", "order_from_json", "successor", "vertical_path",
    ),
    "sequences": (
        "Arithmetic", "Constant", "Geometric", "IntSequence", "Polynomial", "Table",
        "seq_from_json", "seq_from_text",
    ),
    "spectral": (
        "ComparisonReport", "EigenMeasure", "EigenPair", "ResidualReport",
        "compare_eigen_vs_extension", "eigen_measure", "eigenvector", "eigenvector_ak",
        "eigenvector_decreasing", "verify_eigenpair",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _EXPORTS or name == "cli":
        # a layer module; importing it binds it as a package attribute
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
