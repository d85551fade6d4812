"""Numerical laboratory for weighted singularly perturbed 1-d energies.

Two models of branched-pattern formation on the unit interval — a sharp
sawtooth model with slope constraint and a diffuse double-well relaxation
— plus the asymptotic machinery (energy scaling, cumulative distribution,
local cell problem and period law) to test the predictions numerically.

Public names load on first use (PEP 562): `import mspl` imports no
submodule, and `mspl.optimize_sharp` imports `mspl.sharp` (and numpy)
the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# home submodule of every public name; `errors` is the submodule itself
_HOMES = {
    name: module
    for module, names in {
        "asymptotics": (
            "PeriodEstimate",
            "extract_period",
            "predicted_period",
        ),
        "cell": (
            "A0_constant",
            "CellDensityParams",
            "CellMinimum",
            "cell_density",
            "minimize_cell",
            "optimal_period",
            "period_law_constant",
            "sharp_period",
        ),
        "config": ("ExperimentConfig", "GradedMesh", "preset"),
        "core": ("EnergyBreakdown",),
        "diffuse": (
            "DiffuseField",
            "DiffuseMinimum",
            "build_smoothed",
            "diffuse_surrogate",
            "evaluate_diffuse",
            "gradient_diffuse",
            "minimize_diffuse",
            "minimize_with_restarts",
            "smoothed_graded_init",
            "transition_profile",
        ),
        "errors": (
            "errors",
            "DivergentIntegral",
            "InsufficientData",
            "InvalidConfig",
            "InvalidField",
            "InvalidMu",
            "InvalidPeriod",
            "InvalidProfile",
            "InvalidSample",
            "LabError",
            "MuTooLarge",
            "NonPositiveValue",
            "TooFewOscillations",
            "TooManyJumps",
            "UnclampedProfile",
            "UnknownPreset",
        ),
        "reports": (
            "ScalingFit",
            "emit_distribution",
            "emit_period",
            "emit_sweep",
            "fit_scaling",
            "run_distribution_report",
            "run_period_report",
            "sweep_scaling",
        ),
        "sharp": (
            "CumulativeEnergyProfile",
            "SawtoothProfile",
            "SharpMinimum",
            "SharpOptions",
            "amplitude_envelope_ratio",
            "cumulative_energy",
            "distribution_threshold",
            "evaluate_sharp",
            "optimize_sharp",
            "optimize_sharp_sweep",
            "rescaled_min_energy",
        ),
        "weights": ("WeightParams",),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
