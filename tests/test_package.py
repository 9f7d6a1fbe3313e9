import types

import lipkl
from lipkl import asymptotics, core, divergences, markov_uq, measures, oracle, sensitivity

MODULES = (measures, divergences, core, oracle, sensitivity, asymptotics, markov_uq)

# The names the package exported when it kept its own copy of the list.
EARLIER_NAMES = {
    "Ar1Peak", "BenchmarkReport", "ClassBound", "CostMatrix", "CostValidationError",
    "CostViolation", "CumulantDualityReport", "DerivativeReport", "DiscreteMeasure",
    "DivergenceSolution", "ErgodicBoundReport", "ExpansionReport", "FiniteKernel",
    "GaussianAR1", "LipschitzFunction", "OptimalityReport", "OracleValue",
    "PerformanceBound", "PointSet", "QuadraticFunction", "RiskInverse", "ScaleSweep",
    "SignedMeasure", "TransportSolution", "ValidationError", "ar1_max_quadratic_rate",
    "ar1_quadratic_rate", "ar1_quadratic_representable", "ar1_risk_quadratic",
    "cost_violations", "cumulant_duality_check", "directional_derivative", "divergence",
    "dual_objective", "entropy_limit_sweep", "ergodic_bound", "grid_divergence",
    "invert_risk_map", "large_scale_expansion", "line_transport_cost", "load_cost",
    "load_kernel", "load_measure", "max_feasible_epsilon", "merge_supports", "metric_cost",
    "nearest_atom_aggregation", "performance_bound", "point_vs_uniform_benchmark",
    "project_lipschitz", "recurrent_classes", "relative_entropy", "risk_map",
    "stationary_distribution", "sweep_rows", "transport_cost", "transport_limit_sweep",
    "verify_optimizers",
}


def test_package_exports_the_union_of_its_modules_names():
    # Each public name is declared once, in its module's __all__.
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert lipkl.__all__ == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lipkl, name) is getattr(module, name), (module.__name__, name)
    public = {name for name, value in vars(lipkl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(lipkl.__all__)
    assert len(EARLIER_NAMES) == 58
    assert set(lipkl.__all__) == EARLIER_NAMES | {"lipschitz_violation", "measure_to_dict"}
