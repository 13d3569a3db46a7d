"""Transient stability assessment toolkit.

Builds labelled knowledge bases from classical swing-equation simulation,
extracts disturbance-stage feature subsets, and classifies stability with
a variational multiple-kernel probit model.
"""

from .network import (
    Bus,
    Branch,
    Equilibrium,
    Generator,
    Load,
    NetworkCase,
    electrical_power,
    fold_loads,
    kron_reduce,
    load_bundled_case,
    load_case,
    power_tables,
    reduce_to_generators,
    solve_equilibrium,
    solve_equilibrium_batch,
)
from .simulator import (
    Scenario,
    StabilityLabel,
    Trajectory,
    label,
    max_angle_divergence,
    simulate,
    simulate_batch,
)
from .features import (
    FEATURE_NAMES,
    Standardizer,
    extract_f1,
    extract_f2,
    extract_f3,
    extract_features,
)
from .kernels import KernelSpec, base_gram, compose, cross_gram, median_width
from .mkprobit import (
    Prediction,
    ProbitMKLState,
    TrainedModel,
    init_state,
    load_model,
    lower_bound,
    predictive_distribution,
    resample_beta,
    save_model,
    train,
    update_auxiliaries,
    update_regressors_and_scales,
)
from .kb import (
    KnowledgeBase,
    ScenarioPlan,
    Split,
    generate_kb,
    inject_noise,
    load_kb,
    save_kb,
    split,
)
from .experiments import (
    SchemeSpec,
    SchemeResult,
    SweepReport,
    evaluate_model,
    metrics,
    parse_scheme,
    run_scheme,
    sweep,
    train_model,
)

__version__ = "0.1.0"
