"""EV acceleration-performance classification toolkit.

A from-scratch softmax-boosted tree classifier over battery-architecture
features, exact additive Shapley explanations for every prediction, a
multiclass metrics suite with stratified cross-validation, and a
first-principles battery/vehicle model that both sanity-checks the learned
relationships and generates labeled synthetic data.
"""

from .data import (
    ACCEL_S,
    CAPACITY_KWH,
    CELL_COUNT,
    CLASS_NAMES,
    DEFAULT_FEATURES,
    NUM_CLASSES,
    RANGE_KM,
    TORQUE_NM,
    WEIGHT_KG,
    DataError,
    Dataset,
    PerfClass,
    ScalerParams,
    VehicleRecord,
    VehicleTable,
    apply_scaler,
    bin_acceleration,
    bin_accelerations,
    build_dataset,
    drop_missing,
    fit_scaler,
    load_csv,
    read_alias_table,
    stratified_kfold,
)
from .gbdt import (
    Ensemble,
    ModelInputError,
    TrainConfig,
    TreeNode,
    gain_importance,
    leaf_weight,
    load_model,
    mlogloss_grad_hess,
    predict_margin,
    predict_margin_batch,
    predict_proba,
    predict_proba_batch,
    save_model,
    softmax,
    staged_margins,
    train,
)
from .metrics import (
    MetricsReport,
    accuracy,
    confusion,
    cross_validate,
    mcc,
    mlogloss,
    roc_auc_ovr_macro,
    round_curve,
)
from .physics import (
    PackConfig,
    PhysicsError,
    SynthConfig,
    VehicleParams,
    accel_time_0_100,
    default_pack,
    default_vehicle,
    diminishing_returns_sweep,
    pack_max_power,
    pack_resistance,
    pack_voltage,
    resistive_forces,
    synth_dataset,
    synth_records,
    terminal_voltage,
    total_mass,
    tractive_force,
)
from .treeshap import (
    Explanation,
    dependence_data,
    explain_matrix,
    force_plot_data,
    global_importance,
    interaction_values,
    shap_values,
)

__version__ = "0.1.0"
