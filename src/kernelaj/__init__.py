"""Competing-risks survival analysis: classical population estimators plus a
kernel-weighted, cluster-compressed conditional estimator with learned
embeddings, fine-tuning, interpretation outputs, and evaluation metrics."""

from .clustering import (
    ClusterModel,
    build_cluster_model,
    epsilon_net_cluster,
    neighbors_within_tau,
    summarize_clusters,
    tau_from_min_kernel_weight,
)
from .core import (
    CifSet,
    Cohort,
    EventTimeGrid,
    StepCurve,
    aalen_johansen,
    breslow_preprocess,
    build_event_grid,
    curves_from_counts,
    kaplan_meier,
    population_aalen_johansen,
    risk_event_counts,
)
from .dataio import (
    FeatureSchema,
    RawTable,
    SynthConfig,
    fit_apply_preprocessor,
    generate_synthetic,
    load_cohort,
    split,
    write_cohort_csv,
)
from .embedding import (
    EmbeddingConfig,
    MlpParams,
    embed,
    embed_batch,
    init_mlp,
    kernel_matrix,
)
from .errors import (
    ConfigError,
    DegenerateGrid,
    DegenerateRisk,
    Diverged,
    EmptyCohort,
    KernelAJError,
    MissingColumn,
    NoComparablePairs,
    NoEvents,
    NonFiniteFeatures,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
    TooSmall,
)
from .finetune import (
    SftParams,
    SftResult,
    fine_tune_summaries,
    init_sft_params,
    sft_counts,
    sft_loss_and_grad,
)
from .metrics import (
    BrierResult,
    EvalGrid,
    brier_score,
    build_eval_grid,
    censoring_survival,
    concordance_td,
    concordance_td_from_curves,
    evaluate_cif_predictions,
    integrated_brier,
    interpolate_curves,
    score_curves,
    scorer,
)
from .model import (
    Explanation,
    KernelAJModel,
    cluster_curves,
    cluster_weight_decomposition,
    explain_rows,
    explain_subject,
    predict_cif_grid,
    predict_curves,
    weighted_summaries,
)
from .serialize import load_model, save_model
from .training import (
    TrainConfig,
    TrainingLog,
    discretize_times,
    total_loss_and_grad,
    train_embedding,
)

__version__ = "0.1.0"
