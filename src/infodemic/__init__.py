"""Misinformation/correction diffusion simulator and sales-impact toolkit."""

from .cascade import (
    Cascade,
    SeedTweet,
    TweetCategory,
    sample_keep_set,
    simulate_cascades,
)
from .counterfactual import (
    SweepGrid,
    TrialResult,
    compare,
    guideline_experiment,
    reduce_corrective,
    sweep,
)
from .exposure import (
    ExposureMatrix,
    exposure_matrix,
    total_exposures,
)
from .graph import GraphGenConfig, SocialGraph, generate_graph, load_edges
from .numerics import OlsResult, PcaResult, ols, pca, project, t_cdf
from .replica import Replica, ReplicaConfig, build_replica, reference_model
from .salesmodel import (
    FittedSalesModel,
    SalesSeries,
    fit,
    group_impacts,
    impacts_from,
    predict,
    sales_index,
    sum_index,
)

__version__ = "0.1.0"
