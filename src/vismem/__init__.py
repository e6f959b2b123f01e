"""Scene-aware visual memory retrieval with IVF-PQ search, dense/sparse
detection priors, and memory-guided prompt refinement."""

from .bank import (
    BankBuildConfig,
    EmbeddingProvider,
    GroundingRecord,
    HashingProvider,
    KeyWeights,
    MemoryBank,
    MemoryEntry,
    build_bank,
    build_key,
    build_value,
    load_bank,
    save_bank,
)
from .errors import (
    FormatError,
    InvalidInputError,
    MissingEmbeddingError,
    VismemError,
)
from .grids import (
    Box2D,
    Point2D,
    bilinear_sample,
    gaussian_smooth,
    inner,
    l2_normalize,
    layer_norm,
    mean_pool_region,
    minmax_rescale,
    weighted_combine,
)
from .index import (
    FlatIndex,
    IvfPqIndex,
    IvfPqParams,
    SearchHit,
    ivfpq_add,
    ivfpq_search,
    kmeans,
    load_index,
    rescore,
    save_index,
    train_ivfpq,
)
from .pipeline import PipelineConfig, pipeline_report, run_pipeline
from .priors import (
    AnchorSet,
    DensePrior,
    anchors_from_gt,
    dense_prior,
    dense_priors,
    extract_anchors,
)
from .refine import (
    UNCONSTRAINED,
    LogitsMatrix,
    MemoryGuidedPrompt,
    RefinementParams,
    constrain_logits,
    dense_feature,
    load_params,
    refine_all,
    refine_prompt,
    resample_heatmap,
    save_params,
    score_prompts,
    sparse_feature,
)
from .retrieval import Prototype, RetrievalQuery, aggregate_prototype, build_query, retrieve
from .synthetic import PlantedRegion, ScenarioSpec, SyntheticScenario, gen_synthetic

__version__ = "0.1.0"
