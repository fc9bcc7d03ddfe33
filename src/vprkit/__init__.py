"""vprkit: desk-scale visual place recognition experiments.

Pipeline: place database -> balanced P x K batches -> aggregation head
(projected adaptive pooling, AVG or GeM) -> cosine similarity -> online
pair mining -> metric loss -> SGD; evaluated with exhaustive recall@k
retrieval and optional PCA/whitening compression.
"""

from .aggregators import (
    ConvAPParams,
    GemParams,
    adaptive_avg_pool,
    avg_pool,
    conv1x1_forward,
    conv_ap_backward,
    conv_ap_forward,
    gem_pool,
    gem_pool_backward,
    init_conv_ap,
)
from .embeddings import EmbeddingBatch, l2_normalize, normalize_rows, similarity_matrix
from .errors import (
    DivergenceError,
    FormatError,
    ManifestError,
    NonFiniteNormError,
    SamplerError,
    VprkitError,
    ZeroNormError,
)
from .evaluator import (
    GroundTruthMatcher,
    PCAModel,
    RecallReport,
    pca_whiten_fit,
    recall_at_k,
    retrieve_topk,
)
from .losses import (
    LossConfig,
    LossOutput,
    PairLabels,
    WeakTuple,
    contrastive_loss,
    multi_similarity_loss,
    triplet_loss,
    weak_triplet_loss,
)
from .mining import MinedSet, enumerate_pairs, hardest_mining, ms_mining
from .places import (
    Batch,
    BatchSampler,
    BatchSpec,
    ImageRecord,
    Place,
    PlacesDB,
    SynthConfig,
    haversine,
    ingest_manifest,
    synth_places,
)
from .tensorio import DescriptorSet, load_descriptors, load_tensor, save_descriptors, save_tensor
from .trainer import OptimizerState, TrainConfig, TrainLog, lr_at_epoch, sgd_step, train

__version__ = "0.1.0"
