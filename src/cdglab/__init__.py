"""Desk-scale condition-degradation guidance toolkit.

Token importance from attention graphs, stratified prompt degradation,
guided probability-flow ODE sampling over an analytically exact toy
conditional diffusion model, and geometric diagnostics of guidance signals.
"""

from .degradation import (
    DegradationRatios,
    apply_mask,
    build_mask,
    map_ratio,
)
from .diffusion import (
    Chain,
    GmmConditionalModel,
    SamplerRun,
    SigmaSchedule,
    denoise,
    log_density,
    sample,
    sample_batch,
    score,
)
from .encoder import (
    EncoderParams,
    PromptState,
    TokenSequence,
    TokenType,
    ToyTextEncoder,
    tokenize,
)
from .errors import CdgError, NumericalError
from .geometry import (
    GeometryReport,
    decoupling,
    interference,
    run_geometry_sweep,
)
from .guidance import GuidanceConfig, GuidanceMode, combine
from .importance import (
    FusionConfig,
    cross_attention_baseline,
    ranking,
    stationary_scores,
)
from .linalg import (
    SvdResult,
    principal_angle_sines_squared,
    project_onto,
    thin_svd,
)

__version__ = "0.1.0"
