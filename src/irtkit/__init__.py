"""Latent-trait models for predicting binary student exam responses.

Point-estimate ability/difficulty, interaction, and class interaction
models trained by SGD; variational counterparts trained by reparameterized
Monte Carlo ELBO ascent; synthetic data generation, evaluation metrics,
significance testing, embedding interpretability, and pool-based active
learning, all behind one CLI.
"""

from .data import (
    Dataset,
    ParseError,
    build_dataset,
    load_binary_csv,
    load_raw_csv,
    split_train_test,
    subsample_students,
    write_binary_csv,
)
from .models import (
    CLASS_INTERACTION,
    CLASS_INTERACTION_VI,
    INTERACTION,
    INTERACTION_VI,
    RASCH,
    RASCH_VI,
    Params,
    logits,
    predict_proba_array,
    sigmoid,
)
from .optim import TrainConfig, TrainReport, TrainingDiverged, nll, sgd_train
from .vi import VIConfig, elbo_mc, predict_proba_vi_array, train_vi
from .metrics import accuracy, cosine_similarity_matrix, two_proportion_z_test
from .synth import SynthConfig, generate_synthetic
from .active import (
    ActiveResult,
    PoolState,
    make_pool_state,
    run_active_loop,
    select_next,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
