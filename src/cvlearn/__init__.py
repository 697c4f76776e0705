"""Learning toolkit for complex-valued data.

Builds four small architectures (rvnn, cvnn, steinmetz, analytic) on a
from-scratch float64 autodiff tape, trains them with Adam, and supports
a spectral Hilbert consistency penalty plus the diagnostics and
reproducible experiment recipes that go with it.
"""

from . import autodiff, diagnostics, transforms
from .autodiff import Tape, Tensor
from .data import (ChannelSpec, Dataset, add_complex_noise, dft_encode,
                   gen_channel_dataset, load_cvds, save_cvds)
from .errors import ContractError, DataError, ShapeError, ValidationError
from .losses import (AdamState, TrainConfig, adam_init, adam_step,
                     cross_entropy, hilbert_penalty, mse, total_loss)
from .models import (LatentPair, Model, NetworkSpec, forward, init_params,
                     load_checkpoint, param_count, save_checkpoint)
from .recipes import run_channel_id, run_cvmnist500, run_noise_sweep, run_recipe
from .rng import Rng
from .train import evaluate, run_training, train_model, train_models
from .transforms import (ComplexVector, HilbertMultiplier, analytic_signal,
                         dft, dht_cotangent, hilbert_freq, idft)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "Rng",
    "ComplexVector", "HilbertMultiplier", "dft", "idft", "hilbert_freq",
    "dht_cotangent", "analytic_signal",
    "NetworkSpec", "Model", "LatentPair", "init_params", "param_count",
    "forward", "save_checkpoint", "load_checkpoint",
    "TrainConfig", "AdamState", "adam_init", "adam_step",
    "cross_entropy", "mse", "hilbert_penalty", "total_loss",
    "Dataset", "ChannelSpec", "load_cvds", "save_cvds", "dft_encode",
    "add_complex_noise", "gen_channel_dataset",
    "train_model", "train_models", "evaluate", "run_training",
    "run_channel_id", "run_cvmnist500", "run_noise_sweep", "run_recipe",
    "ContractError", "ShapeError", "DataError", "ValidationError",
    "autodiff", "transforms", "diagnostics",
]
