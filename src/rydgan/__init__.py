"""Quantum GAN toolkit for analog Rydberg-atom generators.

Simulates globally driven Rydberg-atom arrays with local detuning,
trains pulse-parameterized quantum generators adversarially against a
classical discriminator, and assembles greedy ensembles scored by
Frechet distance on reconstructed images.
"""

from .errors import DataError, NumericError, RydganError, ValidationError
from .sim import AtomArrangement
from .pulses import DEFAULT_LIMITS
from .generator import (EXACT, ErrorModel, GeneratorParams, NoisyMode,
                        ShotsMode, TrainConfig, draw_seeds, generate_batch,
                        generate_features)
from .data import load_idx
from .discriminator import init_discriminator
from .neldermead import nelder_mead
from .training import Learner, TrainingResult, load_learner, save_learner

__version__ = "0.1.0"
