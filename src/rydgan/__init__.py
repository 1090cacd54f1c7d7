"""Quantum GAN toolkit for analog Rydberg-atom generators.

Simulates globally driven Rydberg-atom arrays with local detuning,
trains pulse-parameterized quantum generators adversarially against a
classical discriminator, and assembles greedy ensembles scored by
Frechet distance on reconstructed images.
"""

from .errors import DataError, NumericError, RydganError, ValidationError
from .sim import (AtomArrangement, C6_DEFAULT, HamiltonianSpec,
                  build_hamiltonian, evolve, interaction_strength)
from .pulses import (DEFAULT_LIMITS, PulseLimits, PulseProgram, SHAPES,
                     discretize, evaluate, validate)
from .generator import (ErrorModel, EXACT, ExactMode, GeneratorParams,
                        NoisyMode, ShotsMode, build_spec, draw_seeds,
                        generate_batch, generate_features, modulo_encode,
                        perturb_params)
from .data import (ImageSet, PcaModel, fit_pca, inverse_transform, load_idx,
                   load_pca, save_pca, scale_features, split_train_val,
                   transform, unscale_features, write_image, write_montage)
from .discriminator import (AdamState, DiscriminatorNet, adam_update,
                            bce_gradients, bce_loss, discriminator_forward,
                            discriminator_step, init_discriminator)
from .neldermead import NMResult, nelder_mead, nelder_mead_steps
from .training import (Learner, TrainConfig, TrainingResult, layered_train,
                       load_learner, save_learner, train_learners)
from .metrics import (GaussianSummary, SelectionResult, fid, fid_images,
                      greedy_select, summarize, variation_cdf,
                      variation_scores)

__version__ = "0.1.0"
