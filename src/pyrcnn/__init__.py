"""Greedy layer-shared Siamese CNN training with verification evaluation."""

from .tensor import Tensor, TensorError
from .layers import (BlockCheck, ConvLayer, FCLayer, GradCheckReport, Network,
                     PoolSpec, ShapeError, Stage, activation, conv_forward,
                     fc_forward, forward_multiply_adds, gradient_check,
                     maxpool, network_backward, network_forward)
from .loss import ComparatorParams, PairGradients, PairLabel, pair_loss_grads
from .data import (DataError, DatasetIndex, FacePair, IndexRecord,
                   LabeledImage, NuisanceConfig, PairBatch, PairSampler,
                   center_crop, load_image, load_index, sample_pairs,
                   split_by_identity, split_identity_ids, synth_generate,
                   write_index, write_pgm)
from .pyramid import (LevelTrace, PyramidError, PyramidModel, PyramidSpec,
                      StageSpec, TrainConfig, assemble_network,
                      build_monolithic, build_pyramid, greedy_train,
                      load_model, preprocess_dataset, save_model,
                      train_level, train_network)
from .metrics import (MetricError, RocCurve, RocPoint, VerificationReport,
                      auc, evaluate_distances)
from .features import (FeatureVector, extract_representations,
                       read_features, write_features, write_report)
from .seeding import derive_seed, make_rng

__version__ = "0.1.0"
