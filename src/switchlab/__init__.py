"""Semi-supervised segmentation lab with multiscale and frequency-domain switching."""

from .augment import AugmentPolicy, apply_augmentations, sample_augmentations
from .fds import FdsConfig, fds_pair
from .losses import LossWeights
from .metrics import MetricReport, asd, dice_coef, hd95, iou
from .mss import MssConfig, generate_multiscale_mask, switch_pair
from .network import NetConfig, SegNetParams
from .pseudo import largest_connected_component, pseudo_labels
from .synthdata import DatasetSplit, SynthConfig, make_dataset
from .trainer import TrainConfig, evaluate, pretrain, self_train, strategy_analysis

__version__ = "0.1.0"

__all__ = [
    "AugmentPolicy",
    "DatasetSplit",
    "FdsConfig",
    "LossWeights",
    "MetricReport",
    "MssConfig",
    "NetConfig",
    "SegNetParams",
    "SynthConfig",
    "TrainConfig",
    "apply_augmentations",
    "asd",
    "dice_coef",
    "evaluate",
    "fds_pair",
    "generate_multiscale_mask",
    "hd95",
    "iou",
    "largest_connected_component",
    "make_dataset",
    "pretrain",
    "pseudo_labels",
    "sample_augmentations",
    "self_train",
    "strategy_analysis",
    "switch_pair",
]
