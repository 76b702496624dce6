"""fpboost: bit-deterministic fixed-point GBDT training with a cycle cost model."""

from .boost_controller import Model, predict_raw, subsample_indices, train
from .cost_model import CostParams, CostReport, estimate, to_wall_time
from .data_parallel import shard
from .dataset import load_dataset
from .engine_memory import EngineMemory, StateMemory, init_index_table, load
from .fixed_point import FRAC_BITS, dequantize, quantize, sigmoid
from .metrics import auc, evaluate_per_tree, train_and_evaluate
from .model_io import ModelBundle, load_model, save_model
from .node_trainer import (
    GradientHistogram,
    SplitDecision,
    TrainConfig,
    build_histogram,
    find_best_split,
    leaf_weight,
    split_gain,
)
from .quantizer import BinMap, QuantizedMatrix, RawDataset, fit_bin_map, fit_bins, transform
from .splitter import TreeModel, TreeNode, apply_tree_update, partition

__version__ = "0.1.0"
