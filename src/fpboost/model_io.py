"""Model, bin-map and training-log persistence.

Everything is JSON with sorted keys, so a save -> load -> save round trip
is byte-identical and files are platform-independent.  Centroids are plain
floats (shortest round-trip decimal); leaf weights are raw fixed-point
integers next to the frac_bits that scale them.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .boost_controller import DepthLog, Model, TrainingLog, TreeLog
from .node_trainer import TrainConfig
from .quantizer import MISSING_BIN, BinMap
from .splitter import TreeModel, TreeNode

MODEL_FORMAT = "fpboost-model"
BINMAP_FORMAT = "fpboost-binmap"
LOG_FORMAT = "fpboost-log"
FORMAT_VERSION = 1
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


@dataclass
class ModelBundle:
    model: Model
    bin_map: BinMap
    config: TrainConfig


def _dump(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load(path: str, expected_format: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed document: {err}") from err
    if doc.get("format") != expected_format:
        raise ValueError(f"not a {expected_format} file: format={doc.get('format')!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
    return doc


def _config_to_dict(config: TrainConfig, include_engines: bool) -> dict:
    # engine count is an execution knob, not a model property: identical
    # models come out of any engine count, so model files omit it and stay
    # byte-comparable across runs; training logs keep it for the cost model.
    doc = {
        "lam": config.lam,
        "gamma": config.gamma,
        "max_depth": config.max_depth,
        "n_trees": config.n_trees,
        "subsample": config.subsample,
        "eta": config.eta,
        "seed": config.seed,
        "frac_bits": config.frac_bits,
    }
    if include_engines:
        doc["n_engines"] = config.n_engines
    return doc


def _config_from_dict(doc: dict) -> TrainConfig:
    return TrainConfig(**doc)


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"is_leaf": True, "leaf_weight_raw": int(node.leaf_weight_raw)}
    return {
        "is_leaf": False,
        "feature": int(node.feature),
        "threshold_bin": int(node.threshold_bin),
        "missing_left": bool(node.missing_left),
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _node_from_dict(doc, where: str, n_features: int) -> TreeNode:
    if not isinstance(doc, dict) or not isinstance(doc.get("is_leaf"), bool):
        raise ValueError(f"{where}: a node needs a boolean 'is_leaf'")
    if doc["is_leaf"]:
        weight = doc.get("leaf_weight_raw")
        if not (_is_int(weight) and INT64_MIN <= weight <= INT64_MAX):
            raise ValueError(f"{where}: leaf_weight_raw must be an int64 integer, got {weight!r}")
        return TreeNode(is_leaf=True, leaf_weight_raw=weight)
    feature = doc.get("feature")
    if not (_is_int(feature) and 0 <= feature < n_features):
        raise ValueError(f"{where}: feature must be an integer in [0, {n_features}), got {feature!r}")
    threshold = doc.get("threshold_bin")
    if not (_is_int(threshold) and 0 <= threshold < MISSING_BIN):
        raise ValueError(
            f"{where}: threshold_bin must be an integer in [0, {MISSING_BIN - 1}], got {threshold!r}"
        )
    missing_left = doc.get("missing_left")
    if not isinstance(missing_left, bool):
        raise ValueError(f"{where}: missing_left must be true or false, got {missing_left!r}")
    return TreeNode(is_leaf=False, feature=feature, threshold_bin=threshold,
                    missing_left=missing_left)


def _tree_to_doc(tree: TreeModel) -> list:
    return [{str(node_id): _node_to_dict(n) for node_id, n in level.items()}
            for level in tree.levels]


def _tree_from_doc(doc, index: int, n_features: int) -> TreeModel:
    """Rebuild one tree, checking that every sample can be routed through it:
    the root is node 0, each split has both children one level down, and
    each node below the root hangs off a split."""
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], dict) or "0" not in doc[0]:
        raise ValueError(f"tree {index}: expected a list of levels starting with root node 0")
    tree = TreeModel(levels=[])
    for depth, level in enumerate(doc):
        if not isinstance(level, dict):
            raise ValueError(f"tree {index}, depth {depth}: expected an object of nodes")
        nodes = {}
        for key, node_doc in level.items():
            where = f"tree {index}, depth {depth}, node {key}"
            try:
                node_id = int(key)
            except ValueError:
                raise ValueError(f"{where}: node id is not an integer") from None
            if depth == 0:
                orphan = node_id != 0
            else:
                parent = tree.levels[depth - 1].get(node_id // 2)
                orphan = parent is None or parent.is_leaf
            if orphan:
                raise ValueError(f"{where}: orphan node, no split above it")
            nodes[node_id] = _node_from_dict(node_doc, where, n_features)
        tree.levels.append(nodes)
    for depth, level in enumerate(tree.levels):
        below = tree.levels[depth + 1] if depth + 1 < len(tree.levels) else {}
        for node_id, node in level.items():
            if node.is_leaf:
                continue
            for child in (2 * node_id, 2 * node_id + 1):
                if child not in below:
                    raise ValueError(
                        f"tree {index}, depth {depth}, node {node_id}: "
                        f"split without child {child} at depth {depth + 1}"
                    )
    return tree


def _bin_map_to_doc(bin_map: BinMap) -> dict:
    return {"centroids": [[float(v) for v in c] for c in bin_map.centroids]}


def _bin_map_from_doc(doc: dict) -> BinMap:
    return BinMap([np.asarray(c, dtype=np.float64) for c in doc["centroids"]])


def save_model(model: Model, bin_map: BinMap, config: TrainConfig, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "format_version": FORMAT_VERSION,
        "frac_bits": config.frac_bits,
        "base_score": float(model.base_score),
        "config": _config_to_dict(config, include_engines=False),
        "bin_map": _bin_map_to_doc(bin_map),
        "trees": [_tree_to_doc(t) for t in model.trees],
    }
    _dump(doc, path)


def load_model(path: str) -> ModelBundle:
    doc = _load(path, MODEL_FORMAT)
    config = _config_from_dict(doc["config"])
    if doc["frac_bits"] != config.frac_bits:
        raise ValueError(
            f"frac_bits mismatch: document says {doc['frac_bits']}, config says {config.frac_bits}"
        )
    bin_map = _bin_map_from_doc(doc["bin_map"])
    base_score = doc["base_score"]
    if not (isinstance(base_score, (int, float)) and math.isfinite(base_score)):
        raise ValueError(f"base_score must be a finite number, got {base_score!r}")
    model = Model(
        trees=[_tree_from_doc(t, i, bin_map.n_features) for i, t in enumerate(doc["trees"])],
        base_score=float(base_score),
    )
    return ModelBundle(model=model, bin_map=bin_map, config=config)


def save_bin_map(bin_map: BinMap, path: str) -> None:
    doc = {"format": BINMAP_FORMAT, "format_version": FORMAT_VERSION}
    doc.update(_bin_map_to_doc(bin_map))
    _dump(doc, path)


def load_bin_map(path: str) -> BinMap:
    return _bin_map_from_doc(_load(path, BINMAP_FORMAT))


def save_training_log(log: TrainingLog, path: str) -> None:
    doc = {
        "format": LOG_FORMAT,
        "format_version": FORMAT_VERSION,
        "n_samples": log.n_samples,
        "n_features": log.n_features,
        "config": _config_to_dict(log.config, include_engines=True),
        "trees": [
            {
                "n_subsampled": t.n_subsampled,
                "n_leaves": t.n_leaves,
                "train_loss": t.train_loss,
                "depths": [
                    {"trained_sizes": d.trained_sizes, "split_sizes": d.split_sizes}
                    for d in t.depths
                ],
            }
            for t in log.trees
        ],
    }
    _dump(doc, path)


def load_training_log(path: str) -> TrainingLog:
    doc = _load(path, LOG_FORMAT)
    return TrainingLog(
        n_samples=int(doc["n_samples"]),
        n_features=int(doc["n_features"]),
        config=_config_from_dict(doc["config"]),
        trees=[
            TreeLog(
                n_subsampled=int(t["n_subsampled"]),
                n_leaves=int(t["n_leaves"]),
                train_loss=float(t["train_loss"]),
                depths=[
                    DepthLog(
                        trained_sizes=[int(s) for s in d["trained_sizes"]],
                        split_sizes=[int(s) for s in d["split_sizes"]],
                    )
                    for d in t["depths"]
                ],
            )
            for t in doc["trees"]
        ],
    )
