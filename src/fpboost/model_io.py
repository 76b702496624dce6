"""Model and training-log persistence.

Everything is JSON with sorted keys, so a save -> load -> save round trip
is byte-identical and files are platform-independent.  Centroids are plain
floats (shortest round-trip decimal); leaf weights are raw fixed-point
integers next to the frac_bits that scale them.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .boost_controller import DepthLog, Model, TrainingLog, TreeLog
from .fixed_point import is_int, is_real
from .node_trainer import TrainConfig, TreeNode
from .quantizer import MISSING_BIN, BinMap
from .splitter import TreeModel

MODEL_FORMAT = "fpboost-model"
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


_INT = (is_int, "an integer")
_NUMBER = (lambda v: is_real(v) and math.isfinite(v), "a finite number")
_LIST = (lambda v: isinstance(v, list), "a list")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_INT_LIST = (lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers")
_CHECKED = (lambda v: True, "")           # a value the caller has checked already

# the keys each saved object holds, with the check on each value
_HEADER = {"format": _CHECKED, "format_version": _CHECKED}
# BinMap checks that centroids are finite and names the feature
_BIN_MAP = {"centroids": (lambda v: isinstance(v, list) and all(
    isinstance(c, list) and all(map(is_real, c)) for c in v), "a list of lists of numbers")}
_MODEL = {"frac_bits": _INT, "base_score": _NUMBER, "config": _OBJECT,
          "bin_map": _OBJECT, "trees": _LIST}
_LOG = {"n_samples": _INT, "n_features": _INT, "config": _OBJECT, "trees": _LIST}
_LOG_TREE = {"n_subsampled": _INT, "n_leaves": _INT, "train_loss": _NUMBER, "depths": _LIST}
_LOG_DEPTH = {"trained_sizes": _INT_LIST, "split_sizes": _INT_LIST}
_LOG_CONFIG = {f.name: _INT if f.type is int else _NUMBER for f in fields(TrainConfig)}
# engine count is an execution knob, not a model property: identical models
# come out of any engine count, so model files omit it and stay byte-comparable
# across runs; training logs keep it for the cost model.
_MODEL_CONFIG = {k: v for k, v in _LOG_CONFIG.items() if k != "n_engines"}


def _checked(doc, schema: dict, where: str) -> dict:
    """doc, once it holds exactly the schema's keys and each value passes its check."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = sorted(doc.keys() - schema.keys())
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")
    for key, (check, what) in schema.items():
        if key not in doc:
            raise ValueError(f"{where}: missing key {key!r}")
        if not check(doc[key]):
            raise ValueError(f"{where}: {key} must be {what}, got {doc[key]!r}")
    return doc


def _load(path: str, expected_format: str, schema: dict, where: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed document: {err}") from err
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != expected_format:
        raise ValueError(f"not a {expected_format} file: format={found!r}")
    version = doc.get("format_version")
    if not is_int(version) or version != FORMAT_VERSION:    # true and 1.0 equal 1
        raise ValueError(f"unsupported format_version {version!r}")
    return _checked(doc, {**_HEADER, **schema}, where)


def _config_from_dict(doc, schema: dict, where: str) -> TrainConfig:
    checked = _checked(doc, schema, where)
    try:
        return TrainConfig(**checked)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"is_leaf": True, "leaf_weight_raw": int(node.leaf_weight_raw)}
    return {
        "is_leaf": False,
        "feature": int(node.feature),
        "threshold_bin": int(node.threshold_bin),
        "missing_left": bool(node.missing_left),
    }


_LEAF = {"is_leaf": _CHECKED,
         "leaf_weight_raw": (lambda v: is_int(v) and INT64_MIN <= v <= INT64_MAX,
                             "an int64 integer")}


def _node_from_dict(doc, where: str, n_features: int) -> TreeNode:
    if not isinstance(doc, dict) or not isinstance(doc.get("is_leaf"), bool):
        raise ValueError(f"{where}: a node needs a boolean 'is_leaf'")
    if doc["is_leaf"]:
        return TreeNode(**_checked(doc, _LEAF, where))
    return TreeNode(**_checked(doc, {
        "is_leaf": _CHECKED,
        "feature": (lambda v: is_int(v) and 0 <= v < n_features,
                    f"an integer in [0, {n_features})"),
        "threshold_bin": (lambda v: is_int(v) and 0 <= v < MISSING_BIN,
                          f"an integer in [0, {MISSING_BIN - 1}]"),
        "missing_left": (lambda v: isinstance(v, bool), "true or false"),
    }, where))


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


def save_model(model: Model, bin_map: BinMap, config: TrainConfig, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "format_version": FORMAT_VERSION,
        "frac_bits": config.frac_bits,
        "base_score": float(model.base_score),
        "config": {k: v for k, v in asdict(config).items() if k in _MODEL_CONFIG},
        "bin_map": {"centroids": [[float(v) for v in c] for c in bin_map.centroids]},
        "trees": [_tree_to_doc(t) for t in model.trees],
    }
    _dump(doc, path)


def load_model(path: str) -> ModelBundle:
    """Read a model file; every key save_model writes must be there, and no other."""
    doc = _load(path, MODEL_FORMAT, _MODEL, "model")
    config = _config_from_dict(doc["config"], _MODEL_CONFIG, "model config")
    if doc["frac_bits"] != config.frac_bits:
        raise ValueError(
            f"frac_bits mismatch: document says {doc['frac_bits']}, config says {config.frac_bits}"
        )
    centroids = _checked(doc["bin_map"], _BIN_MAP, "model bin_map")["centroids"]
    bin_map = BinMap([np.asarray(c, dtype=np.float64) for c in centroids])
    model = Model(
        trees=[_tree_from_doc(t, i, bin_map.n_features) for i, t in enumerate(doc["trees"])],
        base_score=float(doc["base_score"]),
    )
    return ModelBundle(model=model, bin_map=bin_map, config=config)


def save_training_log(log: TrainingLog, path: str) -> None:
    _dump({"format": LOG_FORMAT, "format_version": FORMAT_VERSION, **asdict(log)}, path)


def load_training_log(path: str) -> TrainingLog:
    """Read a training log; every key save_training_log writes must be there, and no other."""
    doc = _load(path, LOG_FORMAT, _LOG, "log")
    trees = []
    for i, t in enumerate(doc["trees"]):
        t = _checked(t, _LOG_TREE, f"log tree {i}")
        depths = [DepthLog(**_checked(d, _LOG_DEPTH, f"log tree {i}, depth {k}"))
                  for k, d in enumerate(t["depths"])]
        trees.append(TreeLog(**{**t, "depths": depths}))
    return TrainingLog(
        n_samples=doc["n_samples"],
        n_features=doc["n_features"],
        config=_config_from_dict(doc["config"], _LOG_CONFIG, "log config"),
        trees=trees,
    )
