"""Model and training-log persistence.

Everything is JSON with sorted keys, so a save -> load -> save round trip
is byte-identical and files are platform-independent: each file is the text
json.dump(doc, sort_keys=True, indent=1) gives, then a newline, written as
ASCII bytes with LF line ends.  Centroids are plain
floats (shortest round-trip decimal); leaf weights are raw fixed-point
integers next to the frac_bits that scale them.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _string

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


# The files hold json.dump(doc, sort_keys=True, indent=1) text.  With an
# indent json runs its pure-Python encoder, several Python calls per value,
# so the text is spelled here: _encode writes any document as json does,
# lists of plain numbers in one join, and trees straight from their nodes.
def _float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _block(brackets: str, items, pad: str) -> str:
    """Encoded items between brackets, "[]" or "{}", one to a line at indentation pad + 1."""
    inner = "\n " + pad
    text = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{text}\n{pad}{brackets[1]}" if text else brackets


def _object(members: dict, pad: str) -> str:
    """A JSON object of encoded values, keys sorted, at indentation pad."""
    return _block("{}", (f"{_string(k)}: {members[k]}" for k in sorted(members)), pad)


def _encode(value, pad: str = "") -> str:
    """value as json.dumps(value, sort_keys=True, indent=1) spells it at
    indentation pad, with json's dispatch: bool before int, and int and
    float subclasses (np.float64) through int.__repr__ and float.__repr__."""
    if isinstance(value, str):
        return _string(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds <= {int}:
            return _block("[]", map(int.__repr__, value), pad)
        if kinds <= {float} and all(map(math.isfinite, value)):
            return _block("[]", map(float.__repr__, value), pad)
        return _block("[]", [_encode(v, pad + " ") for v in value], pad)
    if isinstance(value, dict):
        return _object({k: _encode(v, pad + " ") for k, v in value.items()}, pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# one node of a tree, as a member of its level in a model file
_LEAF_TEXT = '"%s": {\n     "is_leaf": true,\n     "leaf_weight_raw": %d\n    }'
_SPLIT_TEXT = ('"%s": {\n     "feature": %d,\n     "is_leaf": false,\n'
               '     "missing_left": %s,\n     "threshold_bin": %d\n    }')


def _level_text(level: dict) -> str:
    """One level of a tree in a model file, node ids sorted as strings, as sort_keys sorts them."""
    return _block("{}", [
        _LEAF_TEXT % (key, node.leaf_weight_raw) if node.is_leaf else
        _SPLIT_TEXT % (key, node.feature, "true" if node.missing_left else "false",
                       node.threshold_bin)
        for key, node in sorted(zip(map(str, level), level.values()))], "   ")


def _tree_text(tree: TreeModel) -> str:
    return _block("[]", map(_level_text, tree.levels), "  ")


def _write(text: str, path: str) -> None:
    """One ASCII write of the text and a final newline, untouched by newline translation."""
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii") + b"\n")


_INT = (is_int, "an integer")
_NUMBER = (lambda v: is_real(v) and math.isfinite(v), "a finite number")
_LIST = (lambda v: isinstance(v, list), "a list")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_COUNT = (lambda v: is_int(v) and v >= 0, "a non-negative integer")
_COUNT_LIST = (lambda v: isinstance(v, list) and all(map(_COUNT[0], v)),
               "a list of non-negative integers")
_CHECKED = (lambda v: True, "")           # a value the caller has checked already

# the keys each saved object holds, with the check on each value
_HEADER = {"format": _CHECKED, "format_version": _CHECKED}
# BinMap checks that centroids are finite and names the feature
_BIN_MAP = {"centroids": (lambda v: isinstance(v, list) and all(
    isinstance(c, list) and all(map(is_real, c)) for c in v), "a list of lists of numbers")}
_MODEL = {"frac_bits": _INT, "base_score": _NUMBER, "config": _OBJECT,
          "bin_map": _OBJECT, "trees": _LIST}
_LOG = {"n_samples": _COUNT, "n_features": _COUNT, "config": _OBJECT, "trees": _LIST}
_LOG_TREE = {"n_subsampled": _COUNT, "n_leaves": _COUNT, "train_loss": _NUMBER, "depths": _LIST}
_LOG_DEPTH = {"trained_sizes": _COUNT_LIST, "split_sizes": _COUNT_LIST}
_LOG_CONFIG = {f.name: _INT if f.type is int else _NUMBER for f in fields(TrainConfig)}
# engine count is an execution knob, not a model property: identical models
# come out of any engine count, so model files omit it and stay byte-comparable
# across runs; training logs keep it for the cost model.
_MODEL_CONFIG = {k: v for k, v in _LOG_CONFIG.items() if k != "n_engines"}


class _Repeated(dict):
    """A JSON object whose text holds .key more than once.  json keeps the
    last value, so every check that reaches the object refuses it."""


def _from_pairs(pairs: list) -> dict:
    """json.load's object_pairs_hook: the object as a dict, a _Repeated one
    if a key repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        doc = _Repeated(doc)
        doc.key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    return doc


def _unique(doc: dict, where: str) -> None:
    if isinstance(doc, _Repeated):
        raise ValueError(f"{where}: duplicate key {doc.key!r}")


def _checked(doc, schema: dict, where: str) -> dict:
    """doc, once it holds exactly the schema's keys, each once, and each
    value passes its check."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {type(doc).__name__}")
    _unique(doc, where)
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
            doc = json.load(fh, object_pairs_hook=_from_pairs)
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


def _tree_from_doc(doc, index: int, n_features: int) -> TreeModel:
    """Rebuild one tree, checking that every sample can be routed through it,
    in one walk down its levels.  The walk carries the ids the level above
    expects, each with its parent: the root at depth 0, then both children
    (TreeModel.children) of every split.  A node that is not expected is an
    orphan and is refused at once, as is a bad node.  An expected id that is
    missing is a split without that child; the first, by depth and by file
    order within a depth, is refused after the walk, so an orphan or a bad
    node anywhere in the tree is reported before it."""
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], dict) or "0" not in doc[0]:
        raise ValueError(f"tree {index}: expected a list of levels starting with root node 0")
    levels, expected, missing = [], {0: None}, []
    for depth, level in enumerate([*doc, {}]):     # the last splits' children are in no level
        if not isinstance(level, dict):
            raise ValueError(f"tree {index}, depth {depth}: expected an object of nodes")
        _unique(level, f"tree {index}, depth {depth}")
        nodes = {}
        for key, node_doc in level.items():
            where = f"tree {index}, depth {depth}, node {key}"
            try:
                node_id = int(key)
            except ValueError:
                raise ValueError(f"{where}: node id is not an integer") from None
            if key != str(node_id):     # one spelling per id, the one save_model writes
                raise ValueError(f"{where}: node id must be written {node_id}, got {key!r}")
            if node_id not in expected:
                raise ValueError(f"{where}: orphan node, no split above it")
            nodes[node_id] = _node_from_dict(node_doc, where, n_features)
        missing += [(depth, kid, parent) for kid, parent in expected.items() if kid not in nodes]
        expected = {kid: node_id for node_id, node in nodes.items() if not node.is_leaf
                    for kid in TreeModel.children(node_id)}
        levels.append(nodes)
    if missing:
        depth, kid, parent = missing[0]
        raise ValueError(f"tree {index}, depth {depth - 1}, node {parent}: "
                         f"split without child {kid} at depth {depth}")
    return TreeModel(levels=levels[:-1])


def save_model(model: Model, bin_map: BinMap, config: TrainConfig, path: str) -> None:
    _write(_object({
        "format": _encode(MODEL_FORMAT),
        "format_version": _encode(FORMAT_VERSION),
        "frac_bits": _encode(config.frac_bits),
        "base_score": _encode(float(model.base_score)),
        "config": _encode({k: getattr(config, k) for k in _MODEL_CONFIG}, " "),
        "bin_map": _encode({"centroids": [c.tolist() for c in bin_map.centroids]}, " "),
        "trees": _block("[]", map(_tree_text, model.trees), " "),
    }, ""), path)


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
    trees = [_tree_from_doc(t, i, bin_map.n_features) for i, t in enumerate(doc["trees"])]
    model = Model(trees=trees, base_score=float(doc["base_score"]))
    return ModelBundle(model=model, bin_map=bin_map, config=config)


def save_training_log(log: TrainingLog, path: str) -> None:
    _write(_encode({
        "format": LOG_FORMAT,
        "format_version": FORMAT_VERSION,
        "n_samples": log.n_samples,
        "n_features": log.n_features,
        "config": {k: getattr(log.config, k) for k in _LOG_CONFIG},
        "trees": [{"n_subsampled": t.n_subsampled, "n_leaves": t.n_leaves,
                   "train_loss": t.train_loss,
                   "depths": [{"trained_sizes": d.trained_sizes, "split_sizes": d.split_sizes}
                              for d in t.depths]}
                  for t in log.trees],
    }), path)


def _tree_log(doc, n_samples: int, max_depth: int, where: str) -> TreeLog:
    """One log tree, once its counts are those of a tree the trainer grows
    over n_subsampled <= n_samples rows.  One walk down the depths carries
    the sizes the depth above split, the root's [n_subsampled] above depth
    0, and refuses the first depth that breaks one of rules 1-4; rule 5 is
    checked after the walk:
      1. depth 0 trains the root: trained_sizes is [n_subsampled];
      2. split_sizes is an in-order subsequence of trained_sizes, each at
         least 2, as a split has two non-empty sides;
      3. below the splits of a depth that is not the last, the next depth
         trains their children, two positive counts per split, in split
         order, that sum to the split's count;
      4. a depth is the last if and only if it splits nothing or is depth
         max_depth - 1;
      5. n_leaves counts the nodes that did not split, and two leaves below
         each split at depth max_depth - 1, whose children train no more."""
    t = _checked(doc, _LOG_TREE, where)
    if t["n_subsampled"] > n_samples:
        raise ValueError(f"{where}: n_subsampled {t['n_subsampled']} is more than "
                         f"n_samples {n_samples}")
    depths, above = [], [t["n_subsampled"]]
    for k, d in enumerate(t["depths"]):
        at = f"{where}, depth {k}"
        if not above:
            raise ValueError(f"{at}: below the last depth, as depth {k - 1} splits nothing "
                             f"or max_depth is {max_depth} (rule 4)")
        depth = DepthLog(**_checked(d, _LOG_DEPTH, at))
        trained, split = depth.trained_sizes, depth.split_sizes
        if k == 0 and trained != above:
            raise ValueError(f"{at}: trained_sizes must be {above}, the root over all "
                             f"n_subsampled rows, got {trained} (rule 1)")
        if k > 0 and (len(trained) != 2 * len(above) or 0 in trained
                      or [a + b for a, b in zip(trained[::2], trained[1::2])] != above):
            raise ValueError(f"{at}: trained_sizes {trained} must be two positive children "
                             f"of each split above, {above}, summing to it (rule 3)")
        rest = iter(trained)
        if not all(s >= 2 and s in rest for s in split):
            raise ValueError(f"{at}: split_sizes {split} must be an in-order subsequence of "
                             f"trained_sizes {trained}, each at least 2 (rule 2)")
        depths.append(depth)
        above = split if k + 1 < max_depth else []
    if above:
        raise ValueError(f"{where}, depth {len(depths)}: missing, but depth {len(depths) - 1} "
                         f"splits {above} and max_depth is {max_depth} (rule 4)" if depths else
                         f"{where}: no depths, but every tree trains its root (rule 1)")
    # split is the last depth's: empty, or at depth max_depth - 1 with two leaves per split
    leaves = sum(len(d.trained_sizes) - len(d.split_sizes) for d in depths) + 2 * len(split)
    if t["n_leaves"] != leaves:
        raise ValueError(f"{where}: n_leaves must be {leaves}, the unsplit nodes and two below "
                         f"each split at depth max_depth - 1, got {t['n_leaves']} (rule 5)")
    return TreeLog(**{**t, "depths": depths})


def load_training_log(path: str) -> TrainingLog:
    """Read a training log; every key save_training_log writes must be there,
    and no other, it must hold the config's n_trees trees, and each tree the
    counts of a tree the trainer grows (_tree_log)."""
    doc = _load(path, LOG_FORMAT, _LOG, "log")
    config = _config_from_dict(doc["config"], _LOG_CONFIG, "log config")
    if len(doc["trees"]) != config.n_trees:
        raise ValueError(f"log: len(trees) is {len(doc['trees'])}, but n_trees is {config.n_trees}")
    trees = [_tree_log(t, doc["n_samples"], config.max_depth, f"log tree {i}")
             for i, t in enumerate(doc["trees"])]
    return TrainingLog(doc["n_samples"], doc["n_features"], config, trees)
