import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboost.boost_controller import DepthLog, Model, TrainingLog, TreeLog, predict_raw, train
from fpboost.cost_model import CostParams, estimate
from fpboost.model_io import load_model, load_training_log, save_model, save_training_log
from fpboost.node_trainer import TrainConfig, TreeNode
from fpboost.quantizer import BinMap, fit_bin_map, transform
from fpboost.splitter import TreeModel
from conftest import random_raw
from reference import ref_log_doc, ref_logs, ref_model_doc


def _trained(rng, **cfg_kwargs):
    raw = random_raw(rng, int(rng.integers(20, 200)), int(rng.integers(1, 6)))
    bins = fit_bin_map(raw)
    matrix = transform(raw, bins)
    defaults = dict(n_trees=int(rng.integers(1, 6)), max_depth=int(rng.integers(1, 4)),
                    subsample=float(rng.choice([0.5, 1.0])), n_engines=int(rng.choice([1, 2, 4])),
                    seed=int(rng.integers(0, 2**32)))
    defaults.update(cfg_kwargs)
    config = TrainConfig(**defaults)
    model, log = train(matrix, raw.labels, config)
    return model, bins, config, matrix, log


def _json_text(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("ascii")


_INT64_EDGES = st.sampled_from([-(1 << 63), (1 << 63) - 1, 0, -1])
# -0.0, a subnormal and 1e300, and any other finite value
_CENTROIDS = st.sampled_from([-0.0, 5e-324, 1e300]) | st.floats(allow_nan=False,
                                                                  allow_infinity=False)


@st.composite
def _trees(draw, n_features: int):
    """A tree of depth 0..8, as full or as sparse as drawn: at depth 8 node ids
    run to 255, so 3-digit ids sort as strings ("100" before "20")."""
    max_depth = draw(st.integers(0, 8))
    p_split = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    weights = draw(st.lists(_INT64_EDGES | st.integers(-(1 << 63), (1 << 63) - 1),
                            min_size=1, max_size=8))
    tree, frontier = TreeModel(levels=[]), [0]
    for depth in range(max_depth + 1):
        level, below = {}, []
        for node_id in frontier:
            if depth < max_depth and rnd.random() < p_split:
                level[node_id] = TreeNode(False, feature=rnd.randrange(n_features),
                                          threshold_bin=rnd.randrange(255),
                                          missing_left=rnd.random() < 0.5)
                below += [2 * node_id, 2 * node_id + 1]
            else:
                level[node_id] = TreeNode(True, leaf_weight_raw=rnd.choice(weights))
        tree.levels.append(level)
        if not below:
            break
        frontier = below
    return tree


# reals as a config may hold them: floats, np.float64s and integers a float holds
_CONFIGS = st.builds(TrainConfig, lam=st.sampled_from([0.5, np.float64(0.25), np.float64(1.0), 2]),
                     gamma=st.sampled_from([0, 0.0, np.float64(0.5)]),
                     max_depth=st.integers(1, 8), n_trees=st.integers(0, 3),
                     subsample=st.sampled_from([0.5, np.float64(0.25), 1]),
                     eta=st.sampled_from([1, 0.3, np.float64(0.75)]),
                     seed=st.sampled_from([0, (1 << 64) - 1]), frac_bits=st.integers(1, 48))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_model_file_is_json_dump_text(tmp_path_factory, data):
    """save_model writes exactly json.dump(doc, sort_keys=True, indent=1) text
    and a newline, for the document the reference builds."""
    features = data.draw(st.lists(st.lists(_CENTROIDS, min_size=1, max_size=6, unique=True),
                                  min_size=1, max_size=4), label="centroids")
    bin_map = BinMap([sorted(c) for c in features])
    trees = data.draw(st.lists(_trees(bin_map.n_features), max_size=3), label="trees")
    base_score = data.draw(st.floats() | st.floats(width=32).map(np.float64), label="base_score")
    model, config = Model(trees=trees, base_score=base_score), data.draw(_CONFIGS, label="config")
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(model, bin_map, config, str(path))
    assert path.read_bytes() == _json_text(ref_model_doc(model, bin_map, config))


# lists of one kind take the writer's one-pass joins; mixed ones go value by value
_COUNTS = (st.lists(st.integers(0, 10**12), max_size=5) | st.lists(st.floats(), max_size=5)
           | st.lists(st.integers(0, 10**12) | st.booleans() | st.floats(), max_size=5))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_log_file_is_json_dump_text(tmp_path_factory, data):
    """save_training_log writes exactly json.dump(doc, sort_keys=True, indent=1)
    text and a newline, for the document the reference builds, with counts
    and losses of any JSON number type, booleans and non-finite floats too."""
    depths = st.builds(DepthLog, trained_sizes=_COUNTS,
                       split_sizes=st.just([]) | _COUNTS)
    tree_logs = st.builds(TreeLog, n_subsampled=st.integers(0, 10**12),
                          depths=st.lists(depths, max_size=8), n_leaves=st.integers(0, 512),
                          train_loss=st.floats() | st.floats().map(np.float64) | st.integers())
    log = data.draw(st.builds(TrainingLog, n_samples=st.integers(0, 10**12),
                              n_features=st.integers(0, 300), config=_CONFIGS,
                              trees=st.lists(tree_logs, max_size=3)), label="log")
    path = tmp_path_factory.mktemp("log") / "log.json"
    save_training_log(log, str(path))
    assert path.read_bytes() == _json_text(ref_log_doc(log))


def test_node_ids_sort_as_strings(tmp_path):
    """Node ids are object keys, so sort_keys puts "10" before "2"."""
    tree = TreeModel(levels=[])
    for depth in range(5):
        tree.levels.append({i: TreeNode(False, feature=0, threshold_bin=3, missing_left=True)
                            if depth < 4 else TreeNode(True, leaf_weight_raw=i)
                            for i in range(1 << depth)})
    model, bin_map = Model(trees=[tree]), BinMap([[0.0, 1.0]])
    save_model(model, bin_map, TrainConfig(), str(tmp_path / "m.json"))
    text = (tmp_path / "m.json").read_text()
    # the last of each id is in the leaf level, ids 0..15
    assert text.rindex('"1": {') < text.rindex('"10": {') < text.rindex('"15": {') < text.rindex('"2": {')
    assert text.encode() == _json_text(ref_model_doc(model, bin_map, TrainConfig()))


def test_empty_model_round_trip_bytes(rng, tmp_path):
    raw = random_raw(rng, 10, 2)
    bins = fit_bin_map(raw)
    config = TrainConfig(n_trees=0)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(Model(), bins, config, str(p1))
    bundle = load_model(str(p1))
    save_model(bundle.model, bundle.bin_map, bundle.config, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_save_byte_identity(rng, tmp_path):
    for i in range(10):
        model, bins, config, _, _ = _trained(rng)
        p1, p2 = tmp_path / f"m{i}a.json", tmp_path / f"m{i}b.json"
        save_model(model, bins, config, str(p1))
        bundle = load_model(str(p1))
        save_model(bundle.model, bundle.bin_map, bundle.config, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_split_gain_is_not_part_of_the_model(rng, tmp_path):
    # a trained split node keeps its scan gain and children's totals, the
    # loaded one reads 0 and None, and the trees still compare equal
    model, bins, config, _, _ = _trained(rng, n_trees=3, max_depth=3, subsample=1.0)
    splits = [n for t in model.trees for level in t.levels for n in level.values() if not n.is_leaf]
    assert splits and all(n.gain > 0 and n.child_totals is not None for n in splits)
    path = tmp_path / "m.json"
    save_model(model, bins, config, str(path))
    loaded = load_model(str(path)).model
    assert all(n.gain == 0 and n.child_totals is None
               for t in loaded.trees for level in t.levels for n in level.values())
    assert loaded.trees == model.trees


def test_loaded_model_predicts_bitwise(rng, tmp_path):
    for i in range(10):
        model, bins, config, matrix, _ = _trained(rng)
        path = tmp_path / f"m{i}.json"
        save_model(model, bins, config, str(path))
        bundle = load_model(str(path))
        a = predict_raw(model, matrix, config.eta, config.frac_bits)
        b = predict_raw(bundle.model, matrix, bundle.config.eta, bundle.config.frac_bits)
        assert np.array_equal(a, b)


def test_tampered_frac_bits_rejected(rng, tmp_path):
    model, bins, config, _, _ = _trained(rng)
    path = tmp_path / "m.json"
    save_model(model, bins, config, str(path))
    doc = json.loads(path.read_text())
    doc["frac_bits"] = doc["frac_bits"] + 1
    path.write_text(json.dumps(doc, sort_keys=True))
    with pytest.raises(ValueError, match="frac_bits mismatch"):
        load_model(str(path))


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "something-else", "format_version": 1}))
    with pytest.raises(ValueError, match="not a fpboost-model"):
        load_model(str(path))


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "fpboost-model", "format_version": 99}))
    with pytest.raises(ValueError, match="format_version"):
        load_model(str(path))


@pytest.mark.parametrize("version", [True, 1.0])
def test_version_equal_to_1_but_not_the_integer_rejected(rng, tmp_path, version):
    model, bins, config, _, log = _trained(rng)
    for save, load, obj in ((save_model, load_model, (model, bins, config)),
                            (save_training_log, load_training_log, (log,))):
        path = tmp_path / "f.json"
        save(*obj, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported format_version"):
            load(str(path))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_model(str(path))


def test_centroids_survive_full_precision(rng, tmp_path):
    model, bins, config, _, _ = _trained(rng)
    path = tmp_path / "m.json"
    save_model(model, bins, config, str(path))
    loaded = load_model(str(path)).bin_map
    for a, b in zip(bins.centroids, loaded.centroids):
        assert np.array_equal(a, b)


def test_training_log_round_trip(rng, tmp_path):
    model, bins, config, matrix, log = _trained(rng)
    path = tmp_path / "log.json"
    save_training_log(log, str(path))
    loaded = load_training_log(str(path))
    assert loaded.n_samples == log.n_samples
    assert loaded.config == log.config
    params = CostParams()
    a = estimate(log, log.n_samples, log.config, params)
    b = estimate(loaded, loaded.n_samples, loaded.config, params)
    assert a == b


@pytest.mark.parametrize("reals", [
    dict(lam=2, gamma=0, subsample=1, eta=1),      # integers that a float holds
    dict(lam=np.float64(0.5), gamma=np.float64(0.25), subsample=np.float64(0.5),
         eta=np.float64(0.75)),
])
def test_accepted_config_saves_and_loads_back(rng, tmp_path, reals):
    model, bins, config, _, log = _trained(rng, **reals)
    save_model(model, bins, config, str(tmp_path / "m.json"))
    save_training_log(log, str(tmp_path / "log.json"))
    assert load_training_log(str(tmp_path / "log.json")).config == config
    loaded = load_model(str(tmp_path / "m.json")).config
    assert loaded == dataclasses.replace(config, n_engines=loaded.n_engines)


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True))
    assert "Infinity" in path.read_text()


def test_non_finite_numbers_fail_at_load(rng, tmp_path):
    model, bins, config, _, _ = _trained(rng)
    path = tmp_path / "m.json"
    save_model(model, bins, config, str(path))
    saved = path.read_text()
    _rewrite(path, lambda doc: doc["bin_map"]["centroids"][0].__setitem__(-1, float("inf")))
    with pytest.raises(ValueError, match="feature 0: centroids must be finite"):
        load_model(str(path))
    path.write_text(saved)
    _rewrite(path, lambda doc: doc.__setitem__("base_score", float("-inf")))
    with pytest.raises(ValueError, match="base_score must be a finite number"):
        load_model(str(path))


def _saved_with(rng, tmp_path, kind, path):
    """A saved model or log, and a loader of it with the value at path set."""
    model, bins, config, _, log = _trained(rng)
    file = tmp_path / "f.json"
    if kind == "model":
        save_model(model, bins, config, str(file))
    else:
        save_training_log(log, str(file))
    doc = json.loads(file.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]

    def load_with(value):
        target[path[-1]] = value
        file.write_text(json.dumps(doc))
        return (load_model if kind == "model" else load_training_log)(str(file))

    return load_with


@pytest.mark.parametrize("kind, path", [
    ("model", ("base_score",)), ("model", ("config", "lam")), ("model", ("bin_map", "centroids", 0, 0)),
    ("log", ("config", "eta")), ("log", ("trees", 0, "train_loss")),
], ids=["base_score", "model_lam", "centroid", "log_eta", "train_loss"])
def test_integer_beyond_float_range_fails_at_load(rng, tmp_path, kind, path):
    # JSON integers have no size limit, and 10**400 overflows a float
    load_with = _saved_with(rng, tmp_path, kind, path)
    with pytest.raises(ValueError, match="must be a"):
        load_with(10**400)


@pytest.mark.parametrize("kind, path, where", [
    ("model", ("base_score",), "model: base_score"), ("model", ("config", "lam"), "model config: lam"),
    ("model", ("bin_map", "centroids", 0, -1), "model bin_map: centroids"),
    ("log", ("trees", 0, "train_loss"), "log tree 0: train_loss"),
], ids=["base_score", "model_lam", "centroid", "train_loss"])
def test_integer_a_float_would_round_fails_at_load(rng, tmp_path, kind, path, where):
    # 2**53 + 1 loaded as a float would be 2**53; 2**53 + 2 is one exactly
    load_with = _saved_with(rng, tmp_path, kind, path)
    load_with(2**53 + 2)
    with pytest.raises(ValueError, match=f"^{where} must be a .*{2**53 + 1}"):
        load_with(2**53 + 1)


@pytest.mark.parametrize("kind", ["model", "log"])
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_out_of_range_seed_fails_at_load(rng, tmp_path, kind, seed):
    # the loaders build a TrainConfig, which refuses a seed outside 64 bits
    load_with = _saved_with(rng, tmp_path, kind, ("config", "seed"))
    load_with((1 << 64) - 1)
    with pytest.raises(ValueError, match=rf"{kind} config: seed must be in \[0, 2\*\*64\)"):
        load_with(seed)


_LEAF_DOC = {"is_leaf": True, "leaf_weight_raw": 1}
_SPLIT_DOC = {"feature": 0, "is_leaf": False, "missing_left": False, "threshold_bin": 0}
_L, _S = _LEAF_DOC, _SPLIT_DOC
_NO_ROOT = "tree 1: expected a list of levels starting with root node 0"
# tree 1 of a model whose tree 0 is a single leaf, and the exact load error
_TREE_SHAPE_REFUSALS = {
    "no levels": ([], _NO_ROOT),
    "no root": ([{"1": _L}], _NO_ROOT),
    "a depth 0 that is not an object": ([[_L]], _NO_ROOT),
    "a node other than 0 at depth 0": (
        [{"0": _L, "1": _L}], "tree 1, depth 0, node 1: orphan node, no split above it"),
    "an orphan under a leaf": (
        [{"0": _S}, {"0": _L, "1": _L}, {"1": _L}],
        "tree 1, depth 2, node 1: orphan node, no split above it"),
    "an orphan under a missing parent": (
        [{"0": _S}, {"0": _S, "1": _L}, {"0": _L, "1": _L, "6": _L}],
        "tree 1, depth 2, node 6: orphan node, no split above it"),
    "a missing child at a middle depth": (
        [{"0": _S}, {"1": _S}, {"2": _L, "3": _L}],
        "tree 1, depth 0, node 0: split without child 0 at depth 1"),
    "a missing child at the last depth": (
        [{"0": _S}, {"0": _S, "1": _L}, {"1": _L}],
        "tree 1, depth 1, node 0: split without child 0 at depth 2"),
    "a split on the last level": (
        [{"0": _S}, {"0": _L, "1": _S}],
        "tree 1, depth 1, node 1: split without child 2 at depth 2"),
    "a level that is not an object": (
        [{"0": _S}, [_L, _L]], "tree 1, depth 1: expected an object of nodes"),
    "a non-integer id": (
        [{"0": _S}, {"0": _L, "x": _L}], "tree 1, depth 1, node x: node id is not an integer"),
    # two faults: the orphans of a missing split come first, then any bad
    # node, and of the missing children the shallowest, in file order
    "a missing split and its orphaned children": (
        [{"0": _S}, {"0": _L}, {"2": _L, "3": _L}],
        "tree 1, depth 2, node 2: orphan node, no split above it"),
    "a missing child and a bad node below it": (
        [{"0": _S}, {"0": _S}, {"0": _L, "1": {"is_leaf": True}}],
        "tree 1, depth 2, node 1: missing key 'leaf_weight_raw'"),
    "two missing children": (
        [{"0": _S}, {"0": _S}, {}],
        "tree 1, depth 0, node 0: split without child 1 at depth 1"),
    "two splits missing children, the first in file order": (
        [{"0": _S}, {"1": _S, "0": _S}, {"0": _L, "1": _L}],
        "tree 1, depth 1, node 1: split without child 2 at depth 2"),
}


def _model_with_tree(tmp_path, tree_doc) -> str:
    """A saved one-feature model with tree_doc as its tree 1, written in the
    tree's own key order; returns the path."""
    path = tmp_path / "shape.json"
    save_model(Model(trees=[TreeModel(levels=[{0: TreeNode(True, leaf_weight_raw=0)}])]),
               BinMap([[0.0, 1.0]]), TrainConfig(), str(path))
    doc = json.loads(path.read_text())
    doc["trees"].append(tree_doc)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case", sorted(_TREE_SHAPE_REFUSALS))
def test_tree_shape_refusals(tmp_path, case):
    tree_doc, message = _TREE_SHAPE_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        load_model(_model_with_tree(tmp_path, tree_doc))
    assert str(err.value) == message


@pytest.mark.parametrize("tree_doc", [[{"0": _L}, {}], [{"0": _S}, {"0": _L, "1": _L}, {}]])
def test_empty_trailing_level_loads_and_saves_back(tmp_path, tree_doc):
    path = _model_with_tree(tmp_path, tree_doc)
    text = json.dumps(json.loads(Path(path).read_text()), sort_keys=True, indent=1) + "\n"
    Path(path).write_text(text)
    bundle = load_model(path)
    assert bundle.model.trees[1].levels[-1] == {}
    save_model(bundle.model, bundle.bin_map, bundle.config, path)
    assert Path(path).read_text() == text


_SPLIT_FIELD_MUTATIONS = {
    "feature": [-1, "n_features", 1.5, "0", None, True],
    "threshold_bin": [-1, 255, 300, 2.0, None],
    "missing_left": [0, 1, "true", None],
    "is_leaf": [True, None, 0],
}
_LEAF_FIELD_MUTATIONS = {
    "leaf_weight_raw": [1.5, "7", None, True, 1 << 63, -(1 << 63) - 1, float("inf")],
    "is_leaf": [False, None, 1],
}
_DELETED = object()


def _one_field_mutants(doc, n_features):
    """Every saved model that differs from doc in one node field, one node
    or one added node, with the place the load error must name."""
    for t, tree in enumerate(doc["trees"]):
        for d, level in enumerate(tree):
            for key, node in level.items():
                where = f"tree {t}, depth {d}, node {key}"
                table = _LEAF_FIELD_MUTATIONS if node["is_leaf"] else _SPLIT_FIELD_MUTATIONS
                for field, values in table.items():
                    for value in values + [_DELETED]:
                        mutant = json.loads(json.dumps(doc))
                        target = mutant["trees"][t][d][key]
                        if value is _DELETED:
                            del target[field]
                        else:
                            target[field] = n_features if value == "n_features" else value
                        yield mutant, where
                mutant = json.loads(json.dumps(doc))
                mutant["trees"][t][d][key]["bogus"] = 0
                yield mutant, f"{where}: unknown key 'bogus'"
                mutant = json.loads(json.dumps(doc))
                del mutant["trees"][t][d][key]
                yield mutant, f"tree {t}"
                if node["is_leaf"]:
                    mutant = json.loads(json.dumps(doc))
                    if d + 1 == len(tree):
                        mutant["trees"][t].append({})
                    mutant["trees"][t][d + 1][str(2 * int(key))] = dict(node)
                    yield mutant, f"tree {t}, depth {d + 1}, node {2 * int(key)}: orphan"
        mutant = json.loads(json.dumps(doc))
        mutant["trees"][t][0]["1"] = {"is_leaf": True, "leaf_weight_raw": 0}
        yield mutant, f"tree {t}, depth 0, node 1: orphan"
        for d, level in enumerate(tree):
            if "1" not in level:
                continue
            # int() reads each of these as 1, and json.load keeps only one of two "1"s
            for spelling in ("01", " 1", "+1", "\u0661"):
                mutant = json.loads(json.dumps(doc))
                mutant["trees"][t][d][spelling] = mutant["trees"][t][d].pop("1")
                yield mutant, f"tree {t}, depth {d}, node {spelling}: node id must be written 1"
            mutant = json.loads(json.dumps(doc))
            mutant["trees"][t][d]["01"] = dict(level["1"])
            yield mutant, f"tree {t}, depth {d}, node 01: node id must be written 1"
            mutant = json.loads(json.dumps(doc))
            mutant["trees"][t][d][_TWIN] = dict(level["1"])
            yield _twin_text(mutant, "1"), f"tree {t}, depth {d}: duplicate key '1'"
            mutant = json.loads(json.dumps(doc))
            mutant["trees"][t][d]["1"][_TWIN] = level["1"]["is_leaf"]
            yield _twin_text(mutant, "is_leaf"), f"tree {t}, depth {d}, node 1: duplicate key"


# a key that json.dumps writes once and _twin_text respells as a second copy of another key
_TWIN = "twin-key"


def _twin_text(doc, key: str) -> str:
    """doc's JSON text with its _TWIN key spelled key, so that key appears twice in one object."""
    return json.dumps(doc, sort_keys=True).replace(f'"{_TWIN}"', json.dumps(key))


_TOP_LEVEL_TYPE_MUTATIONS = {
    None: {"frac_bits": [24.0, "24", True], "base_score": ["0", None, float("nan")],
           "config": [[], None], "bin_map": [[], "x"], "trees": [3, {}, None]},
    "config": {"lam": ["1", None, float("nan")], "eta": [True, float("inf")],
               "max_depth": [2.5, "3"], "n_trees": [None], "seed": [1.0],
               "subsample": [[0.5]]},
    "bin_map": {"centroids": [{}, 1.0, [1.0], [[0.5, "1"]], [[0.5, None]], [[True]]]},
}
_SECTION_NAMES = {None: "model", "config": "model config", "bin_map": "model bin_map"}


def _edited(doc, section, edit):
    mutant = json.loads(json.dumps(doc))
    edit(mutant if section is None else mutant[section])
    return mutant


def _top_level_mutants(doc):
    """Every saved model with one top-level, config or bin_map key deleted,
    added or of a wrong type, with the start of the error load must raise.
    The format fields have their own tests."""
    for section, where in _SECTION_NAMES.items():
        keys = doc if section is None else doc[section]
        for key in sorted(set(keys) - {"format", "format_version"}):
            yield _edited(doc, section, lambda d: d.pop(key)), f"{where}: missing key {key!r}"
        yield (_edited(doc, section, lambda d: d.__setitem__("bogus", 1)),
               f"{where}: unknown key 'bogus'")
        for key, values in _TOP_LEVEL_TYPE_MUTATIONS[section].items():
            for value in values:
                yield (_edited(doc, section, lambda d: d.__setitem__(key, value)),
                       f"{where}: {key} must be")
    # well typed but out of range: TrainConfig's own check, under the section name
    yield _edited(doc, "config", lambda d: d.__setitem__("eta", 0.0)), "model config: eta must be"
    for section, key in ((None, "base_score"), ("config", "lam"), ("bin_map", "centroids")):
        mutant = _edited(doc, section, lambda d: d.__setitem__(_TWIN, d[key]))
        yield _twin_text(mutant, key), f"{_SECTION_NAMES[section]}: duplicate key {key!r}"


def test_one_field_mutations_fail_at_load(rng, tmp_path):
    path = tmp_path / "m.json"
    n_mutants = 0
    for _ in range(3):
        model, bins, config, matrix, _ = _trained(rng, n_trees=2, max_depth=3, gamma=0.0)
        save_model(model, bins, config, str(path))
        doc = json.loads(path.read_text())
        assert any(not n["is_leaf"] for tree in doc["trees"] for n in tree[0].values())
        mutants = [*_one_field_mutants(doc, bins.n_features), *_top_level_mutants(doc)]
        for mutant, where in mutants:
            path.write_text(mutant if isinstance(mutant, str) else json.dumps(mutant, sort_keys=True))
            with pytest.raises(ValueError) as err:
                load_model(str(path))
            assert str(err.value).startswith(where), (where, str(err.value))
            n_mutants += 1
    assert n_mutants > 100


def test_log_key_mutations_fail_at_load(rng, tmp_path):
    _, _, _, _, log = _trained(rng, n_trees=2, max_depth=2)
    path = tmp_path / "log.json"
    save_training_log(log, str(path))
    doc = json.loads(path.read_text())
    places = {"log": lambda d: d, "log config": lambda d: d["config"],
              "log tree 1": lambda d: d["trees"][1],
              "log tree 1, depth 0": lambda d: d["trees"][1]["depths"][0]}
    wrong = {"n_samples": 1.0, "config": [], "trees": {}, "n_engines": None, "lam": "1",
             "n_leaves": "2", "train_loss": None, "depths": 0,
             "trained_sizes": [1.5], "split_sizes": "1"}
    negative = {"n_samples": -10, "n_features": -1, "n_subsampled": -1, "n_leaves": -2,
                "trained_sizes": [-1000], "split_sizes": [4, -1]}
    deleted = object()
    cases = []                      # (place, key, new value or deleted, expected error start)
    for where, target in places.items():
        for key in sorted(set(target(doc)) - {"format", "format_version"}):
            cases.append((where, key, deleted, f"{where}: missing key {key!r}"))
            if key in wrong:
                cases.append((where, key, wrong[key], f"{where}: {key} must be"))
            if key in negative:
                cases.append((where, key, negative[key], f"{where}: {key} must be"))
        cases.append((where, "bogus", 0, f"{where}: unknown key 'bogus'"))
    # well typed, but a count that contradicts the counts it is part of
    n_subsampled, trained = doc["trees"][1]["n_subsampled"], places["log tree 1, depth 0"](doc)
    n_leaves = doc["trees"][1]["n_leaves"]
    cases += [
        ("log tree 1", "n_subsampled", doc["n_samples"] + 1,
         f"log tree 1: n_subsampled {doc['n_samples'] + 1} is more than n_samples"),
        ("log tree 1, depth 0", "trained_sizes", [n_subsampled, 1],
         f"log tree 1, depth 0: trained_sizes must be [{n_subsampled}], the root over all "
         f"n_subsampled rows, got [{n_subsampled}, 1] (rule 1)"),
        ("log tree 1, depth 0", "split_sizes", trained["trained_sizes"] + [0],
         f"log tree 1, depth 0: split_sizes [{n_subsampled}, 0] must be an in-order "
         f"subsequence of trained_sizes [{n_subsampled}], each at least 2 (rule 2)"),
        ("log tree 1, depth 0", "split_sizes", [sum(trained["trained_sizes"]) + 1],
         f"log tree 1, depth 0: split_sizes [{n_subsampled + 1}] must be"),
        ("log tree 1", "n_leaves", 10**6,
         f"log tree 1: n_leaves must be {n_leaves}, the unsplit nodes and two below each split "
         f"at depth max_depth - 1, got 1000000 (rule 5)"),
        ("log tree 1", "n_leaves", n_leaves - 1, f"log tree 1: n_leaves must be {n_leaves}, "),
        ("log", "trees", doc["trees"] * 50, "log: len(trees) is 100, but n_trees is 2"),
        ("log", "trees", doc["trees"][:1], "log: len(trees) is 1, but n_trees is 2"),
        ("log config", "n_trees", 3, "log: len(trees) is 2, but n_trees is 3"),
    ]
    assert len(cases) > 25
    for where, key, value, expected in cases:
        mutant = json.loads(json.dumps(doc))
        if value is deleted:
            del places[where](mutant)[key]
        else:
            places[where](mutant)[key] = value
        path.write_text(json.dumps(mutant, sort_keys=True))
        with pytest.raises(ValueError) as err:
            load_training_log(str(path))
        assert str(err.value).startswith(expected), (expected, str(err.value))
    # depths that break a rule of the trainer's: no depth, or a depth 0 that is
    # not one root over the whole sample (rule 1); splits that are not trained
    # nodes, in order, of at least 2 rows (rule 2); a depth that is not two
    # positive children per split above, in split order, summing to it (rule
    # 3); a depth below one that splits nothing or is depth max_depth - 1, or
    # none below the splits above it (rule 4)
    n = n_subsampled
    root_leaf = {"trained_sizes": [n], "split_sizes": []}
    root_split = {"trained_sizes": [n], "split_sizes": [n]}
    deep = [root_split] * 20
    half, quarter, big, small = n // 2, n // 4, n - 47, 47
    after_leaf = "log tree 1, depth 1: below the last depth, as depth 0 splits nothing or max_depth"
    depth_cases = [
        ({}, [], "log tree 1: no depths, but every tree trains its root (rule 1)"),
        ({}, [{"trained_sizes": [half, half], "split_sizes": [half, half]},
              {"trained_sizes": [quarter] * 4, "split_sizes": []}],
         f"log tree 1, depth 0: trained_sizes must be [{n}], the root over all n_subsampled "
         f"rows, got [{half}, {half}] (rule 1)"),
        ({}, [{"trained_sizes": [n - 1], "split_sizes": []}],
         f"log tree 1, depth 0: trained_sizes must be [{n}]"),
        ({}, [root_leaf] + deep, f"{after_leaf} is 2 (rule 4)"),
        ({}, deep[:2] + [root_leaf],
         f"log tree 1, depth 1: trained_sizes [{n}] must be two positive children of each "
         f"split above, [{n}], summing to it (rule 3)"),
        ({"max_depth": 21}, [root_leaf] + deep, f"{after_leaf} is 21 (rule 4)"),
        ({}, [root_split, {"trained_sizes": [n, 0, 0], "split_sizes": []}],
         f"log tree 1, depth 1: trained_sizes [{n}, 0, 0] must be two positive children"),
        ({}, [root_split, {"trained_sizes": [0, n], "split_sizes": []}],
         f"log tree 1, depth 1: trained_sizes [0, {n}] must be two positive children"),
        ({}, [root_split, {"trained_sizes": [n - 1, 1, 1], "split_sizes": []}],
         f"log tree 1, depth 1: trained_sizes [{n - 1}, 1, 1] must be two positive children"),
        ({}, [{"trained_sizes": [n], "split_sizes": [n - 1]},
              {"trained_sizes": [n - 1, 1], "split_sizes": []}],
         f"log tree 1, depth 0: split_sizes [{n - 1}] must be an in-order subsequence"),
        # one child under the root split, and no depth below it
        ({}, [root_split, root_leaf], f"log tree 1, depth 1: trained_sizes [{n}] must be two"),
        ({}, [root_split],
         f"log tree 1, depth 1: missing, but depth 0 splits [{n}] and max_depth is 2 (rule 4)"),
        ({}, [root_split, {"trained_sizes": [big, small], "split_sizes": [small, big]},
              {"trained_sizes": [small - 1, 1, big - 1, 1], "split_sizes": []}],
         f"log tree 1, depth 1: split_sizes [{small}, {big}] must be an in-order subsequence"),
        ({}, [root_split, {"trained_sizes": [n - 1, 1], "split_sizes": [1]}],
         f"log tree 1, depth 1: split_sizes [1] must be an in-order subsequence of "
         f"trained_sizes [{n - 1}, 1], each at least 2 (rule 2)"),
        ({}, [root_split, {"trained_sizes": [n - 2, 1], "split_sizes": []}],
         f"log tree 1, depth 1: trained_sizes [{n - 2}, 1] must be two positive children"),
        ({}, [root_split, {"trained_sizes": [n - 2, 2], "split_sizes": [2]},
              {"trained_sizes": [1, 1], "split_sizes": []}],
         "log tree 1, depth 2: below the last depth, as depth 1 splits nothing or max_depth "
         "is 2 (rule 4)"),
        ({"max_depth": 3}, [root_split, {"trained_sizes": [big, small], "split_sizes": [big, small]},
                            {"trained_sizes": [small - 1, 1, big - 1, 1], "split_sizes": []}],
         f"log tree 1, depth 2: trained_sizes [{small - 1}, 1, {big - 1}, 1] must be two "
         f"positive children of each split above, [{big}, {small}], summing to it (rule 3)"),
    ]
    for config, depths, expected in depth_cases:
        mutant = json.loads(json.dumps(doc))
        mutant["config"].update(config)
        tree_0 = mutant["trees"][0]         # a root leaf, a tree at any max_depth
        tree_0.update(n_leaves=1, depths=[{"trained_sizes": [tree_0["n_subsampled"]],
                                           "split_sizes": []}])
        mutant["trees"][1]["depths"] = depths
        path.write_text(json.dumps(mutant))
        with pytest.raises(ValueError) as err:
            load_training_log(str(path))
        assert str(err.value).startswith(expected), (expected, str(err.value))
    # a key spelled twice in one object, anywhere in the file
    for where, target in places.items():
        key = min(set(target(doc)) - {"format", "format_version"})
        mutant = json.loads(json.dumps(doc))
        target(mutant)[_TWIN] = target(mutant)[key]
        path.write_text(_twin_text(mutant, key))
        with pytest.raises(ValueError, match=f"^{where}: duplicate key {key!r}$"):
            load_training_log(str(path))
    # the edges themselves load: every row sampled, all of them split, and
    # the most lopsided split, its one-row child a leaf, its other one a leaf
    # or split at the last depth into two leaves
    edge = json.loads(json.dumps(doc))
    edge["n_samples"] = max(t["n_subsampled"] for t in doc["trees"])
    depth = places["log tree 1, depth 0"](edge)
    depth["split_sizes"] = list(depth["trained_sizes"])
    path.write_text(json.dumps(edge))
    assert load_training_log(str(path)).trees[1].depths[0].split_sizes == depth["trained_sizes"]
    for split, leaves in (([], 2), ([n - 1], 3)):
        edge["trees"][1].update(n_leaves=leaves, depths=[
            root_split, {"trained_sizes": [n - 1, 1], "split_sizes": split}])
        path.write_text(json.dumps(edge))
        assert load_training_log(str(path)).trees[1].depths[1].split_sizes == split
    # a tree whose subsample drew no row still trains its empty root
    edge["trees"][1].update(n_subsampled=0, n_leaves=1,
                            depths=[{"trained_sizes": [0], "split_sizes": []}])
    path.write_text(json.dumps(edge))
    assert load_training_log(str(path)).trees[1].depths[0].trained_sizes == [0]


def _list_changes(sizes: tuple, values) -> set:
    """Every list one entry away from sizes: one entry +1 or -1, removed,
    or moved, or one of values added anywhere; and one row moved from an
    entry to its neighbour, which keeps the sum."""
    changed = set()
    for i, size in enumerate(sizes):
        rest = sizes[:i] + sizes[i + 1:]
        changed |= {sizes[:i] + (size + step,) + sizes[i + 1:] for step in (-1, 1)}
        changed |= {rest[:j] + (size,) + rest[j:] for j in range(len(sizes))}
        changed |= {sizes[:i] + (size + step, sizes[i + 1] - step) + sizes[i + 2:]
                    for step in (-1, 1) if i + 1 < len(sizes)}
    return changed | {sizes[:i] + (v,) + sizes[i:] for i in range(len(sizes) + 1) for v in values}


def _log_changes(n_subsampled: int, depths: tuple, n_leaves: int) -> set:
    """(n_subsampled, depths, n_leaves) of every log tree one entry away from
    the one given, depths as ref_logs gives them: n_subsampled or n_leaves
    +1 or -1, one list of one depth changed by _list_changes (adding 1 or
    a size the depth trains), a depth dropped, or one added anywhere: an
    empty one, a copy of a neighbour, or leaves below the last depth's splits."""
    changed = {(n_subsampled + step, depths, n_leaves) for step in (-1, 1)}
    changed |= {(n_subsampled, depths, n_leaves + step) for step in (-1, 1)}
    for k, (trained, split) in enumerate(depths):
        values, before, after = set(trained) | {1}, depths[:k], depths[k + 1:]
        changed |= {(n_subsampled, before + ((t, split),) + after, n_leaves)
                    for t in _list_changes(trained, values)}
        changed |= {(n_subsampled, before + ((trained, s),) + after, n_leaves)
                    for s in _list_changes(split, values)}
        changed.add((n_subsampled, before + after, n_leaves))
    below = (tuple(c for s in depths[-1][1] for c in (s - 1, 1)), ())
    for k in range(len(depths) + 1):
        for added in ((), ()), depths[max(k - 1, 0)], below:
            changed.add((n_subsampled, depths[:k] + (added,) + depths[k:], n_leaves))
    return changed


def test_one_entry_changes_load_only_as_the_log_of_a_tree(tmp_path):
    """A log tree one entry away from the log of a tree over n <= 6 rows
    loads if and only if it is the log of some tree, by brute force over
    every tree shape (ref_logs); a refusal names the tree."""
    n_samples, n_loaded, n_changed = 7, 0, 0
    for max_depth in (1, 2, 3):
        logs = {n: set(ref_logs(n, max_depth)) for n in range(n_samples + 1)}
        changed = set().union(*(_log_changes(n, depths, n_leaves) for n in range(7)
                                for depths, n_leaves in logs[n]))
        config = dataclasses.asdict(TrainConfig(max_depth=max_depth, n_trees=1))
        for i, (n, depths, n_leaves) in enumerate(sorted(changed)):
            path = tmp_path / f"{max_depth}-{i}.json"
            path.write_bytes(json.dumps({
                "format": "fpboost-log", "format_version": 1, "n_samples": n_samples,
                "n_features": 1, "config": config,
                "trees": [{"n_subsampled": n, "n_leaves": n_leaves, "train_loss": 0.5,
                           "depths": [{"trained_sizes": list(t), "split_sizes": list(s)}
                                      for t, s in depths]}]}).encode())
            is_log = (depths, n_leaves) in logs.get(n, ())
            try:
                load_training_log(str(path))
            except ValueError as err:
                assert not is_log and str(err).startswith("log tree 0"), (path.name, str(err))
                continue
            assert is_log, (n, depths, n_leaves)
            n_loaded += 1
        n_changed += len(changed)
    assert n_changed > 8000 and n_loaded > 100


_FUZZ_VALUES = (None, "x", [], {}, True, 0.5, -1, 2**64, -2**63, 2**53 + 1, math.nan, 10**400)


def _value_paths(doc, prefix=()):
    """The key path of every value inside a JSON document, the document's own first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _value_paths(value, prefix + (key,))


def _exact_float(token: str):
    """A JSON integer as the float that holds it exactly, else as the integer."""
    value = int(token)
    return float(value) if abs(value) <= sys.float_info.max and float(value) == value else value


def _numbers_as_floats(text: str) -> str:
    """A JSON text with every integer that a float holds exactly spelled as
    a float: a loader may read such an integer where the file holds a float
    and save it back as one, but it may not round one."""
    return json.dumps(json.loads(text, parse_int=_exact_float), sort_keys=True)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A depth-3, 3-tree model and its training log: for each, the saved
    text, its value paths, its loader and a saver of what the loader gives."""
    model, bins, config, _, log = _trained(np.random.default_rng(5), n_trees=3,
                                           max_depth=3, subsample=1.0)
    folder = tmp_path_factory.mktemp("fuzz")
    save_model(model, bins, config, str(folder / "model.json"))
    save_training_log(log, str(folder / "log.json"))
    files = {}
    for kind, load, save in (
            ("model", load_model, lambda b, path: save_model(b.model, b.bin_map, b.config, path)),
            ("log", load_training_log, save_training_log)):
        text = (folder / f"{kind}.json").read_text()
        files[kind] = (text, list(_value_paths(json.loads(text))), load, save)
    return folder, files


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_files_load_alike_or_raise_one_value_error(saved_files, data):
    """A saved model or log with one value dropped or retyped, or its text
    cut short, either loads and saves back the same document or raises one
    single-line ValueError; no KeyError, TypeError or IndexError escapes.
    "The same" allows an integer where the file held a float to come back
    spelled as a float.  The only cut that loads drops the final newline."""
    folder, files = saved_files
    kind = data.draw(st.sampled_from(sorted(files)), label="kind")
    text, paths, load, save = files[kind]
    how = data.draw(st.sampled_from(["drop", "retype", "cut"]), label="how")
    if how == "cut":
        body, want = text[:data.draw(st.integers(0, len(text) - 1), label="length")], text
    else:
        doc = json.loads(text)
        path = data.draw(st.sampled_from(paths[1:] if how == "drop" else paths), label="path")
        value = _DELETED if how == "drop" else data.draw(st.sampled_from(_FUZZ_VALUES),
                                                         label="value")
        if not path:
            doc = value
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        body = want = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    mutant, resaved = folder / f"{kind}_mutant.json", folder / f"{kind}_resaved.json"
    mutant.write_text(body)
    try:
        loaded = load(str(mutant))
    except ValueError as err:
        assert "\n" not in str(err)
        return
    save(loaded, str(resaved))
    assert _numbers_as_floats(resaved.read_text()) == _numbers_as_floats(want)
