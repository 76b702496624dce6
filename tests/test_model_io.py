import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpboost.boost_controller import Model, predict_raw, train
from fpboost.cost_model import CostParams, estimate
from fpboost.model_io import load_model, load_training_log, save_model, save_training_log
from fpboost.node_trainer import TrainConfig
from fpboost.quantizer import fit_bin_map, transform
from conftest import random_raw


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
            path.write_text(json.dumps(mutant, sort_keys=True))
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
    deleted = object()
    cases = []                      # (place, key, new value or deleted, expected error start)
    for where, target in places.items():
        for key in sorted(set(target(doc)) - {"format", "format_version"}):
            cases.append((where, key, deleted, f"{where}: missing key {key!r}"))
            if key in wrong:
                cases.append((where, key, wrong[key], f"{where}: {key} must be"))
        cases.append((where, "bogus", 0, f"{where}: unknown key 'bogus'"))
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
