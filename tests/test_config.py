import copy
import hashlib
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oamem.config import (_ACCEPTS, _SECTION_TYPES, ExperimentConfig, config_hash,
                          load_config, parse_config, serialize_config, sha256)
from oamem.errors import ConfigError

BASE = {
    "seed": 42,
    "experiment": "storage_decay",
    "output_dir": "out",
    "grid": {"n": 64, "extent": 3.2e-3},
    "qudit": {"dim": 3, "l": 1, "waist": 250e-6,
              "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
    "memory": {"lambda_s": 795e-9, "alpha": 0.0},
    "storage_times": [0.0, 1e-4],
    "counting": {"pulses": 1000, "poisson": True},
}


def test_round_trip_identity():
    cfg = parse_config(BASE)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_through_file(tmp_path):
    cfg = parse_config(BASE)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(serialize_config(cfg), sort_keys=True))
    assert load_config(path) == cfg


def test_serialized_noiseless_ideal_config_loads(tmp_path):
    # serializing writes out the defaults of the values a campaign ignores
    # (counting.pulses without Poisson counting, source.input_waist and
    # source.focal with an ideal source), and the file loads again
    cfg = parse_config({**BASE, "counting": {"poisson": False}})
    assert cfg.source.kind == "ideal"
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(serialize_config(cfg), sort_keys=True))
    assert load_config(path) == cfg


def test_hash_stable_and_sensitive():
    cfg = parse_config(BASE)
    assert config_hash(cfg) == config_hash(parse_config(BASE))
    other = parse_config({**BASE, "seed": 43})
    assert config_hash(other) != config_hash(cfg)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config({**BASE, "typo_section": {}})


def test_unknown_nested_key_rejected():
    bad = dict(BASE)
    bad["memory"] = {"lambda_s": 795e-9, "lambada": 1.0}
    with pytest.raises(ConfigError, match="unknown keys in 'memory'"):
        parse_config(bad)


def test_seed_mandatory():
    data = {k: v for k, v in BASE.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        parse_config(data)


def test_bad_experiment_kind():
    with pytest.raises(ConfigError):
        parse_config({**BASE, "experiment": "warp_drive"})


def test_qudit_needs_state():
    bad = dict(BASE)
    bad["qudit"] = {"dim": 2, "l": 2, "waist": 250e-6}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_qudit_coeff_length_checked():
    bad = dict(BASE)
    bad["qudit"] = {"dim": 2, "l": 2, "waist": 250e-6,
                    "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_bloch_angle_shorthand():
    cfg = parse_config({"seed": 1, "qudit": {"dim": 2, "l": 2, "waist": 250e-6,
                                             "gamma": np.pi / 2, "beta": 0.0}})
    state = cfg.qudit.to_state()
    assert np.allclose(state.coeffs, np.array([1.0, 1.0]) / np.sqrt(2))


def test_negative_storage_time_rejected():
    with pytest.raises(ConfigError):
        parse_config({**BASE, "storage_times": [-1.0]})


def test_grid_validation_propagates():
    bad = dict(BASE)
    bad["grid"] = {"n": 13, "extent": 1e-3}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_defaults_construct():
    cfg = ExperimentConfig(seed=5)
    assert cfg.efficiency.to_model()(10e-6) == pytest.approx(0.1074)
    assert cfg.qudit.to_state().dim == 2


# sets every key of memory, magnetic and photon, some as ints; the hashes
# were recorded when these sections still had config classes of their own
EVERY_PHYSICS_KEY = {
    **BASE,
    "memory": {"lambda_s": 795e-9, "lambda_c": 780e-9, "alpha": 0.03, "g2n": 10 ** 16,
               "omega_c": 40000000, "diameter": 2e-3, "temperature": 90e-6,
               "mass": 1.4099932e-25},
    "magnetic": {"trap_gradient": 0.1, "ambient_fraction": 0.05, "guiding_b": 2e-5,
                 "sensitivity": 44000000000, "second_order": 0, "center": [3e-4, 4e-4]},
    "photon": {"n_bar": 2, "uncertainty": 0.5},
}


@pytest.mark.parametrize("data", [b"", b"abc", np.random.default_rng(28).bytes(1 << 20)],
                         ids=["empty", "abc", "1MiB"])
def test_builtin_sha256_matches_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_builtin_sha256_abc_vector():
    # FIPS 180-2, appendix B.1
    assert sha256(b"abc").hexdigest() == \
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_hash_pinned_across_section_types():
    assert config_hash(parse_config(EVERY_PHYSICS_KEY)) == \
        "314e7cc422ae860903e3c6179abed31c824b1e5fa514b8d60aab0668f2457694"
    assert config_hash(parse_config({"seed": 5})) == \
        "f601da4b887c2ade81930031fd4732a5fbeef24fc3a37659a4a82d894069747b"


def test_every_field_type_is_checked():
    declared = {f.type for cls in _SECTION_TYPES.values() for f in fields(cls)}
    declared |= {f.type for f in fields(ExperimentConfig) if f.name not in _SECTION_TYPES}
    assert declared <= set(_ACCEPTS)


def test_photon_domain_error_is_config_error():
    with pytest.raises(ConfigError, match="photon"):
        parse_config({**BASE, "photon": {"n_bar": 1.0, "uncertainty": 2.0}})


_NUMBERS = (st.integers() | st.floats()
            | st.sampled_from([10 ** 400, -(10 ** 400), 0, 1, 16, 1000.0, 3.2e-3, 250e-6]))
# numbers three times over, so most drawn values get past the type checks
_LEAVES = (_NUMBERS | _NUMBERS | _NUMBERS | st.none() | st.booleans() | st.text(max_size=4)
           | st.sampled_from(["hologram", "tomography"]))
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
# every top-level key, and every key of every section
_PATHS = ([(f.name,) for f in fields(ExperimentConfig)]
          + [(name, f.name) for name, cls in _SECTION_TYPES.items() for f in fields(cls)])


@st.composite
def _mappings(draw):
    """BASE with one to three keys, or whole sections, set to drawn values."""
    data = copy.deepcopy(BASE)
    for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3)):
        value = draw(_VALUES)
        if len(path) == 1:
            data[path[0]] = value
        elif isinstance(data.setdefault(path[0], {}), dict):
            data[path[0]][path[1]] = value
    return data


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_mappings())
def test_any_mapping_parses_or_raises_config_error(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    assert parse_config(serialize_config(cfg)) == cfg
