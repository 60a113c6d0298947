import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glauberlab as gl
from glauberlab.cli import main
from glauberlab.config import (
    _KEYS,
    ExperimentConfig,
    build_grid,
    build_initial_density,
    build_potential,
    build_scale_params,
    kind_from_epsilon,
    parse_config,
)
from glauberlab.errors import ConfigError

from helpers import FLOAT_RANGES


def write(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text)
    return path


def test_empty_file_gives_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg == ExperimentConfig()


def test_simple_assignment(tmp_path):
    cfg = parse_config(write(tmp_path, "model.z = 1.5\n"))
    assert cfg.z == 1.5


def test_comments_and_blank_lines(tmp_path):
    text = "# header comment\n\nmodel.z = 0.25  # trailing comment\n\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.z == 0.25


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "model.z = 1.0\nmodel.zz = 1\n"))
    assert "model.zz" in str(err.value)
    assert "line 2" in str(err.value)


def test_bad_value_carries_line_number(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "\ngrid.n_sites = eight\n"))
    assert "line 2" in str(err.value)


def test_missing_equals_sign(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "model.z 1.0\n"))
    assert "line 1" in str(err.value)


def test_invariant_violations_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "solver.alpha = 2.0\n"))  # alpha >= alpha0
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "grid.n_sites = 1\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "potential.kind = box\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "potential.kind = file\n"))  # path missing
    with pytest.raises(ConfigError):  # a whole-radius substep fails solve_local's guard
        parse_config(write(tmp_path, "time.substep_fraction = 1.0\n"))
    with pytest.raises(ConfigError):  # numpy's default_rng refuses it
        parse_config(write(tmp_path, "rng.seed = -1\n"))


def test_builders():
    cfg = ExperimentConfig()
    grid = build_grid(cfg)
    assert grid.n_sites == 8 and grid.spacing == 1.0
    pot = build_potential(cfg, grid)
    assert pot.norm_linf == 0.5
    params = build_scale_params(cfg)
    assert params.alpha == 0.5 and params.z == 0.5

    rho = build_initial_density(cfg, grid)
    assert np.allclose(rho.values, cfg.z, rtol=0, atol=0)  # level defaults to z

    wobbly = replace(cfg, initial_level=0.4, initial_cosine_amplitude=0.1)
    rho_w = build_initial_density(wobbly, grid)
    positions = np.arange(8) * grid.spacing
    expected = 0.4 + 0.1 * np.cos(2 * math.pi * positions / 8.0)
    assert np.allclose(rho_w.values, expected, rtol=1e-15)

    sinks = replace(cfg, initial_level=0.05, initial_cosine_amplitude=0.2)
    with pytest.raises(ConfigError):
        build_initial_density(sinks, grid)


def test_potential_kinds(tmp_path):
    cfg = ExperimentConfig()
    grid = build_grid(cfg)
    assert build_potential(replace(cfg, potential_kind="zero"), grid).norm_l1 == 0.0

    hat = build_potential(
        replace(cfg, potential_kind="tophat", potential_width=1.5), grid
    )
    assert hat.values_by_displacement[0] == 0.5
    assert hat.values_by_displacement[1] == 0.5
    assert hat.values_by_displacement[2] == 0.0

    sample_path = tmp_path / "phi.txt"
    values = [0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1]
    sample_path.write_text("\n".join(str(v) for v in values) + "\n")
    from_file = build_potential(
        replace(cfg, potential_kind="file", potential_path=str(sample_path)), grid
    )
    assert np.allclose(from_file.values_by_displacement, values, rtol=0, atol=0)


def test_kind_from_epsilon():
    assert kind_from_epsilon(0.0) == gl.VLASOV_LIMIT
    assert kind_from_epsilon(1.0) == gl.GLAUBER
    assert kind_from_epsilon(0.25) == 0.25


def test_missing_files_surface_as_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.conf")
    cfg = replace(
        ExperimentConfig(),
        potential_kind="file",
        potential_path=str(tmp_path / "absent_phi.txt"),
    )
    with pytest.raises(ConfigError):
        build_potential(cfg, build_grid(cfg))


@pytest.mark.parametrize(
    "data",
    [
        b"grid.n_sites = 8\n\xff\xfe = 1\n",  # bytes that start no character
        b"# caf\xe9\ngrid.n_sites = 8\n",  # in a comment, which is otherwise ignored
        b"grid.n_sites = 8\n\xe2\x82",  # a character cut off at the end of the file
    ],
    ids=["key", "comment", "truncated"],
)
def test_undecodable_config_bytes_are_a_parse_error(tmp_path, capsys, data):
    # the locale decodes the file while it is read, so a bad byte is a read error
    path = tmp_path / "run.conf"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(path)
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "evolve"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: parse-error: ") and err.count("\n") == 1


def test_float_ranges_cover_every_float_key():
    assert set(FLOAT_RANGES) == {k for k, (_, typ) in _KEYS.items() if typ is float}


@st.composite
def finite_assignment(draw):
    key = draw(st.sampled_from(sorted(FLOAT_RANGES)))
    low, high, exclude_low, exclude_high = FLOAT_RANGES[key]
    value = draw(
        st.floats(low, high, allow_nan=False, allow_infinity=False,
                  exclude_min=exclude_low, exclude_max=exclude_high)
    )
    return key, value


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(assignment=finite_assignment())
def test_finite_float_values_round_trip(tmp_path, assignment):
    key, value = assignment
    cfg = parse_config(write(tmp_path, "%s = %r\n" % (key, value)))
    assert cfg == replace(ExperimentConfig(), **{_KEYS[key][0]: value})


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from(sorted(FLOAT_RANGES)),
    text=st.sampled_from(["inf", "-inf", "nan", "Infinity", "1e999", "-1e999"]),
)
def test_non_finite_float_values_are_parse_errors(tmp_path, key, text):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "\n%s = %s\n" % (key, text)))
    assert err.value.code == "parse-error"
    assert "line 2" in str(err.value)


def test_unset_initial_level_stays_nan(tmp_path):
    assert math.isnan(parse_config(write(tmp_path, "model.z = 0.5\n")).initial_level)
