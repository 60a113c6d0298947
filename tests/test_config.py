import math
import re
import resource
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

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

from helpers import FLOAT_RANGES, OTHER_KEYS, child_env

ROOT = Path(__file__).resolve().parent.parent


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
    # the file is decoded as UTF-8 while it is read, so a bad byte is a read error
    path = tmp_path / "run.conf"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(path)
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "evolve"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: parse-error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data,message",
    [
        # the wrong count ended invalid-argument (exit 1) in potential_from_samples
        (b"0.3\n0.1\n", "potential file {} holds 2 samples, need grid.n_sites = 8"),
        (b"0.1\n" * 9, "potential file {} holds 9 samples, need grid.n_sites = 8"),
        # a bad byte read as "holds non-numeric lines": UnicodeDecodeError is a ValueError
        (b"0.3\n\xff\n", "cannot read potential samples {}: 'utf-8' codec can't decode byte 0xff"
                          " in position 4: invalid start byte"),
    ],
    ids=["short", "long", "undecodable"],
)
def test_potential_file_faults_are_parse_errors(tmp_path, capsys, data, message):
    samples = tmp_path / "phi.txt"
    samples.write_bytes(data)
    conf = tmp_path / "run.conf"
    conf.write_text("potential.kind = file\npotential.path = %s\n" % samples, encoding="utf-8")
    assert main(["--config", str(conf), "--out", str(tmp_path / "o"), "evolve"]) == 5
    assert capsys.readouterr().err == "error: parse-error: %s\n" % message.format(samples)


def test_config_is_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale without Python's UTF-8 mode must still read a UTF-8 comment
    path = tmp_path / "run.conf"
    path.write_bytes("# rho\u2080 (\u03c1)\ngrid.n_sites = 7\n".encode("utf-8"))
    code = "import sys, glauberlab.config as c; print(c.parse_config(sys.argv[1]).n_sites)"
    out = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", code, str(path)],
        env=child_env(LC_ALL="C"),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "7\n", "")


def test_readme_table_lists_every_key_with_its_default():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Configuration"):text.index("### Outputs")]
    rows = re.findall(r"^\| `([^`]+)` \| ?([^|]*?) ?\| ?([^|]*?) ?\|", section, re.M)
    assert rows == [
        (f.metadata["key"], "model.z" if f.name == "initial_level" else str(f.default),
         f.metadata["rule"][0] if f.metadata["rule"] else "")
        for f in fields(ExperimentConfig)
    ]


def test_default_conf_states_the_defaults():
    path = ROOT / "configs" / "default.conf"
    assert parse_config(path) == ExperimentConfig()
    lines = (line.split("#", 1)[0] for line in path.read_text(encoding="utf-8").splitlines())
    keys = {line.split("=", 1)[0].strip() for line in lines if line.strip()}
    # neither has a value that can be written: the path is empty, the level tracks model.z
    assert keys == set(_KEYS) - {"potential.path", "initial.level"}


def test_float_ranges_cover_every_float_key():
    assert set(FLOAT_RANGES) == {k for k, spec in _KEYS.items() if spec.type is float}
    # the CLI fuzz draws every key but the potential file's path
    drawn = set(FLOAT_RANGES) | set(OTHER_KEYS) | {
        "grid.n_sites", "truncation.n_max", "potential.kind"
    }
    assert drawn == set(_KEYS) - {"potential.path"}


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
    assert cfg == replace(ExperimentConfig(), **{_KEYS[key].name: value})


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


# Every value rule of the config, at its boundary: (text that parses, text
# just past the boundary, the exact message).  The table states the rules
# itself, so a change to a rule's wording or its edge fails here.
RULES = [
    ("grid.n_sites = 2", "grid.n_sites = 1", "grid.n_sites must be >= 2"),
    ("grid.length = 5e-324", "grid.length = 0.0", "grid.length must be positive"),
    ("potential.kind = zero", "potential.kind = box",
     "potential.kind must be one of ('zero', 'gaussian', 'tophat', 'file')"),
    ("potential.kind = tophat", "potential.kind = Tophat",
     "potential.kind must be one of ('zero', 'gaussian', 'tophat', 'file')"),
    ("potential.amplitude = -0.0", "potential.amplitude = -5e-324",
     "potential.amplitude must be non-negative"),
    ("potential.width = 5e-324", "potential.width = 0.0", "potential.width must be positive"),
    ("model.z = 5e-324", "model.z = 0.0", "model.z must be positive"),
    ("model.epsilon = 0.0", "model.epsilon = -5e-324", "model.epsilon must be non-negative"),
    ("truncation.n_max = 0", "truncation.n_max = -1", "truncation.n_max must be non-negative"),
    ("solver.m_max = 1", "solver.m_max = 0", "solver.m_max must be >= 1"),
    ("solver.tol = 5e-324", "solver.tol = 0.0", "solver.tol must be positive"),
    ("time.t_final = 0.0", "time.t_final = -5e-324", "time.t_final must be non-negative"),
    ("time.substep_fraction = 5e-324", "time.substep_fraction = 0.0",
     "time.substep_fraction must lie in (0, 1)"),
    ("time.substep_fraction = 0.9999999999999999", "time.substep_fraction = 1.0",
     "time.substep_fraction must lie in (0, 1)"),
    ("vlasov.dt = 5e-324", "vlasov.dt = 0.0", "vlasov.dt must be positive"),
    ("vlasov.scheme = euler", "vlasov.scheme = rk2", "vlasov.scheme must be rk4 or euler"),
    ("vlasov.scheme = rk4", "vlasov.scheme = RK4", "vlasov.scheme must be rk4 or euler"),
    ("vlasov.sample_stride = 1", "vlasov.sample_stride = 0", "vlasov.sample_stride must be >= 1"),
    ("initial.level = 0.0", "initial.level = -5e-324", "initial.level must be non-negative"),
    ("initial.cosine_amplitude = 0.0", "initial.cosine_amplitude = -5e-324",
     "initial.cosine_amplitude must be non-negative"),
    ("rng.seed = 0", "rng.seed = -1", "rng.seed must be non-negative"),
    # the two rules that span two keys
    ("solver.alpha = 5e-324", "solver.alpha = 0.0", "need 0 < solver.alpha < solver.alpha0"),
    ("solver.alpha = 0.9999999999999999", "solver.alpha = 1.0",
     "need 0 < solver.alpha < solver.alpha0"),
    ("solver.alpha0 = 0.5000000000000001", "solver.alpha0 = 0.5",
     "need 0 < solver.alpha < solver.alpha0"),
    ("potential.kind = file\npotential.path = phi.txt", "potential.kind = file\npotential.path =",
     "potential.kind = file requires potential.path"),
]

# configs that break two rules; each names the one reported first
BROKEN_TWICE = [
    ("grid.n_sites = 1\nrng.seed = -1", "grid.n_sites must be >= 2"),
    ("solver.alpha = 2.0\ngrid.n_sites = 1", "grid.n_sites must be >= 2"),
    ("potential.kind = file\nsolver.alpha = 0.0", "need 0 < solver.alpha < solver.alpha0"),
]


@pytest.mark.parametrize("allowed,broken,message", RULES, ids=[r[1] for r in RULES])
def test_each_rule_holds_at_its_boundary(tmp_path, capsys, allowed, broken, message):
    parse_config(write(tmp_path, allowed + "\n"))
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, broken + "\n"))
    assert (err.value.code, str(err.value)) == ("parse-error", message)
    path = write(tmp_path, broken + "\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "evolve"]) == 5
    assert capsys.readouterr().err == "error: parse-error: %s\n" % message


@pytest.mark.parametrize("text,message", BROKEN_TWICE)
def test_the_first_broken_rule_is_reported(tmp_path, text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text + "\n"))
    assert str(err.value) == message


# the most characters read from one config or potential sample file
CAP = 2**20
SAMPLES = "0.3\n0.1\n0.0\n0.0\n0.0\n0.0\n0.0\n0.1\n"  # the default grid's 8 sites


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("what", ["config", "potential"])
def test_an_endless_line_is_a_parse_error_in_bounded_memory(tmp_path, what):
    # one line of /dev/zero never ends; reading it whole ran out of memory
    conf = tmp_path / "run.conf"
    conf.write_text("potential.kind = file\npotential.path = /dev/zero\n")
    out = subprocess.run(
        [sys.executable, "-m", "glauberlab",
         "--config", "/dev/zero" if what == "config" else str(conf),
         "--out", str(tmp_path / "o"), "evolve"],
        env=child_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (out.returncode, out.stdout, out.stderr) == (
        5, "", "error: parse-error: %s file /dev/zero exceeds %d characters\n" % (what, CAP)
    )


def test_config_is_read_up_to_the_cap_in_characters(tmp_path, capsys):
    text = "# " + "\u00e9" * (CAP - 3) + "\n"  # two bytes per character
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    assert parse_config(path) == ExperimentConfig()
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == "config file %s exceeds %d characters" % (path, CAP)
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "evolve"]) == 5
    assert capsys.readouterr().err == "error: parse-error: %s\n" % err.value


def test_potential_samples_are_read_up_to_the_cap(tmp_path):
    path = tmp_path / "phi.txt"
    cfg = replace(ExperimentConfig(), potential_kind="file", potential_path=str(path))
    path.write_text(SAMPLES + "\n" * (CAP - len(SAMPLES)))
    pot = build_potential(cfg, build_grid(cfg))
    assert list(pot.values_by_displacement) == [0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1]
    path.write_text(SAMPLES + "\n" * (CAP + 1 - len(SAMPLES)))
    with pytest.raises(ConfigError) as err:
        build_potential(cfg, build_grid(cfg))
    assert str(err.value) == "potential file %s exceeds %d characters" % (path, CAP)


def test_config_lines_split_on_newlines_only(tmp_path):
    # str.splitlines() would also end a line at a form feed or U+2028
    path = tmp_path / "run.conf"
    path.write_text("model.z = 0.25  # a\fgrid.n_sites = 1 \u2028grid.n_sites = 1\r\n"
                    "model.epsilon = 0\r", encoding="utf-8", newline="")
    cfg = parse_config(path)
    assert (cfg.z, cfg.n_sites, cfg.epsilon) == (0.25, 8, 0.0)
