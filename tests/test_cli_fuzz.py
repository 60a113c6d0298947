"""The CLI contract under drawn configs: a clean result or one coded error line.

Every input the config parser and the CLI accept must either run to exit 0
with nothing on stderr, or fail fast with exactly one documented
`error: <code>: ...` line and that code's exit status.  A verify-bounds run
that exits 0 must report no violation: the estimates it samples are
theorems.  A raw exception, a numpy warning (warnings are errors here) or an
example that runs past its time limit fails the property.
"""

import contextlib
import io
import signal
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from glauberlab import errors
from glauberlab.cli import EXIT_CODES, main

from helpers import FLOAT_RANGES

EXTREMES = (0.0, 5e-324, 1e-310, 1e-300, 1e300, sys.float_info.max)
CODES = {
    cls.code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.GlauberLabError)
} - {"error"}
COMMANDS = (
    ["evolve", "--mode", "auto"],
    ["evolve", "--mode", "local"],
    ["evolve", "--mode", "global"],
    ["vlasov"],
    ["scaling-study"],
    ["chaos-check"],
    ["verify-bounds", "--cases", "3"],
)
SIZE_LIMIT = 2000  # largest n_sites ** n_max drawn, apart from OVER_SITE_LIMIT
# Site counts past the 3162-site limit: just over it, and 10^18 (6.9 EiB of
# doubles), which no 64-bit machine can allocate.  Draw none in between: it
# could really be allocated.
OVER_SITE_LIMIT = (3163, 10**18)
TIME_LIMIT_S = 20.0


# the int keys, each in range and at one value far past it, and the other scheme
OTHER_KEYS = {
    "solver.m_max": st.integers(1, 80),
    "vlasov.sample_stride": st.one_of(st.integers(1, 50), st.just(10**9)),
    "rng.seed": st.one_of(st.integers(0, 2**32), st.just(2**64)),
    "vlasov.scheme": st.sampled_from(["rk4", "euler"]),
}


def float_value(key):
    low, high, exclude_low, exclude_high = FLOAT_RANGES[key]
    in_range = st.floats(low, high, allow_nan=False, allow_infinity=False,
                         exclude_min=exclude_low, exclude_max=exclude_high)
    return st.one_of(st.sampled_from(EXTREMES), in_range)


@st.composite
def small_config(draw):
    """Config text: small sizes, up to four float keys, any of OTHER_KEYS and a potential."""
    n_max = draw(st.integers(0, 4))
    n_sites = draw(st.one_of(
        st.integers(2, 64 if n_max == 0 else min(64, int(SIZE_LIMIT ** (1 / n_max)))),
        st.sampled_from(OVER_SITE_LIMIT),
    ))
    lines = ["grid.n_sites = %d" % n_sites, "truncation.n_max = %d" % n_max]
    for key in draw(st.lists(st.sampled_from(sorted(FLOAT_RANGES)), max_size=4, unique=True)):
        lines.append("%s = %r" % (key, draw(float_value(key))))
    for key in draw(st.lists(st.sampled_from(sorted(OTHER_KEYS)), unique=True)):
        lines.append("%s = %s" % (key, draw(OTHER_KEYS[key])))
    lines.append("potential.kind = %s" % draw(st.sampled_from(["zero", "gaussian", "tophat"])))
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread once `seconds` have passed: a hang fails."""
    def expire(signum, frame):
        raise TimeoutError("example ran past %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(config_text, command):
    """(status, stdout, stderr) of main() on the config, in process, warnings as errors."""
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "run.conf"
        conf.write_text(config_text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), time_limit(TIME_LIMIT_S):
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(["--config", str(conf), "--out", str(Path(tmp) / "o")] + command)
        return status, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_text=small_config(), command=st.sampled_from(COMMANDS))
# the potential was built before any N^2 check: a raw _ArrayMemoryError
@example(config_text="grid.n_sites = %d\ntruncation.n_max = 1\n" % 10**18, command=["vlasov"])
def test_cli_ends_clean_or_with_one_coded_error(config_text, command):
    status, out, err = run_cli(config_text, command)
    if status == 0:
        assert err == ""
        assert out.startswith(command[0] + ":") and out.count("\n") == 1
        if command[0] == "verify-bounds":
            assert out == "verify-bounds: violations=0\n"
        return
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    prefix, code, message = err.split(": ", 2)
    assert prefix == "error" and code in CODES and message.strip()
    assert status == EXIT_CODES.get(code, 1)
