"""Every valid config, run through the CLI, exits 0, 2 or 3, cleanly and reproducibly."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oamem import cli
from oamem.errors import GridTooSmall

# the one warning a run may print: polariton.write's diffraction warning
DIFFRACTION_WARNING = "diffraction phase q^2 D / k_s"
# the default signal wavelength, memory.lambda_s
WAVELENGTH = 795e-9


def _log_uniform(low: float, high: float):
    """Floats spread evenly in log10 between ``low`` and ``high``."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


@st.composite
def valid_configs(draw) -> dict:
    """A config mapping whose every value lies in its field's physical domain.

    Ranges (log-uniform where a scale is drawn between two bounds):

    - ``grid``: n in {16, 32, 64}, extent 1 to 10 mm;
    - ``qudit``: dim 2 or 3, l 1 to 3, waist 1/2000 to 1/6 of the extent;
      a qubit takes Bloch angles (gamma in [0, pi], beta in [0, 2 pi])
      or coefficients, a qutrit coefficients, each of modulus 0.05 to 1
      and any phase;
    - ``source``: ideal, or (one in three) a hologram with an input waist
      of 1/16 to 1/4 of the extent, behind a lens whose focal length puts
      0.02 to 8 focal-plane pitches (lambda f / extent) in the qudit waist;
    - ``memory``: temperature 1 uK to 1 K, alpha 0 to 1.5 rad;
    - ``decoherence``: each channel on or off;
    - ``magnetic``: sensitivity 0 or 1e8 to 1e14 rad/(s T), guiding field
      0 to 100 uT, quadrupole centre within 1 mm of the axis;
    - ``efficiency``: the default anchors, or eta0 0.01 to 1 and tau
      0.1 us to 1 s;
    - ``photon``: n_bar 0.01 to 300 (uniform), uncertainty 0 to 0.9 n_bar;
    - ``counting``: noiseless, or Poisson with 1 to 1e15 pulses (uniform)
      and a background rate of 0 or up to 0.01 per pulse;
    - ``scan``: 4 to 16 points; ``meridian``: 2 to 8 points;
    - ``storage_times``: one to four, each 0 or 1 us to 1 s.

    Values that are valid one by one can still be refused together (a
    mode the grid cannot hold or resolve, a qutrit hologram with l != 1,
    a scan of a qutrit), and a run can fail numerically (an efficiency
    that underflows, no counts, a scan without a fringe): those exit 2
    or 3.
    """
    dim = draw(st.sampled_from([2, 3]))
    extent = draw(_log_uniform(1e-3, 1e-2))
    waist = extent * draw(_log_uniform(1 / 2000, 1 / 6))
    qudit = {"dim": dim, "l": draw(st.integers(1, 3)), "waist": waist}
    if dim == 2 and draw(st.booleans()):
        qudit.update(gamma=draw(st.floats(0.0, math.pi)), beta=draw(st.floats(0.0, 2 * math.pi)))
    else:
        polar = st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 2 * math.pi))
        qudit["coeffs"] = [[r * math.cos(phi), r * math.sin(phi)]
                           for r, phi in draw(st.lists(polar, min_size=dim, max_size=dim))]
    data = {
        "seed": draw(st.integers(0, 2 ** 31 - 1)),
        "grid": {"n": draw(st.sampled_from([16, 32, 64])), "extent": extent},
        "qudit": qudit,
        "memory": {"temperature": draw(_log_uniform(1e-6, 1.0)),
                   "alpha": draw(st.floats(0.0, 1.5))},
        "decoherence": {name: draw(st.booleans())
                        for name in ("diffusion", "magnetic", "longitudinal_drift")},
        "magnetic": {"sensitivity": draw(st.just(0.0) | _log_uniform(1e8, 1e14)),
                     "guiding_b": draw(st.floats(0.0, 1e-4)),
                     "center": draw(st.lists(st.floats(-1e-3, 1e-3), min_size=2, max_size=2))},
        "scan": {"beta_points": draw(st.integers(4, 16))},
        "meridian": {"gamma_points": draw(st.integers(2, 8))},
        "storage_times": draw(st.lists(st.just(0.0) | _log_uniform(1e-6, 1.0),
                                       min_size=1, max_size=4)),
    }
    n_bar = draw(st.floats(0.01, 300.0))
    data["photon"] = {"n_bar": n_bar, "uncertainty": draw(st.floats(0.0, 0.9)) * n_bar}
    if draw(st.booleans()):
        data["efficiency"] = {"eta0": draw(st.floats(0.01, 1.0)),
                              "tau": draw(_log_uniform(1e-7, 1.0))}
    if draw(st.booleans()):
        data["counting"] = {"poisson": True, "pulses": draw(st.integers(1, 10 ** 15)),
                            "bg_rate": draw(st.just(0.0) | st.floats(0.0, 0.01))}
    else:
        data["counting"] = {"poisson": False}
    if draw(st.integers(0, 2)) == 0:
        pitches = draw(_log_uniform(0.02, 8.0))
        data["source"] = {"kind": "hologram",
                          "input_waist": extent * draw(_log_uniform(1 / 16, 1 / 4)),
                          "focal": waist * extent / (WAVELENGTH * pitches)}
    return data


def _run(command: str, config: Path, out: Path, parallel: int):
    """Exit code, stderr, warnings, output bytes and escaped error type of one ``oamem`` run.

    The runner is wrapped while the CLI runs, so the last item is the
    type of the exception that left it (None if none did), which tells a
    fault found while running from a config check's and from one another.
    """
    kind, _ = cli.SUBCOMMANDS[command]
    runner, escaped = cli.RUNNERS[kind], []

    def recorded(*args, **kwargs):
        try:
            return runner(*args, **kwargs)
        except Exception as exc:
            escaped.append(type(exc))
            raise

    err = io.StringIO()
    cli.RUNNERS[kind] = recorded
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(config), "--out", str(out),
                             "--parallel", str(parallel)])
    finally:
        cli.RUNNERS[kind] = runner
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, err.getvalue().replace(str(out), "OUT"), caught, files, \
        escaped[0] if escaped else None


@settings(derandomize=True, max_examples=70, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_configs())
def test_every_subcommand_exits_cleanly_and_reruns_byte_identical(data):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.yaml"
        config.write_text(yaml.safe_dump(data))
        for command in cli.SUBCOMMANDS:
            # the rerun runs decay's and tomo's storage points on two threads
            first = _run(command, config, Path(tmp) / command / "a", 1)
            rerun = _run(command, config, Path(tmp) / command / "b", 2)
            code, err, caught, files, escaped = first
            assert code in (0, 2, 3), err
            # the config check resolves the modes (modes._basis), so a grid
            # too small for them exits 2 and never escapes a runner to exit 3
            assert escaped is None or not issubclass(escaped, GridTooSmall), err
            if code == 0:
                assert err == ""
            else:
                prefix = "config error: " if code == 2 else "numerical failure: "
                assert err.startswith(prefix) and err.count("\n") == 1, err
            for warning in caught + rerun[2]:
                assert warning.category is UserWarning, warning
                assert str(warning.message).startswith(DIFFRACTION_WARNING), warning
            assert (rerun[0], rerun[1], rerun[3], rerun[4]) == (code, err, files, escaped)
