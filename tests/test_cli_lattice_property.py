"""The output-lattice flags of ft, ift and error-sweep at extreme numbers.

Every run exits 0, 3 or 4 with no warning and no exception; an exit-0 output
holds only finite numbers, and a failed run leaves no output file.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oqf.cli import main

EXTREMES = [0.0, -0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
FLOATS = st.sampled_from(EXTREMES) | st.floats(-1e3, 1e3)
COUNTS = st.integers(-2, 64)

# (subcommand, lattice name, input CSV header or None)
COMMANDS = [("ft", "omega", "x"), ("ift", "x", "omega"), ("error-sweep", "omega", None)]


def _csv(header: str, rows: int) -> str:
    xs = np.linspace(-1.0, 1.0, rows).tolist()
    return f"{header},re,im\n" + "".join(f"{x},{1 - x * x},{x / 2}\n" for x in xs)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(command=st.sampled_from(COMMANDS), lo=FLOATS, hi=FLOATS, count=COUNTS,
       rows=st.integers(2, 64))
def test_lattice_flags_exit_cleanly(tmp_path_factory, command, lo, hi, count, rows):
    name, lattice, header = command
    workdir = tmp_path_factory.mktemp("run")
    out = workdir / "o.csv"
    argv = [name, f"--{lattice}-min={lo!r}", f"--{lattice}-max={hi!r}",
            f"--{lattice}-count={count}", "--out", str(out)]
    if header is not None:
        (workdir / "in.csv").write_text(_csv(header, rows))
        argv += ["--input", str(workdir / "in.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 3, 4)
    if code == 0:
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
    else:
        assert not out.exists()
