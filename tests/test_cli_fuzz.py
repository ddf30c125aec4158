"""Property test of the CLI exit contract: whatever numbers the flags carry,
a command exits 0, 1 or 2 and never ends in a traceback."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dcboost.cli import main

# finite extremes, signed zeros and tiny values, infinities and nan
REALS = ("0", "-0.0", "5e-324", "-5e-324", "1e-300", "1", "-1", "2.5",
         "1e300", "-1e300", "1.7976931348623157e308",
         "-1.7976931348623157e308", "inf", "-inf", "nan")
# counts: the negative extreme and small positives (a huge iteration or
# backtrack budget costs time and memory, which this contract does not cover)
COUNTS = ("-9223372036854775808", "-1", "0", "1", "2", "7", "2.5", "nan")
SEEDS = ("-1", "0", "7", str(2 ** 128 - 1), str(2 ** 128), "nan")

SOLVER = {"alpha": REALS, "beta": REALS, "lambda-bar": REALS,
          "tol-rel-energy": REALS, "tol-direction": REALS,
          "max-backtracks": COUNTS}
COMMANDS = {
    "toy": (["toy", "--example=scad"],
            {**SOLVER, "max-iter": COUNTS}),
    "toy-quadl1": (["toy", "--example=quadl1"],
                   {**SOLVER, "max-iter": COUNTS}),
    "basin": (["basin"],
              {**SOLVER, "max-iter": COUNTS, "n": COUNTS, "seed": SEEDS}),
    "denoise": (["denoise", "--synthetic", "--size=16x16", "--max-iter=3",
                 "--inner-max-iter=5"],
                {**SOLVER, "gamma": REALS, "noise-gamma": REALS,
                 "mu": REALS, "c": REALS, "seed": SEEDS,
                 "inner-tol": REALS}),
}


def flag_values(command):
    base, flags = COMMANDS[command]
    optional = {name: st.sampled_from(values) for name, values in flags.items()}
    argv = st.fixed_dictionaries({}, optional=optional).map(
        lambda given: base + [f"--{k}={v}" for k, v in given.items()])
    if command.startswith("toy"):
        x0 = st.tuples(st.sampled_from(REALS), st.sampled_from(REALS))
        argv = st.tuples(argv, x0).map(
            lambda pair: pair[0] + ["--x0=" + ",".join(pair[1])])
    if command == "basin":
        # --n is required; keep it small when the draw leaves it out
        argv = argv.map(lambda a: a if any(f.startswith("--n=") for f in a)
                        else a + ["--n=5"])
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["--out-dir", tmp])
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_numeric_flags_keep_exit_contract(command):
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(flag_values(command))
    def check(argv):
        code, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()
