"""The exit-code contract of ``pathcalc.cli.main`` on generated input.

Hypothesis writes path files, sidecars and ``--config`` files and draws
command lines; every run must return 0, 2, 3, 4 or 5 and raise nothing.
Every drawn integer is small and no drawn string is a large integer, so
counts, steps and generations stay small and one example runs in
milliseconds.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_INTERNAL,
              cli.EXIT_CHECK_FAILED}
NOT_CONFIG = ("command", "fn", "config", "output_dir")  # what the manifest leaves out

# the argv every command starts from, with small counts and generations
BASE_ARGV = {
    "simulate": ["simulate", "--kind", "jump-diffusion", "--steps", "8", "--count", "2"],
    "qv": ["qv", "--input", "{dir}/p.csv", "--n-max", "4"],
    "crossings": ["crossings", "--input", "{dir}/p.csv", "--h", "0.5"],
    "integrate": ["integrate", "--input", "{dir}/p.csv", "--n-max", "4"],
    "verify": ["verify", "--count", "2", "--n-max", "3"],
    "continuity": ["continuity", "--count", "2", "--n-max", "3"],
}
GOOD_CSV = "t,x1\n0.0,0.0\n1.0,0.5\n2.0,0.25\n"
PARSER = cli.build_parser()
SUBPARSERS = next(a for a in PARSER._actions if a.dest == "command").choices

small_ints = st.integers(-2, 6)
edge_floats = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 1e300, -1e300]
# the strings of numbers a flag rejects or takes at an edge
edge_numbers = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "-1", "1", "2", "0.5",
                                "1e-300", "1e300", "1e400"])
words = st.sampled_from([
    "", "abc", "constant:0.5", "constant:1e300", "affine:0.1,0.1", "power:2,0.5", "power:1,1000",
    "table:0,0,1,1", "table:0,1,1,0",
    "affine:x", "constant", "unit", "prev-price", "const:2", "const:inf", "step", "linear",
    "all", "bdg", "doob", "lift", "l-identity", "hoeffding", "concentration", "bdg-bound",
    "continuous", "cadlag", "brownian", "geometric-brownian", "jump-diffusion",
    "oscillator", "{dir}/p.csv", "{dir}/absent.csv", "{dir}",
])
numbers = st.one_of(small_ints, st.sampled_from(edge_floats), st.floats())
json_values = st.one_of(st.none(), st.booleans(), numbers, edge_numbers, words,
                        st.lists(small_ints, max_size=2),
                        st.dictionaries(st.sampled_from(["a", "family"]), small_ints,
                                        max_size=1))

cells = st.one_of(st.floats(-8, 8).map(repr), st.integers(-8, 8).map(str),
                  st.sampled_from(["", "abc", "nan", "inf", "-0", " 1", "1e300", "-1e308",
                                   "1e400", "0x10"]))
sidecars = st.one_of(
    st.none(),
    st.sampled_from(["{mode", "[]", "null", '{"mode": "linear"}', '{"mode": "step"}']),
    st.fixed_dictionaries({}, optional={"mode": st.one_of(json_values, st.sampled_from(
        ["step", "linear"])), "horizon": json_values, "dim": json_values, "psi": json_values}
    ).map(json.dumps))


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(["t,x1", "t,x1,x2", "t", "x1,t", ""]))
    rows = draw(st.lists(st.lists(cells, min_size=1, max_size=3).map(",".join), max_size=8))
    return draw(st.sampled_from(["\n", "\r\n"])).join([header] + rows) + "\n"


def _config(argv):
    """The record ``main`` writes for ``argv``: its parsed flags."""
    return {k: v for k, v in vars(PARSER.parse_args(argv)).items() if k not in NOT_CONFIG}


@st.composite
def configs(draw, argv):
    """A ``--config`` object: the run's own record with one key changed, or drawn keys."""
    record = _config(argv)
    keys = sorted(record) + ["bogus", "lambda", "rng", "help", "n-max"]
    if draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        return record | {key: draw(json_values)}
    return draw(st.dictionaries(st.sampled_from(keys), json_values, max_size=4))


def _run(tmp_path_factory, files, argv):
    run_dir = tmp_path_factory.mktemp("cli")
    for name, text in files.items():
        if text is not None:
            (run_dir / name).write_text(text.replace("{dir}", str(run_dir)))
    argv = [a.replace("{dir}", str(run_dir)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--output-dir", str(run_dir / "out")])
    assert code in EXIT_CODES, (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


# flags that change how a path file is read and partitioned
PATH_FLAGS = {
    "qv": [[], ["--n-max", "1"]],
    "crossings": [[], ["--h", "0.125"], ["--t", "0.5"]],
    "integrate": [[], ["--rule", "prev-price"], ["--rule", "unit"], ["--n-max", "1"]],
}


@settings(max_examples=300)
@given(data=st.data(), command=st.sampled_from(sorted(PATH_FLAGS)), csv=csv_texts(),
       sidecar=sidecars)
def test_path_files_keep_the_exit_code_contract(tmp_path_factory, data, command, csv, sidecar):
    extra = data.draw(st.sampled_from(PATH_FLAGS[command]))
    _run(tmp_path_factory, {"p.csv": csv, "p.json": sidecar}, BASE_ARGV[command] + extra)


@settings(max_examples=400)
@given(data=st.data(), command=st.sampled_from(sorted(BASE_ARGV)))
def test_config_files_keep_the_exit_code_contract(tmp_path_factory, data, command):
    argv = BASE_ARGV[command]
    cfg = data.draw(configs(argv))
    _run(tmp_path_factory, {"p.csv": GOOD_CSV, "c.json": json.dumps(cfg)},
         argv + ["--config", "{dir}/c.json"])


@st.composite
def flag_tokens(draw, command):
    """A flag of ``command`` (or one it lacks) and a value, if any."""
    actions = {opt: action for action in SUBPARSERS[command]._actions
               for opt in action.option_strings
               if opt not in ("-h", "--help", "--output-dir", "--config")}
    flag = draw(st.sampled_from(sorted(actions) + ["--seed", "--bogus", "--help"]))
    choices = getattr(actions.get(flag), "choices", None) or ["1"]
    value = draw(st.one_of(st.sampled_from(choices), edge_numbers, json_values))
    return [flag] if value is None else [flag, str(value)]


@settings(max_examples=400)
@given(data=st.data(), command=st.sampled_from(sorted(BASE_ARGV)))
def test_command_lines_keep_the_exit_code_contract(tmp_path_factory, data, command):
    tokens = data.draw(st.lists(flag_tokens(command), max_size=4))
    _run(tmp_path_factory, {"p.csv": GOOD_CSV}, BASE_ARGV[command] + sum(tokens, []))
