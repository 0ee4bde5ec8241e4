"""The exit-code contract of ``pathcalc.cli.main`` on generated input.

Hypothesis writes path files, sidecars and ``--config`` files and draws
command lines; every run must return 0, 2, 3, 4 or 5 and raise nothing, and
every JSON file a successful run writes must be strict JSON, without ``NaN``
or ``Infinity``.  Every drawn integer is small and no drawn string is a
large integer, so counts, steps and generations stay small and one example
runs in milliseconds.  The exceptions are the flags that set a size, drawn
from a wide range: ``simulate``'s ``--steps`` and ``--dim`` and the
``--n-max`` of ``qv``, ``integrate``, ``verify`` and ``continuity`` up to
2^63, and ``crossings``' ``--h`` and ``verify``'s ``--K`` from 1e-300 up to
2^63.  Above each cap a run must exit 2 before allocating; ``--count``
stays small.  Below the cap a ``simulate`` draw only builds its spec, and a
``--h`` draw runs only where its report has at most 2^12 intervals.  The
parameters of ``verify``'s lift and bound checks are drawn from 1e-300 to
1.7e308.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import cli
from pathcalc.partitions import MAX_CROSSING_INTERVALS, MAX_GENERATION
from pathcalc.simulate import KINDS, MAX_SIM_VALUES, SimSpec

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_INTERNAL,
              cli.EXIT_CHECK_FAILED}
NOT_CONFIG = ("command", "config", "output_dir")  # what the manifest leaves out

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
                                   "1e400", "0x10", "1e17", "5e18"]))
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


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


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
    if code == cli.EXIT_OK:
        for file in (run_dir / "out").glob("*.json"):
            json.loads(file.read_text(), parse_constant=_not_json)
    return code


# flags that change how a path file is read and partitioned
PATH_FLAGS = {
    "qv": [[], ["--n-max", "1"]],
    "crossings": [[], ["--h", "0.125"], ["--t", "0.5"]],
    "integrate": [[], ["--rule", "prev-price"], ["--rule", "unit"], ["--n-max", "1"]],
}


@st.composite
def path_commands(draw):
    """A command that reads a path file, and flags for it."""
    command = draw(st.sampled_from(sorted(PATH_FLAGS)))
    return command, draw(st.sampled_from(PATH_FLAGS[command]))


@settings(max_examples=300)
@given(run=path_commands(), csv=csv_texts(), sidecar=sidecars)
@example(run=("integrate", ["--rule", "const:1e308"]), csv="t,x1\n0,0\n1,1\n2,3\n",
         sidecar=None)
@example(run=("integrate", ["--rule", "const:1e308"]), csv="t,x1\n0,0\n1,1\n2,2\n",
         sidecar='{"mode": "linear"}')
@example(run=("crossings", []), csv="t,x1\n0,1e300\n1,1e300\n", sidecar=None)
def test_path_files_keep_the_exit_code_contract(tmp_path_factory, run, csv, sidecar):
    command, extra = run
    _run(tmp_path_factory, {"p.csv": csv, "p.json": sidecar}, BASE_ARGV[command] + extra)


@st.composite
def config_commands(draw):
    """A command and a ``--config`` object for it."""
    command = draw(st.sampled_from(sorted(BASE_ARGV)))
    return command, draw(configs(BASE_ARGV[command]))


@settings(max_examples=400)
@given(run=config_commands())
@example(run=("verify", {"check": "bdg", "a": float("nan")}))
@example(run=("simulate", {"amplitude": float("inf")}))
@example(run=("simulate", {"psi": "constant:nan"}))
def test_config_files_keep_the_exit_code_contract(tmp_path_factory, run):
    command, cfg = run
    _run(tmp_path_factory, {"p.csv": GOOD_CSV, "c.json": json.dumps(cfg)},
         BASE_ARGV[command] + ["--config", "{dir}/c.json"])


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


@st.composite
def command_lines(draw):
    """A command and up to four of its flag tokens."""
    command = draw(st.sampled_from(sorted(BASE_ARGV)))
    return command, sum(draw(st.lists(flag_tokens(command), max_size=4)), [])


@settings(max_examples=400)
@given(run=command_lines())
@example(run=("verify", ["--check", "bdg", "--a", "nan"]))
@example(run=("verify", ["--check", "hoeffding", "--M", "inf"]))
@example(run=("simulate", ["--amplitude", "nan"]))
@example(run=("simulate", ["--jump-intensity", "5", "--jump-mean", "inf"]))
@example(run=("simulate", ["--psi", "constant:nan"]))
@example(run=("simulate", ["--psi", "affine:0.1,inf"]))
@example(run=("continuity", ["--ensemble", "cadlag", "--psi", "constant:nan"]))
def test_command_lines_keep_the_exit_code_contract(tmp_path_factory, run):
    command, tokens = run
    _run(tmp_path_factory, {"p.csv": GOOD_CSV}, BASE_ARGV[command] + tokens)


@settings(max_examples=200)
@given(kind=st.sampled_from(KINDS), steps=st.integers(1, 2 ** 63), dim=st.integers(1, 2 ** 63))
@example(kind="brownian", steps=10 ** 13, dim=1)
@example(kind="brownian", steps=4, dim=10 ** 11)
@example(kind="constant", steps=1, dim=MAX_SIM_VALUES // 2 + 1)
@example(kind="oscillator", steps=MAX_SIM_VALUES, dim=1)
@example(kind="jump-diffusion", steps=MAX_SIM_VALUES - 1, dim=1)
def test_simulate_sizes_above_the_cap_exit_2(tmp_path_factory, kind, steps, dim):
    if (steps + 1) * dim <= MAX_SIM_VALUES:
        SimSpec(kind, steps=steps, dim=dim, x0=1.0)  # accepted; nothing is simulated
        return
    run_dir = tmp_path_factory.mktemp("cli")
    argv = ["simulate", "--kind", kind, "--steps", str(steps), "--dim", str(dim), "--x0", "1",
            "--output-dir", str(run_dir / "out")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == cli.EXIT_CONFIG
    assert "exceed" in stderr.getvalue()


def _generations(n):
    return {cli.EXIT_CONFIG} if n > MAX_GENERATION else {cli.EXIT_OK}


# a command line, the size flag it takes and the exit codes allowed at a value of that
# flag; the path file's values span 0.5, so spacing h gives at least 0.5 / h intervals
SIZE_FLAGS = {
    "qv": (["qv", "--input", "{dir}/p.csv"], "--n-max", _generations),
    "integrate": (["integrate", "--input", "{dir}/p.csv"], "--n-max", _generations),
    "concentration": (["verify", "--check", "concentration", "--count", "2"], "--n-max",
                      _generations),
    "bdg-bound": (["verify", "--check", "bdg-bound", "--count", "2"], "--n-max", _generations),
    "continuity": (["continuity", "--ensemble", "cadlag", "--count", "2"], "--n-max",
                   _generations),
    "crossings": (["crossings", "--input", "{dir}/p.csv"], "--h",
                  lambda h: {cli.EXIT_CONFIG} if 0.5 / h > MAX_CROSSING_INTERVALS
                  else {cli.EXIT_OK}),
    # a K below every drawn path selects none, which exits 2 too
    "doob": (["verify", "--check", "doob", "--count", "2"], "--K",
             lambda K: {cli.EXIT_CONFIG} if 2.0 * K * 2.0 ** 3 > MAX_CROSSING_INTERVALS
             else {cli.EXIT_OK, cli.EXIT_CONFIG}),
    # the check needs an integer K
    "l-identity": (["verify", "--check", "l-identity", "--count", "2"], "--K",
                   lambda K: {cli.EXIT_OK} if K == int(K) else {cli.EXIT_CONFIG}),
}


@settings(max_examples=200)
@given(case=st.sampled_from(sorted(SIZE_FLAGS)), n=st.integers(1, 2 ** 63),
       x=st.floats(1e-300, 2.0 ** 63))
@example(case="qv", n=MAX_GENERATION + 1, x=1.0)
@example(case="concentration", n=2 ** 63, x=1.0)
@example(case="continuity", n=MAX_GENERATION, x=1.0)
@example(case="crossings", n=1, x=1e-300)
@example(case="crossings", n=1, x=2.0 ** 63)
@example(case="doob", n=1, x=1e-300)
@example(case="doob", n=1, x=2.0 ** 17)
@example(case="doob", n=1, x=2.0 ** 16)
@example(case="l-identity", n=1, x=0.5)
@example(case="l-identity", n=1, x=2.0 ** 63)
@example(case="integrate", n=MAX_GENERATION, x=1.0)
@example(case="bdg-bound", n=MAX_GENERATION, x=1.0)
@example(case="crossings", n=1, x=2.0 ** -13)
def test_sizes_above_the_cap_exit_2(tmp_path_factory, case, n, x):
    argv, flag, allowed = SIZE_FLAGS[case]
    value = n if flag == "--n-max" else x
    if flag == "--h" and 2 ** 12 < 0.5 / value <= MAX_CROSSING_INTERVALS:
        return  # valid, and a report of up to 2^20 intervals takes seconds
    code = _run(tmp_path_factory, {"p.csv": GOOD_CSV}, argv + [flag, str(value)])
    assert code in allowed(value), (argv, flag, value, code)


# the parameters of verify's lift and statistical bound checks
WIDE_PARAMETERS = {"lift": ["--lambda"], "bdg-bound": ["--a", "--b", "--c", "--M"],
                   "concentration": ["--a", "--b"]}


@settings(max_examples=100)
@given(check=st.sampled_from(sorted(WIDE_PARAMETERS)),
       values=st.lists(st.one_of(st.none(), st.floats(1e-300, 1.7e308)), min_size=4,
                       max_size=4))
@example(check="lift", values=[8.99e307, None, None, None])  # the draws overflowed
@example(check="bdg-bound", values=[None, None, 0.0, 1e308])  # a bound of inf * 0
def test_wide_check_parameters_keep_the_exit_code_contract(tmp_path_factory, check, values):
    # a None keeps the flag's default; _run fails on an exception escaping main,
    # which the command reports as exit 1
    tokens = [token for flag, value in zip(WIDE_PARAMETERS[check], values) if value is not None
              for token in (flag, repr(value))]
    _run(tmp_path_factory, {}, ["verify", "--check", check, "--count", "2", "--n-max", "3"]
         + tokens)
