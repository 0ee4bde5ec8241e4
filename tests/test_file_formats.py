"""Artifact bytes: the shared table and JSON writers against the cell-by-cell loops.

Every writer must produce the bytes of its reference loop in
``reference_loops``, for d = 1..3, ``-0.0``, subnormals, values on both
sides of the switch to exponent form at 1e16, blank levels and tables longer
than one formatting block.  The table writer must also match ``str`` of each
cell on the cells orjson spells otherwise (non-finite and out-of-range floats,
ints from 2^53 on, blanks) wherever they fall in a block, and at row counts on
both sides of a block; every CLI artifact must come out the same on a rerun.
"""

import io
import itertools
import tracemalloc
from pathlib import PurePosixPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import checks, cli
from pathcalc.cli import EXIT_OK, main
from pathcalc.errors import ContractError
from pathcalc.partitions import LebesguePartition
from pathcalc.paths import (_TABLE_BLOCK, Path, _write_json, _write_table,
                            read_path_csv, write_path_csv)
from pathcalc.qv import QVReport, _pairs, write_qv_report

from reference_loops import (write_continuity_csv_py, write_integral_csv_py,
                             write_partition_csv_py, write_path_csv_py, write_qv_csv_py)

# zero, subnormals, both ends of the magnitudes [1e-4, 1e16) where orjson spells a float as
# ``repr`` does, values just outside them, and the largest double
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, float(np.nextafter(1e-4, 0)),
               1.5e-06, -2.5e-05, 0.0001, 9999999999999998.0, 1e16, 1.2345678901234567e16,
               -1.7976931348623157e308]

cells = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12)
# short tables, and tables on both sides of one formatting block
rows = st.one_of(st.integers(1, 20),
                 st.sampled_from([_TABLE_BLOCK - 1, _TABLE_BLOCK, _TABLE_BLOCK + 1]))


@given(x=st.floats())
@example(x=1e-4)
@example(x=float(np.nextafter(1e-4, 0)))
@example(x=1e-5)
@example(x=1.5e-6)
@example(x=1e-7)
@example(x=-0.0)
@example(x=5e-324)
@example(x=9999999999999998.0)
@example(x=1e16)
@example(x=-1e16)
@example(x=1.7976931348623157e308)
@example(x=float("nan"))
@example(x=float("inf"))
@example(x=float("-inf"))
def test_float_cells_are_repr(x):
    """Each cell of a one-column table is ``repr`` of its value, on both sides of every
    spelling boundary."""
    _assert_same_text(_table(["x"], [np.array([x, 1.0, x])]), f"x\n{x!r}\n1.0\n{x!r}\n")


def test_float_cells_of_random_bit_patterns():
    """2^18 random float64 bit patterns, a table block at a time, are each ``repr``."""
    rng = np.random.default_rng(24)
    for _ in range(2 ** 18 // _TABLE_BLOCK):
        block = rng.integers(0, 2 ** 64, _TABLE_BLOCK, dtype=np.uint64).view(np.float64)
        _assert_same_text(_table(["x"], [block]),
                          "x\n" + "".join(f"{v!r}\n" for v in block.tolist()))


def _table(header, columns):
    """The text ``_write_table`` writes."""
    fh = io.StringIO()
    _write_table(fh, header, columns)
    return fh.getvalue()


def _assert_same_text(text, ref):
    """``text == ref``; a mismatch names its first differing line, since pytest's own diff of
    two long tables takes minutes."""
    if text != ref:
        got, want = text.splitlines(True), ref.splitlines(True)
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"line {k}: {got[k:k + 1]} != {want[k:k + 1]}")


def _cell_by_cell(header, columns):
    """``str`` of every cell, row by row; ``(indices, scale)`` is the column ``indices * scale``."""
    cols = [(c[0] * c[1] if isinstance(c, tuple) else c).tolist() for c in columns]
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *zip(*cols)])


INT_EDGES = [2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -(2 ** 53), 2 ** 53 + 1, -(2 ** 53 + 1),
             2 ** 62, -(2 ** 62)]


def test_int_cells_at_the_edge_of_float64():
    """Ints orjson writes exactly (below 2^53 in magnitude) lose the ``.0`` of their float;
    from 2^53 on, where a float64 may round, the row is rebuilt with ``str``."""
    ints = np.array(INT_EDGES + [0, 1, -1, 7], dtype=np.int64)
    floats = np.resize([-1.0, 0.25, 3.5], len(ints))  # no odd float: each row is its int's
    text = _table(["k", "x"], [ints, floats])
    _assert_same_text(text, _cell_by_cell(["k", "x"], [ints, floats]))
    assert text.splitlines()[1:4] == ["9007199254740991,-1.0", "-9007199254740991,0.25",
                                      "9007199254740992,3.5"]


def _odd_rows(where, m):
    """Rows of an ``m``-row table that hold an odd cell, by their place in each block."""
    k = np.arange(m)
    return {"none": k < 0, "first": k % _TABLE_BLOCK == 0,
            "last": (k % _TABLE_BLOCK == _TABLE_BLOCK - 1) | (k == m - 1), "every": k >= 0}[where]


@pytest.mark.parametrize("where", ["none", "first", "last", "every"])
@pytest.mark.parametrize("kind", ["float", "nan", "int", "level"])
def test_blocks_with_odd_rows(where, kind):
    """A block whose rows holding a cell orjson spells otherwise are none, only the first,
    only the last or every one, in a table of two blocks with k, float and level columns."""
    m = _TABLE_BLOCK + 5
    rows = _odd_rows(where, m)
    k, x = np.arange(m), np.linspace(0.5, 2.5, m)
    idx, scale = np.arange(m, dtype=np.int64) - 2 ** 14, 2.0 ** -20  # levels -1/64 and below
    if kind == "float":
        x[rows] = 1.5e-7
    elif kind == "nan":
        x[rows] = np.where(np.arange(rows.sum()) % 2, np.inf, np.nan)
    elif kind == "int":
        k[rows] = 2 ** 53 + 1
    else:
        idx[rows] = 3  # a level of 3 * 2^-20, below 1e-4
    columns = [k, x, (idx, scale)]
    _assert_same_text(_table(["k", "tau", "level"], columns),
                      _cell_by_cell(["k", "tau", "level"], columns))


def test_blank_level_column():
    """The partition table of a d > 1 path: a blank level makes every row odd."""
    m = _TABLE_BLOCK + 1
    columns = [np.arange(m), np.linspace(0.0, 3.0, m), np.full(m, "")]
    text = _table(["k", "tau", "level"], columns)
    _assert_same_text(text, _cell_by_cell(["k", "tau", "level"], columns))
    assert text.splitlines()[2] == f"1,{3.0 / (m - 1)!r},"


@pytest.mark.parametrize("m", [1, _TABLE_BLOCK - 1, _TABLE_BLOCK, _TABLE_BLOCK + 1])
def test_row_counts_around_a_block(m):
    """Tables of one row and on both sides of a block end in exactly one newline."""
    columns = [np.arange(m) - 3, np.linspace(-1e-5, 2.0, m), np.linspace(0.0, 1e17, m)]
    text = _table(["k", "x", "y"], columns)
    _assert_same_text(text, _cell_by_cell(["k", "x", "y"], columns))
    assert text.count("\n") == m + 1 and text.endswith("\n") and not text.endswith("\n\n")


def _times(m, scale, fracs):
    """``m`` strictly increasing times from 0: ``(k + frac_k) * scale`` with frac_k in [0, 1/4]."""
    times = (np.arange(m) + np.resize(fracs, m)) * scale
    times[0] = 0.0
    return times


def _assert_same_files(tmp_path, names):
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


@given(m=rows, d=st.integers(1, 3), values=cells,
       scale=st.floats(5e-324, 1e300), fracs=st.lists(st.floats(0.0, 0.25), min_size=1, max_size=5),
       mode=st.sampled_from(["step", "linear"]))
@example(m=_TABLE_BLOCK + 1, d=3, values=EDGE_FLOATS, scale=1e15, fracs=[0.0, 0.25, 1 / 3 - 0.1],
         mode="step")
def test_path_csv_bytes(tmp_path_factory, m, d, values, scale, fracs, mode):
    tmp_path = tmp_path_factory.mktemp("path")
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    path = Path(_times(m, scale, fracs), np.resize(values, (m, d)), mode=mode, horizon=m * scale)
    sidecar = {"psi": {"family": "constant", "params": [0.5]}}
    write_path_csv(path, tmp_path / "new" / "p.csv", sidecar=sidecar)
    write_path_csv_py(path, tmp_path / "ref" / "p.csv", sidecar=sidecar)
    _assert_same_files(tmp_path, ["p.csv", "p.json"])
    assert read_path_csv(tmp_path / "new" / "p.csv") == path


@given(m=rows, d=st.integers(1, 3), values=cells)
@example(m=_TABLE_BLOCK + 1, d=2, values=EDGE_FLOATS)
def test_qv_csv_bytes(tmp_path_factory, m, d, values):
    tmp_path = tmp_path_factory.mktemp("qv")
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    limit_values = np.resize(values, (m, d, d))
    report = QVReport(dim=d, n_max=1, tol=1e-8, generations=[1], z_sup=np.zeros(1),
                      qv_terminal=np.zeros((1, d, d)), limit_times=np.resize(values[::-1], m),
                      limit_values=limit_values, terminal=np.zeros((d, d)),
                      cauchy_tol_met=False, converged_at=None)
    write_qv_report(report, tmp_path / "new" / "qv.json", tmp_path / "new" / "qv.csv")
    write_qv_csv_py(report, tmp_path / "ref" / "qv.csv")
    _assert_same_files(tmp_path, ["qv.csv"])


def _qv_command_report(m, d, generation, values, level_indices):
    """A report as ``qv_limit`` gives ``cmd_qv``: symmetric limit matrices, and a generation
    partition whose times are the ``limit_times`` object itself."""
    part = LebesguePartition(generation, np.resize(values[::-1], m), level_indices)
    limit_values = np.empty((m, d, d))
    for k, (a, b) in enumerate(_pairs(d)):
        limit_values[:, a, b] = limit_values[:, b, a] = np.resize(np.roll(values, k), m)
    return QVReport(dim=d, n_max=1, tol=1e-8, generations=[1],
                    z_sup=np.zeros(1), qv_terminal=np.zeros((1, d, d)), limit_times=part.times,
                    limit_values=limit_values, terminal=np.zeros((d, d)), cauchy_tol_met=False,
                    converged_at=None, partition=part)


@settings(max_examples=30)
@given(m=rows, d=st.integers(1, 3), generation=st.integers(1, 52), leveled=st.booleans(),
       values=cells, indices=st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1, max_size=12))
@example(m=2 * _TABLE_BLOCK + 3, d=1, generation=10, leveled=False, values=EDGE_FLOATS, indices=[0])
@example(m=_TABLE_BLOCK, d=1, generation=1, leveled=True, values=EDGE_FLOATS,
         indices=[-1, 0, 2 ** 53])
@example(m=2 * _TABLE_BLOCK + 3, d=1, generation=52, leveled=True, values=EDGE_FLOATS,
         indices=[0, -1, -(2 ** 62), 2 ** 53 + 1, 7])
# one level on both sides of the block boundary, next to level 0 and a negative one
@example(m=_TABLE_BLOCK + 1, d=1, generation=10, leveled=True, values=[-0.0, 5e-324, 1.5],
         indices=[-3] * (_TABLE_BLOCK - 2) + [0, -3, -3])
@example(m=_TABLE_BLOCK, d=3, generation=1, leveled=False, values=EDGE_FLOATS, indices=[0])
def test_qv_command_tables_bytes(tmp_path_factory, m, d, generation, leveled, values, indices):
    """``qv_limit.csv`` and ``partition_n<N>.csv``, written by ``cmd_qv``'s call, against the
    loops: the ``t``/``tau`` column object shared by both tables and the levels multiplied a
    block at a time must give the bytes of formatting each cell."""
    tmp_path = tmp_path_factory.mktemp("qvcmd")
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    report = _qv_command_report(m, d, generation, values,
                                np.resize(indices, m) if leveled else None)
    assert report.partition.times is report.limit_times
    write_qv_report(report, tmp_path / "new" / "qv_report.json", tmp_path / "new" / "qv_limit.csv",
                    tmp_path / "new" / "partition.csv")
    write_qv_csv_py(report, tmp_path / "ref" / "qv_limit.csv")
    write_partition_csv_py(report.partition, tmp_path / "ref" / "partition.csv")
    _assert_same_files(tmp_path, ["qv_limit.csv", "partition.csv"])


@pytest.mark.parametrize("rows", [None, _TABLE_BLOCK - 1, _TABLE_BLOCK + 1, "no csv"])
def test_qv_partition_file_needs_one_row_per_limit_time(tmp_path, rows):
    """A partition file beside no ``qv_limit.csv``, or without one row per limit time, is
    refused before anything is written, rather than cut short or left half written."""
    report = _qv_command_report(_TABLE_BLOCK, 1, 10, [0.5, 1.5], None)
    if rows is None:
        report.partition = None
    elif rows != "no csv":
        report.partition = LebesguePartition(10, np.zeros(rows))
    csv_file = None if rows == "no csv" else tmp_path / "q.csv"
    with pytest.raises(ContractError, match="partition file"):
        write_qv_report(report, tmp_path / "r.json", csv_file, tmp_path / "p.csv")
    assert not list(tmp_path.iterdir())


def test_qv_writers_hold_one_block(tmp_path):
    """The peak traced memory of ``cmd_qv``'s writers, and of ``_write_table`` on the
    ``integral.csv`` and ``continuity.csv`` shapes, does not grow with the table."""
    rng = np.random.default_rng(5)

    def traced_peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def qv_peak(m):
        report = _qv_command_report(m, 1, 20, rng.standard_normal(997).tolist(),
                                    rng.integers(-2 ** 20, 2 ** 20, m))
        report.limit_values[:] = rng.standard_normal((m, 1, 1))  # every value distinct
        return traced_peak(lambda: write_qv_report(report, tmp_path / "r.json",
                                                   tmp_path / "q.csv", tmp_path / "p.csv"))

    def table_peak(m, labels):
        columns = [rng.integers(-10, 10 ** 6, m)] if labels else []
        columns += [rng.standard_normal(m), rng.standard_normal(m)]

        def write():
            with open(tmp_path / "t.csv", "w") as fh:
                _write_table(fh, ["c"] * len(columns), columns)
        return traced_peak(write)

    qv_peak(8195)  # first-use allocations
    # 57 342 more rows: the k column's arange grows by 448 KiB, while a table-wide
    # cache of the rows' strings would add several MiB
    assert abs(qv_peak(65537) - qv_peak(8195)) < 1024 * 1024
    for labels in (False, True):  # integral.csv, continuity.csv
        table_peak(8195, labels)
        assert abs(table_peak(65537, labels) - table_peak(8195, labels)) < 1024 * 1024


@pytest.mark.parametrize("mode", ["step", "linear"])
@pytest.mark.parametrize("d", [2, 3])
def test_qv_limit_csv_is_symmetric(tmp_path, monkeypatch, mode, d):
    """``qv_ab`` and ``qv_ba`` are equal strings in every row of ``cmd_qv``'s ``qv_limit.csv``:
    ``qv_limit`` fills both entries of a pair from one value, so the bits agree."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--kind", "brownian", "--steps", "300", "--dim", str(d),
                 "--mode", mode, "--seed", "9", "--output-dir", "sim"]) == EXIT_OK
    assert main(["qv", "--input", "sim/path_0000.csv", "--n-max", "6",
                 "--output-dir", "qv"]) == EXIT_OK
    header, *lines = (tmp_path / "qv" / "qv_limit.csv").read_text().splitlines()
    col = {name: j for j, name in enumerate(header.split(","))}
    rows = [line.split(",") for line in lines]
    assert len(rows) > 30
    for a, b in itertools.combinations(range(1, d + 1), 2):
        assert [r[col[f"qv_{a}{b}"]] for r in rows] == [r[col[f"qv_{b}{a}"]] for r in rows]


@given(m=rows, labels=st.lists(st.integers(-10, 10 ** 6), min_size=1, max_size=12),
       xs=cells, ys=cells)
@example(m=_TABLE_BLOCK + 1, labels=[1, 2, 3], xs=EDGE_FLOATS, ys=EDGE_FLOATS[::-1])
def test_two_float_column_tables(tmp_path_factory, m, labels, xs, ys):
    """The ``integral.csv`` and ``continuity.csv`` shapes: float columns, and int labels."""
    tmp_path = tmp_path_factory.mktemp("tables")
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    times, values = np.resize(xs, m), np.resize(ys, m)
    rows_ = list(zip(np.resize(labels, m).tolist(), times.tolist(), values.tolist()))
    with open(tmp_path / "new" / "integral.csv", "w") as fh:
        _write_table(fh, ["t", "integral"], [times, values])
    with open(tmp_path / "new" / "continuity.csv", "w") as fh:
        _write_table(fh, ["scale", "integrand_distance", "integral_distance"],
                     [np.asarray(col) for col in zip(*rows_)])
    write_integral_csv_py(times, values, tmp_path / "ref" / "integral.csv")
    write_continuity_csv_py(rows_, tmp_path / "ref" / "continuity.csv")
    _assert_same_files(tmp_path, ["integral.csv", "continuity.csv"])


RERUN_COMMANDS = [
    ["simulate", "--kind", "jump-diffusion", "--steps", "40", "--count", "2", "--dim", "2",
     "--seed", "3", "--jump-intensity", "6", "--psi", "constant:0.4"],
    ["simulate", "--kind", "brownian", "--steps", "64", "--seed", "4"],
    ["qv", "--input", "out1/path_0000.csv", "--n-max", "6"],
    ["crossings", "--input", "out1/path_0000.csv", "--h", "0.125"],
    ["integrate", "--input", "out1/path_0000.csv", "--rule", "prev-price", "--n-max", "5"],
    ["continuity", "--ensemble", "cadlag", "--count", "4", "--n-max", "3"],
    ["continuity", "--ensemble", "continuous", "--count", "4", "--n-max", "3"],
]


def test_cli_artifacts_rerun_byte_identical(tmp_path, monkeypatch):
    """Every artifact but ``manifest.json`` (timestamped) repeats byte for byte, and
    the tables of ``integrate`` and ``continuity`` match the cell-by-cell loops."""
    results = {}

    def keep(fn):
        def call(*args, **kwargs):
            results.setdefault(fn.__name__, []).append(fn(*args, **kwargs))
            return results[fn.__name__][-1]
        return call

    monkeypatch.setattr(cli, "ito_integral", keep(cli.ito_integral))
    monkeypatch.setattr(checks, "continuity_experiment", keep(checks.continuity_experiment))
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        for i, argv in enumerate(RERUN_COMMANDS):
            assert main(argv + ["--output-dir", f"out{i}"]) == EXIT_OK, argv
    files = sorted(f.relative_to(tmp_path / "a") for f in (tmp_path / "a").rglob("*")
                   if f.is_file() and f.name != "manifest.json")
    assert {"partition_n6.csv", "crossings.json", "integral.csv", "integral_report.json",
            "continuity.csv", "continuity_summary.json"} <= {f.name for f in files}
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    curve = results["ito_integral"][0].curve
    write_integral_csv_py(curve.times, curve.values, tmp_path / "integral.csv")
    assert (tmp_path / "a/out4/integral.csv").read_bytes() == (tmp_path / "integral.csv").read_bytes()
    for i, rep in zip((5, 6), results["continuity_experiment"]):
        write_continuity_csv_py(rep.rows, tmp_path / "continuity.csv")
        assert ((tmp_path / f"a/out{i}/continuity.csv").read_bytes()
                == (tmp_path / "continuity.csv").read_bytes())


def test_json_format(tmp_path):
    """Two-space indents, sorted keys at every depth, ``str`` of other types, final newline."""
    _write_json(tmp_path / "x.json", {"b": [1.5, -0.0], "a": {"d": None, "c": PurePosixPath("p/q")}})
    assert (tmp_path / "x.json").read_text() == (
        '{\n  "a": {\n    "c": "p/q",\n    "d": null\n  },\n  "b": [\n    1.5,\n    -0.0\n  ]\n}\n')
