import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path as FsPath
from unittest.mock import ANY

import pytest

import pathcalc
from pathcalc import checks, cli, integration
from pathcalc.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from pathcalc.errors import CheckFailedError, InternalConsistencyError
from pathcalc.paths import write_path_csv
from pathcalc.simulate import SimSpec


@pytest.fixture
def p1_file(tmp_path, p1):
    f = tmp_path / "p1.csv"
    write_path_csv(p1, f)
    return f


def test_python_m_pathcalc_is_the_command_line():
    """``python -m pathcalc`` runs ``cli.main``, also from a checkout on ``PYTHONPATH``."""
    package_root = str(FsPath(pathcalc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "pathcalc", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == pathcalc.__version__


class TestSimulateCommand:
    def test_writes_paths_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--kind", "oscillator", "--steps", "4",
                     "--horizon", "4", "--output-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "path_0000.csv").exists()
        assert (out / "simspec.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0 and manifest["checks"][0]["passed"]

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--kind", "jump-diffusion", "--steps", "64",
                "--count", "3", "--seed", "11", "--jump-intensity", "8",
                "--psi", "constant:0.4"]
        assert main(argv + ["--output-dir", str(a)]) == EXIT_OK
        assert main(argv + ["--output-dir", str(b)]) == EXIT_OK
        for i in range(3):
            name = f"path_{i:04d}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_kind_is_config_error(self, tmp_path):
        code = main(["simulate", "--kind", "nope", "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_CONFIG


class TestQvCommand:
    def test_p1_report(self, tmp_path, p1_file):
        out = tmp_path / "qv"
        code = main(["qv", "--input", str(p1_file), "--n-max", "10",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "qv_report.json").read_text())
        assert report["terminal"][0][0] == pytest.approx(1.21, abs=1e-12)
        assert report["cauchy_tol_met"]
        assert (out / "qv_limit.csv").read_text().startswith("t,qv_11\n")

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["qv", "--input", str(tmp_path / "absent.csv"),
                     "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_constant_path_zero_qv(self, tmp_path):
        out1 = tmp_path / "sim"
        assert main(["simulate", "--kind", "constant", "--value", "0",
                     "--output-dir", str(out1)]) == EXIT_OK
        out2 = tmp_path / "qv"
        assert main(["qv", "--input", str(out1 / "path_0000.csv"),
                     "--output-dir", str(out2)]) == EXIT_OK
        report = json.loads((out2 / "qv_report.json").read_text())
        assert report["terminal"] == [[0.0]]


class TestCrossingsCommand:
    def test_oscillator(self, tmp_path, p2):
        f = tmp_path / "p2.csv"
        write_path_csv(p2, f)
        out = tmp_path / "cr"
        assert main(["crossings", "--input", str(f), "--h", "1.0",
                     "--output-dir", str(out)]) == EXIT_OK
        rep = json.loads((out / "crossings.json").read_text())
        assert rep["U"] == 2 and rep["D"] == 2


class TestIntegrateCommand:
    def test_prev_price_identity_on_p1(self, tmp_path, p1_file):
        out = tmp_path / "int"
        code = main(["integrate", "--input", str(p1_file), "--rule", "prev-price",
                     "--n-max", "10", "--output-dir", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "integral_report.json").read_text())
        assert rep["terminal"] == pytest.approx(0.24, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        names = {c["name"]: c["passed"] for c in manifest["checks"]}
        assert names["telescoping-identity"]

    def test_unit_rule_telescopes_on_p1(self, tmp_path, p1_file):
        out = tmp_path / "int"
        assert main(["integrate", "--input", str(p1_file), "--rule", "unit",
                     "--n-max", "6", "--output-dir", str(out)]) == EXIT_OK
        rep = json.loads((out / "integral_report.json").read_text())
        assert rep["terminal"] == pytest.approx(1.3, abs=1e-15)

    def test_unknown_rule_is_config_error(self, tmp_path, p1_file):
        assert main(["integrate", "--input", str(p1_file), "--rule", "wat",
                     "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG


class TestVerifyCommand:
    def test_bdg_small(self, tmp_path, capsys):
        code = main(["verify", "--check", "bdg", "--count", "2000", "--seed", "7",
                     "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK
        assert "[PASS] bdg" in capsys.readouterr().out

    def test_l_identity_small(self, tmp_path):
        code = main(["verify", "--check", "l-identity", "--count", "5",
                     "--seed", "3", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("K", ["2.7", "0.5"])
    def test_l_identity_needs_an_integer_K(self, tmp_path, capsys, K):
        # K is not truncated: 2.7 is not checked as K = 2
        code = main(["verify", "--check", "l-identity", "--count", "2", "--K", K,
                     "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_CONFIG
        assert "K must be an integer" in capsys.readouterr().err

    def test_hoeffding_small(self, tmp_path):
        code = main(["verify", "--check", "hoeffding", "--count", "20",
                     "--seed", "3", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_doob_small(self, tmp_path):
        code = main(["verify", "--check", "doob", "--count", "10",
                     "--seed", "5", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_doob_below_K_records_each_path_by_its_stream(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--check", "doob", "--count", "50", "--K", "0.5", "--seed", "3",
                     "--output-dir", str(out)]) == EXIT_OK
        records = json.loads((out / "verification_report.json").read_text())["checks"][0]
        streams = [r["path"] for r in records["per_path"]]
        assert streams == [9, 14, 28, 30, 31, 37]
        assert streams == [i for i, p in enumerate(checks.paths(checks.JUMP_SPEC, 50, seed=3))
                           if p.sup_norm() < 0.5]

    @pytest.mark.parametrize("check, owner, name, broken, location", [
        ("l-identity", checks, "l_strategy",
         lambda real: lambda p, n, K, psi, tolerance: real(p, n, K, psi, tolerance=0.0),
         r"\(> 0\.0e\+00\) at t [0-9.]+ \(seed 4 stream 0 n 3 K 1\)$"),
        ("doob", checks, "upcrossings_at_events", lambda real: lambda p, h: real(p, h) + 10 ** 6,
         r"\(seed 4 stream 0 n 0 K [0-9.]+ t [0-9.e-]+\)$"),
        ("doob", checks, "capital_curve",
         lambda real: lambda s, p: replace(real(s, p), values=real(s, p).values - 2.0),
         r"^aggregate not strongly 1-admissible \(seed 4 stream 0 n 0 K 1\.0\)$"),
        ("hoeffding", checks, "hoeffding_check",
         lambda real: lambda p, t, c, lam: replace(real(p, t, c, lam), ok=False),
         r"^wealth fell below .* \(seed 4 stream 0 lam -2\.0\)$"),
        ("lift", checks, "check_strong_admissibility",
         lambda real: lambda s, ps, lam: [replace(v, ok=False) for v in real(s, ps, lam)],
         r"^lifted strategy broke its strong budget \(seed 4 stream 0 K 2\.0\)$"),
        ("bdg", checks, "bdg_check_batch",
         lambda real: lambda seqs: (lambda lhs, rhs: (lhs + 10.0 ** 6, rhs))(*real(seqs)),
         r"^transform bound violated by 1\.000e\+06 \(seed 4 stream 2\)$"),
        ("bdg-bound", integration, "_integral_summary",
         lambda real: lambda F, st: (lambda Fi, c, sup, comp: (Fi, c, sup + 10.0 ** 6, comp))(
             *real(F, st)),
         r"^pathwise transform bound violated by 1\.000e\+06 \(seed 4 stream 0\)$"),
        ("concentration", integration, "_integral_summary",
         lambda real: lambda F, st: real(F, st)[:2] + (math.inf, 0.0),
         r"^frequency 1\.0000 > bound 0\.0222 \+ 3se \(seed 4 count 2: 2 streams in the "
         r"event, the first at streams 0, 1\)$"),
    ], ids=["l-identity", "doob", "doob-admissibility", "hoeffding", "lift", "bdg",
            "bdg-bound", "concentration-frequency"])
    def test_a_failed_identity_names_where(self, tmp_path, monkeypatch, check, owner, name,
                                           broken, location):
        """Each failure kind names its seed and stream, in the library's message and in the
        report's detail; a failed frequency bound names the first streams in its event."""
        monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
        verify = {"bdg": lambda seed, count: checks.bdg(checks.bdg_sequences(seed, count), seed),
                  "bdg-bound": lambda seed, count: checks.bdg_bound(
                      seed, count, a=3.0, b=1.5, c=1.0, M=1.0, n_max=6),
                  "concentration": lambda seed, count: checks.concentration(
                      seed, count, a=3.0, b=1.5, n_max=6)}  # at verify's defaults
        run = verify.get(check) or getattr(checks, check.replace("-", "_"))
        error = CheckFailedError if check == "concentration" else InternalConsistencyError
        with pytest.raises(error, match=location) as failure:
            run(4, 2)
        out = tmp_path / "v"
        assert main(["verify", "--check", check, "--count", "2", "--seed", "4",
                     "--output-dir", str(out)]) == (EXIT_CHECK_FAILED if error is CheckFailedError
                                                    else EXIT_INTERNAL)
        record = json.loads((out / "verification_report.json").read_text())["checks"][0]
        assert record == {"name": check, "passed": False, "detail": str(failure.value)}

    def test_lift_small(self, tmp_path):
        code = main(["verify", "--check", "lift", "--count", "40",
                     "--seed", "5", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_lift_takes_the_largest_seed(self, tmp_path, monkeypatch):
        """Seed 2^64 - 1 is valid: its paths are drawn with seed 0, the next seed mod 2^64,
        while every other seed keeps the paths of ``seed + 1``."""
        drawn = []

        def paths(spec, count, **changes):
            drawn.append(changes["seed"])
            return real_paths(spec, count, **changes)

        real_paths = checks.paths
        monkeypatch.setattr(checks, "paths", paths)
        assert checks.lift(2 ** 64 - 1, 3).seed == 2 ** 64 - 1
        assert checks.lift(5, 3).seed == 5
        assert main(["verify", "--check", "lift", "--count", "3", "--seed", str(2 ** 64 - 1),
                     "--output-dir", str(tmp_path / "v")]) == EXIT_OK
        assert drawn == [0, 6, 0]

    @pytest.mark.parametrize("check, small, large", [("concentration", 4, 40),
                                                     ("bdg-bound", 4, 100),
                                                     ("doob", 4, 40),
                                                     ("l-identity", 4, 40),
                                                     ("lift", 20, 400),
                                                     ("hoeffding", 20, 400),
                                                     ("bdg", 2 * checks.BDG_CHUNK,
                                                      8 * checks.BDG_CHUNK)])
    def test_streaming_checks_hold_one_path_at_a_time(self, tmp_path, check, small, large):
        """The peak traced memory grows with --count by the per-path records alone."""
        def peak(count):
            argv = ["verify", "--check", check, "--count", str(count), "--seed", "2",
                    "--output-dir", str(tmp_path / f"v{count}")]
            with contextlib.redirect_stdout(io.StringIO()):
                tracemalloc.start()
                try:
                    assert main(argv) == EXIT_OK
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(1)  # first-use allocations of NumPy and the library
        # holding every path of the ensemble would add about 60 KiB per
        # concentration path, 2 KiB per bdg-bound path, 12 KiB per doob path,
        # 16 KiB per l-identity path, 1.4 KiB per lift path, 1.5 KiB per
        # hoeffding walk and 0.9 KiB per bdg sequence (checked BDG_CHUNK at a
        # time); the per_path records of doob and lift take under 0.5 KiB per path
        bound = {"doob": 128, "lift": 320, "bdg": 64}.get(check, 48) * 1024
        assert peak(large) - peak(small) < bound

    def test_report_reproducible_byte_identical(self, tmp_path, monkeypatch):
        # successive clock readings drift further apart, so no two runs take
        # the same time; the report must not record it
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)) ** 2)
        reports = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["verify", "--check", "all", "--count", "3", "--seed", "1",
                         "--output-dir", str(out)]) == EXIT_OK
            reports.append((out / "verification_report.json").read_bytes())
        assert reports[0] == reports[1]


class TestConfigFile:
    def test_config_overrides(self, tmp_path, p1_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-max": 10, "input": str(p1_file)}))
        out = tmp_path / "qv"
        code = main(["qv", "--input", "ignored-overridden.csv",
                     "--config", str(cfg), "--output-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "qv_report.json").read_text())
        assert report["n_max"] == 10

    def test_a_config_run_leaves_the_one_parser_as_it_was(self, tmp_path, p1_file, monkeypatch):
        # build_parser is cached: every main call parses with the same parser object
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        before = vars(parser.parse_args(["qv", "--input", "x.csv"]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-max": 3, "tol": 0.5, "input": str(p1_file)}))
        assert main(["qv", "--input", "x.csv", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "qv")]) == EXIT_OK
        assert vars(parser.parse_args(["qv", "--input", "x.csv"])) == before
        # and holds no command function: one patched after it was built is the one called
        monkeypatch.setattr(cli, "cmd_qv", lambda args: (EXIT_OK, [{"name": "patched",
                                                                    "passed": True}]))
        assert main(["qv", "--input", "x.csv", "--output-dir", str(tmp_path / "p")]) == EXIT_OK
        assert json.loads((tmp_path / "p" / "manifest.json").read_text())["checks"] == [
            {"name": "patched", "passed": True}]

    def test_unknown_key_is_config_error(self, tmp_path, p1_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["qv", "--input", str(p1_file), "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


# (first run's argv; the replay's argv, with placeholders for required flags)
REPLAY_CASES = {
    "simulate": (["simulate", "--kind", "jump-diffusion", "--steps", "32", "--count", "2",
                  "--seed", "3", "--jump-intensity", "5", "--psi", "constant:0.4"],
                 ["simulate"]),
    "qv": (["qv", "--input", "{p1}", "--n-max", "6", "--tol", "1e-3"],
           ["qv", "--input", "placeholder.csv"]),
    "crossings": (["crossings", "--input", "{p1}", "--h", "0.25", "--t", "2.5"],
                  ["crossings", "--input", "placeholder.csv", "--h", "1"]),
    "integrate": (["integrate", "--input", "{p1}", "--rule", "const:2", "--n-max", "5"],
                  ["integrate", "--input", "placeholder.csv"]),
    "verify": (["verify", "--check", "l-identity", "--count", "2", "--seed", "4", "--K", "2",
                "--psi", "constant:0.3"],
               ["verify"]),
    "continuity": (["continuity", "--ensemble", "cadlag", "--count", "5", "--n-max", "4",
                    "--psi", "constant:0.3", "--epsilon", "0.3"],
                   ["continuity"]),
}


def _run(argv, out, p1_file):
    code = main([a.format(p1=p1_file) for a in argv] + ["--output-dir", str(out)])
    return code, json.loads((out / "manifest.json").read_text())


class TestManifest:
    @pytest.mark.parametrize("command", sorted(REPLAY_CASES))
    def test_manifest_config_replays_the_run(self, tmp_path, p1_file, command):
        first, replay = REPLAY_CASES[command]
        code, manifest = _run(first, tmp_path / "a", p1_file)
        assert code == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(manifest["config"]))
        assert _run(replay + ["--config", str(cfg)], tmp_path / "b", p1_file) \
            == (code, manifest | {"timestamp": ANY})
        files = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert files == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in files:
            if name != "manifest.json":
                assert (tmp_path / "a" / name).read_bytes() \
                    == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("argv, flag, values", [
        (["continuity", "--ensemble", "cadlag", "--count", "2", "--n-max", "2"],
         "--psi", ["affine:0.1,0.1", "constant:0.3"]),
        (["simulate", "--steps", "4"], "--count", ["1", "2"]),
    ])
    def test_runs_with_different_flags_have_different_records(self, tmp_path, p1_file,
                                                               argv, flag, values):
        hashes = {_run(argv + [flag, v], tmp_path / v, p1_file)[1]["config_sha256"]
                  for v in values}
        assert len(hashes) == len(values)

    def test_manifest_hash_stable(self, tmp_path, p1_file):
        outs = []
        for sub in ("m1", "m2"):
            out = tmp_path / sub
            assert main(["qv", "--input", str(p1_file), "--output-dir", str(out)]) == EXIT_OK
            outs.append(json.loads((out / "manifest.json").read_text()))
        assert outs[0]["config_sha256"] == outs[1]["config_sha256"]
        assert (tmp_path / "m1" / "qv_limit.csv").read_bytes() \
            == (tmp_path / "m2" / "qv_limit.csv").read_bytes()


GOOD_CSV = "t,x1\n0.0,0.0\n1.0,0.5\n2.0,0.25\n"


def _failing_check(exc):
    def check(args):
        raise exc
    return check


# (case, files written to the run directory, argv, verify check replaced, exit code)
EXIT_CODE_CASES = [
    ("qv ok", {"p.csv": GOOD_CSV}, ["qv", "--input", "p.csv"], None, EXIT_OK),
    ("config converted by flag type", {"p.csv": GOOD_CSV, "c.json": '{"n-max": "3", "tol": 1}'},
     ["qv", "--input", "p.csv", "--config", "c.json"], None, EXIT_OK),
    ("ragged csv row", {"p.csv": "t,x1\n0.0,0.0\n1.0,0.5,0.7\n"},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("non-numeric csv cell", {"p.csv": "t,x1\n0.0,zero\n"},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("empty csv", {"p.csv": ""}, ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("malformed sidecar json", {"p.csv": GOOD_CSV, "p.json": "{mode"},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("csv without value column", {"p.csv": "t\n0.0\n1.0\n"},
     ["integrate", "--input", "p.csv"], None, EXIT_CONFIG),
    ("sidecar horizon not a number", {"p.csv": GOOD_CSV, "p.json": '{"horizon": "soon"}'},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("sidecar horizon infinite", {"p.csv": GOOD_CSV, "p.json": '{"horizon": Infinity}'},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("sidecar mode not a string", {"p.csv": GOOD_CSV, "p.json": '{"mode": ["step"]}'},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("malformed config json", {"p.csv": GOOD_CSV, "c.json": "{n-max"},
     ["qv", "--input", "p.csv", "--config", "c.json"], None, EXIT_CONFIG),
    ("sidecar not utf-8", {"p.csv": GOOD_CSV, "p.json": b"\xff\xfe{"},
     ["qv", "--input", "p.csv"], None, EXIT_CONFIG),
    ("config not utf-8", {"p.csv": GOOD_CSV, "c.json": b"\xff{"},
     ["qv", "--input", "p.csv", "--config", "c.json"], None, EXIT_CONFIG),
    ("config not an object", {"c.json": "[1, 2]"},
     ["simulate", "--config", "c.json"], None, EXIT_CONFIG),
    ("config value of wrong type", {"c.json": '{"count": "ten"}'},
     ["simulate", "--config", "c.json"], None, EXIT_CONFIG),
    ("config list value", {"c.json": '{"count": [1]}'},
     ["simulate", "--config", "c.json"], None, EXIT_CONFIG),
    ("config value outside choices", {"c.json": '{"check": "nope"}'},
     ["verify", "--config", "c.json"], None, EXIT_CONFIG),
    ("qv n-max 0", {"p.csv": GOOD_CSV}, ["qv", "--input", "p.csv", "--n-max", "0"],
     None, EXIT_CONFIG),
    ("integrate n-max 0", {"p.csv": GOOD_CSV},
     ["integrate", "--input", "p.csv", "--n-max", "0"], None, EXIT_CONFIG),
    ("level index beyond int64", {"p.csv": "t,x1\n0.0,1000000.0\n1.0,1000000.5\n"},
     ["qv", "--input", "p.csv", "--n-max", "52"], None, EXIT_CONFIG),
    ("crossings spacing too fine", {"p.csv": GOOD_CSV},
     ["crossings", "--input", "p.csv", "--h", "1e-7"], None, EXIT_CONFIG),
    ("linear partition too long",
     {"p.csv": "t,x1\n0.0,0.0\n1.0,1000000000.0\n", "p.json": '{"mode": "linear"}'},
     ["qv", "--input", "p.csv", "--n-max", "3"], None, EXIT_CONFIG),
    ("qv tol nan", {"p.csv": GOOD_CSV}, ["qv", "--input", "p.csv", "--tol", "nan"],
     None, EXIT_CONFIG),
    ("verify count negative", {}, ["verify", "--check", "bdg", "--count", "-5"],
     None, EXIT_CONFIG),
    ("verify K negative", {}, ["verify", "--check", "doob", "--K", "-1"], None, EXIT_CONFIG),
    ("integrate const rule not a number", {"p.csv": GOOD_CSV},
     ["integrate", "--input", "p.csv", "--rule", "const:abc"], None, EXIT_CONFIG),
    ("verify lambda negative", {}, ["verify", "--check", "lift", "--lambda", "-1"],
     None, EXIT_CONFIG),
    ("verify lambda whose double overflows", {},
     ["verify", "--check", "lift", "--count", "2", "--lambda", "8.99e307"], None, EXIT_CONFIG),
    ("verify lambda whose lift budget overflows", {},
     ["verify", "--check", "lift", "--count", "2", "--lambda", "8.98e307"], None, EXIT_CONFIG),
    ("bdg-bound bound inf * 0", {},
     ["verify", "--check", "bdg-bound", "--count", "2", "--M", "1e308", "--c", "0"],
     None, EXIT_CONFIG),
    ("bdg-bound a zero", {}, ["verify", "--check", "bdg-bound", "--a", "0"], None, EXIT_CONFIG),
    ("bdg-bound b negative", {}, ["verify", "--check", "bdg-bound", "--b", "-1"],
     None, EXIT_CONFIG),
    ("bdg-bound c nan", {}, ["verify", "--check", "bdg-bound", "--count", "3", "--c", "nan"],
     None, EXIT_CONFIG),
    ("bdg-bound c negative", {}, ["verify", "--check", "bdg-bound", "--count", "3", "--c", "-1"],
     None, EXIT_CONFIG),
    ("bdg-bound M nan", {}, ["verify", "--check", "bdg-bound", "--count", "3", "--M", "nan"],
     None, EXIT_CONFIG),
    ("bdg-bound M negative", {}, ["verify", "--check", "bdg-bound", "--count", "3", "--M", "-1"],
     None, EXIT_CONFIG),
    ("concentration a nan", {}, ["verify", "--check", "concentration", "--a", "nan"],
     None, EXIT_CONFIG),
    ("continuity epsilon nan", {}, ["continuity", "--count", "2", "--n-max", "2",
                                    "--epsilon", "nan"], None, EXIT_CONFIG),
    ("continuity epsilon 0", {}, ["continuity", "--count", "2", "--n-max", "2",
                                  "--epsilon", "0"], None, EXIT_CONFIG),
    ("continuity epsilon 1", {}, ["continuity", "--count", "2", "--n-max", "2",
                                  "--epsilon", "1"], None, EXIT_CONFIG),
    ("qv takes no seed", {"p.csv": GOOD_CSV}, ["qv", "--input", "p.csv", "--seed", "1"],
     None, EXIT_CONFIG),
    ("crossings takes no seed", {"p.csv": GOOD_CSV},
     ["crossings", "--input", "p.csv", "--h", "1", "--seed", "1"], None, EXIT_CONFIG),
    ("integrate takes no seed", {"p.csv": GOOD_CSV},
     ["integrate", "--input", "p.csv", "--seed", "1"], None, EXIT_CONFIG),
    ("verify seed negative", {}, ["verify", "--check", "bdg", "--seed", "-1"], None, EXIT_CONFIG),
    ("simulate seed beyond 64 bits", {}, ["simulate", "--seed", str(2 ** 64)], None, EXIT_CONFIG),
    ("config null for a required flag", {"p.csv": GOOD_CSV, "c.json": '{"h": null}'},
     ["crossings", "--input", "p.csv", "--h", "1", "--config", "c.json"], None, EXIT_CONFIG),
    ("simulate jump intensity nan", {},
     ["simulate", "--kind", "jump-diffusion", "--jump-intensity", "nan"], None, EXIT_CONFIG),
    ("simulate jump intensity per step too large", {},
     ["simulate", "--kind", "jump-diffusion", "--jump-intensity", "1e300"], None, EXIT_CONFIG),
    ("doob K below every path", {},
     ["verify", "--check", "doob", "--count", "3", "--K", "1e-300"], None, EXIT_CONFIG),
    ("doob K spans too many intervals", {},
     ["verify", "--check", "doob", "--count", "2", "--K", "1e300"], None, EXIT_CONFIG),
    ("l-identity K overflows the budget", {},
     ["verify", "--check", "l-identity", "--count", "2", "--K", "1e300"], None, EXIT_CONFIG),
    ("verify a nan on a check that does not read it", {},
     ["verify", "--check", "bdg", "--count", "3", "--a", "nan"], None, EXIT_CONFIG),
    ("verify b inf on a check that does not read it", {},
     ["verify", "--check", "bdg", "--count", "3", "--b", "inf"], None, EXIT_CONFIG),
    ("verify c nan on a check that does not read it", {},
     ["verify", "--check", "bdg", "--count", "3", "--c", "nan"], None, EXIT_CONFIG),
    ("verify M -inf on a check that does not read it", {},
     ["verify", "--check", "bdg", "--count", "3", "--M=-inf"], None, EXIT_CONFIG),
    ("config a NaN", {"c.json": '{"a": NaN}'},
     ["verify", "--check", "bdg", "--count", "3", "--config", "c.json"], None, EXIT_CONFIG),
    ("simulate amplitude nan", {}, ["simulate", "--kind", "brownian", "--amplitude", "nan"],
     None, EXIT_CONFIG),
    ("simulate jump mean inf", {}, ["simulate", "--kind", "jump-diffusion", "--jump-intensity",
                                    "5", "--jump-mean", "inf"], None, EXIT_CONFIG),
    ("simulate psi nan", {}, ["simulate", "--kind", "jump-diffusion", "--jump-intensity", "5",
                              "--psi", "constant:nan"], None, EXIT_CONFIG),
    ("simulate psi inf", {}, ["simulate", "--kind", "jump-diffusion", "--jump-intensity", "5",
                              "--psi", "affine:0.1,inf"], None, EXIT_CONFIG),
    ("continuity psi nan", {}, ["continuity", "--ensemble", "cadlag", "--count", "2",
                                "--n-max", "2", "--psi", "constant:nan"], None, EXIT_CONFIG),
    ("crossings scaled value beyond int64", {"p.csv": "t,x1\n0,1e300\n1,1e300\n"},
     ["crossings", "--input", "p.csv", "--h", "0.5"], None, EXIT_CONFIG),
    ("crossings scaled value at 5e18",
     {"p.csv": "t,x1\n0,5e18\n1,5.000000000000002e18\n2,5e18\n"},
     ["crossings", "--input", "p.csv", "--h", "1"], None, EXIT_CONFIG),
    ("crossings quotient overflows", {"p.csv": "t,x1\n0,-1e308\n1,0\n"},
     ["crossings", "--input", "p.csv", "--h", "0.5"], None, EXIT_CONFIG),
    ("bdg-bound psi beyond float64", {},
     ["verify", "--check", "bdg-bound", "--count", "2", "--psi", "power:1,1000", "--M", "10"],
     None, EXIT_CONFIG),
    ("simulate affine psi beyond float64", {},
     ["simulate", "--kind", "jump-diffusion", "--jump-intensity", "5", "--x0", "1e10",
      "--steps", "4", "--psi", "affine:1,1e300"], None, EXIT_CONFIG),
    ("continuity psi beyond float64", {},
     ["continuity", "--ensemble", "cadlag", "--count", "3", "--psi", "power:1,1000"],
     None, EXIT_CONFIG),
    ("simulate geometric values overflow", {},
     ["simulate", "--kind", "geometric-brownian", "--x0", "1", "--drift", "1e300"],
     None, EXIT_CONFIG),
    ("simulate steps above the size cap", {},
     ["simulate", "--kind", "brownian", "--steps", "10000000000000"], None, EXIT_CONFIG),
    ("simulate dim above the size cap", {},
     ["simulate", "--kind", "brownian", "--steps", "4", "--dim", "100000000000"],
     None, EXIT_CONFIG),
    ("simulate brownian values overflow", {},
     ["simulate", "--kind", "brownian", "--x0", "1e308", "--drift", "1e308", "--steps", "4"],
     None, EXIT_CONFIG),
    ("integral beyond float64", {"p.csv": "t,x1\n0.0,0.0\n1.0,1.0\n2.0,3.0\n"},
     ["integrate", "--input", "p.csv", "--rule", "const:1e308"], None, EXIT_CONFIG),
    ("config value not positive", {"p.csv": GOOD_CSV, "c.json": '{"tol": -1}'},
     ["qv", "--input", "p.csv", "--config", "c.json"], None, EXIT_CONFIG),
    ("missing input", {}, ["qv", "--input", "absent.csv"], None, EXIT_IO),
    ("missing config", {"p.csv": GOOD_CSV},
     ["qv", "--input", "p.csv", "--config", "absent.json"], None, EXIT_IO),
    ("identity failed", {}, ["verify", "--check", "bdg"],
     InternalConsistencyError("injected"), EXIT_INTERNAL),
    ("bound check failed", {}, ["verify", "--check", "bdg"],
     CheckFailedError("injected"), EXIT_CHECK_FAILED),
]


@pytest.mark.parametrize("files, argv, failure, expected",
                         [case[1:] for case in EXIT_CODE_CASES],
                         ids=[case[0] for case in EXIT_CODE_CASES])
def test_exit_code_contract(tmp_path, monkeypatch, files, argv, failure, expected):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    if failure is not None:
        monkeypatch.setitem(cli.VERIFY_CHECKS, "bdg", _failing_check(failure))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output-dir", "out"]) == expected


# each command with only its required flags
REQUIRED_ARGV = {
    "simulate": ["simulate"],
    "qv": ["qv", "--input", "p.csv"],
    "crossings": ["crossings", "--input", "p.csv", "--h", "1"],
    "integrate": ["integrate", "--input", "p.csv"],
    "verify": ["verify"],
    "continuity": ["continuity"],
}
# the parsed flags of REQUIRED_ARGV, but the command, --config and --output-dir
DEFAULTS = {
    "simulate": {"seed": 0, "kind": "brownian", "steps": 256, "count": 1, "horizon": 1.0,
                 "dim": 1, "drift": 0.0, "volatility": 1.0, "jump_intensity": 0.0,
                 "jump_mean": 0.0, "jump_std": 0.1, "x0": 0.0, "amplitude": 1.0, "value": 0.0,
                 "psi": None, "mode": None},
    "qv": {"input": "p.csv", "n_max": 12, "tol": 1e-08},
    "crossings": {"input": "p.csv", "h": 1.0, "t": None},
    "integrate": {"input": "p.csv", "rule": "prev-price", "n_max": 10, "tol": 1e-06},
    "verify": {"seed": 0, "check": "all", "count": 200, "K": None, "lam": 0.5, "psi": None,
               "a": 3.0, "b": 1.5, "c": 1.0, "M": 1.0, "n_max": 6},
    "continuity": {"seed": 0, "ensemble": "continuous", "count": 50, "epsilon": 0.25,
                   "n_max": 6, "psi": None},
}
SUBPARSERS = next(a for a in cli.build_parser()._actions if a.dest == "command").choices

# (command, flag, a value just outside the flag's domain)
OUT_OF_DOMAIN = [
    ("simulate", "--count", "0"), ("simulate", "--steps", "0"), ("simulate", "--horizon", "0"),
    ("simulate", "--dim", "0"), ("simulate", "--drift", "inf"),
    ("simulate", "--volatility", "-1"), ("simulate", "--jump-intensity", "-1"),
    ("simulate", "--jump-mean", "nan"), ("simulate", "--jump-std", "-1"),
    ("simulate", "--x0", "inf"), ("simulate", "--amplitude", "nan"),
    ("simulate", "--value", "-inf"), ("simulate", "--seed", "-1"),
    ("simulate", "--seed", str(2 ** 64)),
    ("qv", "--n-max", "1.5"), ("qv", "--n-max", "0"), ("qv", "--tol", "0"),
    ("crossings", "--h", "-1"), ("crossings", "--t", "nan"),
    ("integrate", "--n-max", "0"), ("integrate", "--tol", "nan"),
    ("verify", "--seed", "-1"), ("verify", "--count", "0"), ("verify", "--K", "nan"),
    ("verify", "--lambda", "inf"), ("verify", "--a", "nan"), ("verify", "--b", "inf"),
    ("verify", "--c", "nan"), ("verify", "--M", "-inf"), ("verify", "--n-max", "0"),
    ("continuity", "--seed", str(2 ** 64)), ("continuity", "--count", "0"),
    ("continuity", "--epsilon", "inf"), ("continuity", "--n-max", "0"),
]


def _numeric_actions(command):
    return {opt: a for a in SUBPARSERS[command]._actions for opt in a.option_strings
            if a.type is not None}


class TestFlagIntake:
    def test_every_numeric_flag_is_in_the_table(self):
        table = {(command, flag) for command, flag, _ in OUT_OF_DOMAIN}
        assert table == {(command, flag) for command in SUBPARSERS
                         for flag in _numeric_actions(command)}

    def test_every_typed_flag_is_checked_by_the_scalar_rule(self):
        for command, sp in SUBPARSERS.items():
            for action in sp._actions:
                if action.type not in (None, str):
                    assert action.type.__qualname__ == "_flag.<locals>.parse", \
                        (command, action.dest)

    @pytest.mark.parametrize("command, flag, value", OUT_OF_DOMAIN)
    def test_out_of_domain_exits_2_from_flags_and_config(self, tmp_path, monkeypatch, capsys,
                                                         command, flag, value):
        monkeypatch.chdir(tmp_path)
        assert main(REQUIRED_ARGV[command] + [f"{flag}={value}"]) == EXIT_CONFIG
        assert f"argument {flag}:" in capsys.readouterr().err
        key = _numeric_actions(command)[flag].dest
        with contextlib.suppress(ValueError):  # a number goes in as one, anything else as text
            value = json.loads(value)
        (tmp_path / "c.json").write_text(json.dumps({key: value}))
        assert main(REQUIRED_ARGV[command] + ["--config", "c.json"]) == EXIT_CONFIG
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_messages_are_the_scalar_rules(self, capsys):
        assert main(["simulate", "--steps", "0"]) == EXIT_CONFIG
        assert "argument --steps: steps must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_defaults_are_unchanged(self):
        parser = cli.build_parser()
        for command, argv in REQUIRED_ARGV.items():
            assert vars(parser.parse_args(argv)) == {"command": command, "config": None,
                                                     "output_dir": "out"} | DEFAULTS[command]

    def test_simulate_flags_are_the_simspec_fields(self):
        assert {a.dest for a in SUBPARSERS["simulate"]._actions} == \
            {f.name for f in fields(SimSpec)} | {"count", "config", "output_dir", "help"}

    def test_bad_mode_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--mode", "spline", "--output-dir", str(tmp_path)]) \
            == EXIT_CONFIG
        assert "unknown mode 'spline'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(REQUIRED_ARGV))
    def test_help_exits_0(self, capsys, command):
        assert main([command, "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: pathcalc {command}")
