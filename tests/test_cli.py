import itertools
import json
import time
from unittest.mock import ANY

import pytest

from pathcalc import cli
from pathcalc.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from pathcalc.errors import CheckFailedError, InternalConsistencyError
from pathcalc.paths import write_path_csv


@pytest.fixture
def p1_file(tmp_path, p1):
    f = tmp_path / "p1.csv"
    write_path_csv(p1, f)
    return f


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

    def test_hoeffding_small(self, tmp_path):
        code = main(["verify", "--check", "hoeffding", "--count", "20",
                     "--seed", "3", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_doob_small(self, tmp_path):
        code = main(["verify", "--check", "doob", "--count", "10",
                     "--seed", "5", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_lift_small(self, tmp_path):
        code = main(["verify", "--check", "lift", "--count", "40",
                     "--seed", "5", "--output-dir", str(tmp_path / "v")])
        assert code == EXIT_OK

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
    ("doob K spans too many intervals", {},
     ["verify", "--check", "doob", "--count", "2", "--K", "1e300"], None, EXIT_CONFIG),
    ("l-identity K overflows the budget", {},
     ["verify", "--check", "l-identity", "--count", "2", "--K", "1e300"], None, EXIT_CONFIG),
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
