import csv
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest

from esacert import cli, golden, schemas
from esacert.cli import build_parser, run


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecideCommand:
    def test_esa_exit_zero(self, capsys):
        code, out, err = invoke(capsys, ["decide", "--m", "2", "--n", "8",
                                         "--l", "0", "--c", "0"])
        assert code == 0
        assert "ESA" in out
        assert "elapsed" in err and "elapsed" not in out

    def test_not_esa_exit_ten(self, capsys):
        code, out, _ = invoke(capsys, ["decide", "--m", "5", "--n", "20",
                                       "--l", "0", "--c", "15000000000"])
        assert code == 10
        assert "NotESA" in out

    def test_boundary_coupling_is_esa(self, capsys):
        code, out, _ = invoke(capsys, ["decide", "--m", "2", "--n", "3",
                                       "--l", "0", "--c", "45"])
        assert code == 0

    def test_decimal_coupling_parsed_exactly(self, capsys):
        # 0.25 == 1/4 exactly; both spellings give identical JSON
        _, out1, _ = invoke(capsys, ["decide", "--m", "2", "--n", "3", "--l", "0",
                                     "--c", "0.25", "--json"])
        _, out2, _ = invoke(capsys, ["decide", "--m", "2", "--n", "3", "--l", "0",
                                     "--c", "1/4", "--json"])
        assert json.loads(out1)["result"] == json.loads(out2)["result"]

    def test_malformed_rational_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["decide", "--m", "2", "--n", "3", "--l", "0", "--c", "abc"])
        assert exc.value.code == 2

    def test_json_schema_and_determinism(self, capsys):
        argv = ["decide", "--m", "2", "--n", "8", "--l", "0", "--c", "0", "--json"]
        _, out1, _ = invoke(capsys, argv)
        _, out2, _ = invoke(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        jsonschema.validate(payload, schemas.ENVELOPE_SCHEMA)
        jsonschema.validate(payload["result"], schemas.VERDICT_RESULT_SCHEMA)

    def test_rational_axis_parameter_prints_as_rational(self, capsys):
        _, out, _ = invoke(capsys, ["decide", "--m", "2", "--n", "8", "--c", "0",
                                    "--json"])
        certificate = json.loads(out)["result"]["certificate"]
        assert certificate["axis_parameters"] == [{"type": "rational", "value": "0"}]


class TestRegionCommand:
    def test_island_rendering(self, capsys):
        code, out, _ = invoke(capsys, ["region", "--m", "5", "--n", "20",
                                       "--l", "0", "--digits", "5"])
        assert code == 0
        assert out.splitlines()[0] == "[0, 1.0436e10] ∪ [1.8324e10, ∞)"

    def test_full_region_all_sectors(self, capsys):
        code, out, _ = invoke(capsys, ["region", "--m", "2", "--n", "5",
                                       "--all-l", "--lmax", "50"])
        assert code == 0
        assert out.splitlines()[0] == "[21, ∞)"

    def test_sixth_order_zero_threshold(self, capsys):
        code, out, _ = invoke(capsys, ["region", "--m", "3", "--n", "12", "--l", "0"])
        assert code == 0
        assert out.splitlines()[0] == "[0, ∞)"

    @pytest.mark.parametrize("m, n, lo", ((3, 6, "716800/27"), (1, 10, "-15")))
    def test_rational_boundary_found_exactly(self, capsys, m, n, lo):
        argv = ["region", "--m", str(m), "--n", str(n), "--l", "0"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert out.splitlines() == [f"[{lo}, ∞)"]
        _, out, _ = invoke(capsys, argv + ["--json"])
        result = json.loads(out)["result"]
        assert result["pieces"][0]["lo"] == {"type": "rational", "value": lo}
        assert result["warnings"] == []

    def test_region_json_schema(self, capsys):
        _, out, _ = invoke(capsys, ["region", "--m", "5", "--n", "20", "--l", "0",
                                    "--json"])
        payload = json.loads(out)
        jsonschema.validate(payload, schemas.ENVELOPE_SCHEMA)
        jsonschema.validate(payload["result"], schemas.REGION_RESULT_SCHEMA)

    def test_missing_sector_flag(self, capsys):
        code, _, _ = invoke(capsys, ["region", "--m", "2", "--n", "5"])
        assert code == 2

    def test_parallel_matches_sequential(self, capsys):
        argv = ["region", "--m", "2", "--n", "8", "--all-l", "--lmax", "6", "--json"]
        _, seq, _ = invoke(capsys, argv)
        _, par, _ = invoke(capsys, argv[:-1] + ["--jobs", "2", "--json"])
        a, b = json.loads(seq), json.loads(par)
        assert a["result"] == b["result"]


class TestTableCommand:
    def test_gamma_table_matches(self, capsys):
        code, out, _ = invoke(capsys, ["table", "--which", "gamma2"])
        assert code == 0
        assert "231/16" in out
        assert "all entries match" in out

    def test_signs_table_matches(self, capsys):
        code, out, _ = invoke(capsys, ["table", "--which", "signs520"])
        assert code == 0

    def test_tampered_golden_data_exit_twenty(self, capsys, monkeypatch):
        monkeypatch.setitem(golden.GAMMA2_TABLE, 7, F(999))
        code, _, err = invoke(capsys, ["table", "--which", "gamma2"])
        assert code == 20
        assert "MISMATCH" in err


class TestExactVerdictPaths:
    def test_no_numeric_root_finding(self, capsys, monkeypatch):
        # verdicts, regions and thresholds never call the numeric root iteration
        from esacert import roots

        def numeric(*args, **kwargs):
            raise AssertionError("numeric root finding on a verdict path")

        monkeypatch.setattr(roots, "_aberth", numeric)
        argvs = (["decide", "--m", "5", "--n", "20", "--c", "15000000000"],
                 ["decide", "--m", "2", "--n", "3", "--c", "45", "--json"],
                 ["region", "--m", "2", "--n", "5", "--all-l", "--lmax", "10"],
                 ["table", "--which", "gamma2"])
        codes = [invoke(capsys, argv)[0] for argv in argvs]
        assert codes == [10, 0, 0, 0]


class TestFigureCommand:
    def test_fig1_requires_c1(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, ["figure", "--which", "fig1",
                                     "--out", str(tmp_path / "new")])
        assert code == 2
        assert not (tmp_path / "new").exists()

    def test_fig1_trajectories(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, ["figure", "--which", "fig1", "--c1", "-3",
                                     "--out", str(tmp_path), "--steps", "13"])
        assert code == 0
        path = tmp_path / "fig1_trajectories.csv"
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["c", "j", "re", "im", "radius",
                           "ambiguous_flag", "highlight"]
        assert len(rows) == 1 + 13 * 4
        flagged = {r[1] for r in rows[1:] if r[6] == "1"}
        assert flagged == {"2"}

    def test_fig3_fifty_series(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, ["figure", "--which", "fig3",
                                     "--out", str(tmp_path), "--steps", "5"])
        assert code == 0
        series = set()
        for l in range(5):
            rows = list(csv.reader((tmp_path / f"fig3_l{l}.csv").open()))
            assert len(rows) == 1 + 5 * 10
            for r in rows[1:]:
                series.add((l, r[1]))
        assert len(series) == 50

    def test_fig2_loci_and_region(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, ["figure", "--which", "fig2",
                                     "--out", str(tmp_path)])
        assert code == 0
        rows = list(csv.reader((tmp_path / "fig2_loci.csv").open()))
        assert rows[0] == ["locus_id", "k", "c1", "c2", "esa_flag"]
        lines = {r[1] for r in rows[1:] if r[0] == "line"}
        parabolas = {r[1] for r in rows[1:] if r[0] == "parabola"}
        assert lines == {"0", "1", "2", "3", "4", "5"}
        assert parabolas == {"0", "1", "2", "3"}
        region_rows = list(csv.reader((tmp_path / "fig2_region.csv").open()))
        assert region_rows[0] == ["c1", "c2", "esa_flag"]
        assert {r[2] for r in region_rows[1:]} == {"0", "1"}

    @pytest.mark.parametrize("argv", (
        ["--which", "fig1", "--c1", "-3", "--steps", "6"],
        ["--which", "fig3", "--steps", "3"],
    ))
    def test_pool_matches_sequential(self, capsys, tmp_path, argv):
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            code, _, _ = invoke(capsys, ["figure", *argv, "--out", str(out),
                                         "--jobs", jobs])
            assert code == 0
            written[jobs] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert written["1"] and written["1"] == written["2"]


@pytest.mark.parametrize("argv", (
    ["figure", "--which", "fig1", "--c1", "-3", "--steps", "1"],
    ["figure", "--which", "fig3", "--steps", "1"],
    ["figure", "--which", "fig1", "--c1", "-3", "--steps", "0"],
    ["figure", "--which", "fig1", "--c1", "-3", "--steps", "3",
     "--sweep-min", "5", "--sweep-max", "5"],
    ["region", "--m", "2", "--n", "5", "--all-l", "--lmax", "-1"],
    ["region", "--m", "2", "--n", "5", "--l", "-1"],
    ["decide", "--m", "0", "--n", "5", "--c", "0"],
    ["decide", "--m", "2", "--n", "1", "--c", "0"],
    ["conjecture", "--mmax", "13"],
    ["conjecture", "--mmax", "0"],
    ["conjecture", "--mmax", "-3"],
    ["region", "--m", "5", "--n", "20", "--l", "0", "--digits", "0"],
    ["region", "--m", "5", "--n", "20", "--l", "0", "--digits", "-2"],
    ["region", "--m", "2", "--n", "5", "--all-l", "--lmax", "1", "--jobs", "0"],
    ["region", "--m", "2", "--n", "5", "--all-l", "--lmax", "1", "--jobs", "-3"],
    ["figure", "--which", "fig3", "--steps", "2", "--jobs", "0"],
    ["figure", "--which", "fig3", "--steps", "2", "--jobs", "-3"],
    ["figure", "--which", "fig2", "--out", "{existing_file}"],
    ["figure", "--which", "fig2", "--out", "{existing_file}/sub"],
))
def test_out_of_range_arguments_exit_two(capsys, tmp_path, argv):
    existing = tmp_path / "existing.txt"
    existing.write_text("")
    argv = [a.replace("{existing_file}", str(existing)) for a in argv]
    if argv[0] == "figure" and "--out" not in argv:
        argv = argv + ["--out", str(tmp_path)]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not list(tmp_path.glob("*.csv"))


class TestBasisCommand:
    def test_generic(self, capsys):
        code, out, _ = invoke(capsys, ["basis", "--c1", "0", "--c2", "-1"])
        assert code == 0
        assert "generic" in out
        assert out.count("0F3") == 4

    def test_line_point(self, capsys):
        code, out, _ = invoke(capsys, ["basis", "--c1", "0", "--c2", "-9/16"])
        assert code == 0
        assert "one-line-lower" in out
        assert "G20" in out

    def test_parabola_point(self, capsys):
        code, out, _ = invoke(capsys, ["basis", "--c1", "0", "--c2", "1"])
        assert code == 0
        assert "one-parabola-lower" in out

    def test_basis_json_roundtrip(self, capsys):
        _, out, _ = invoke(capsys, ["basis", "--c1", "5/4", "--c2", "-39/16",
                                    "--json"])
        payload = json.loads(out)
        jsonschema.validate(payload, schemas.ENVELOPE_SCHEMA)
        kinds = [s["kind"] for s in payload["result"]["solutions"]]
        assert kinds == ["G40", "G30", "G20", "0F3"]
        assert payload["result"]["solutions"][1]["argument"] == "-lambda*r^4/256"
        assert payload["spec"] == {"c1": "5/4", "c2": "-39/16"}

    def test_no_lambda_option(self):
        # the basis does not depend on the spectral parameter
        with pytest.raises(SystemExit) as exc:
            run(["basis", "--c1", "0", "--c2", "-1", "--lambda", "2"])
        assert exc.value.code == 2


class TestConjectureCommand:
    def test_small_table(self, capsys):
        code, out, _ = invoke(capsys, ["conjecture", "--mmax", "2"])
        assert code == 0
        assert "3/4" in out
        assert "45" in out


class TestNoConfigFile:
    """The flags are the only input: no config file or environment variable
    can change a default."""

    def test_config_flag_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("l_max = 3\n")
        with pytest.raises(SystemExit) as exc:
            run(["--config", str(cfg), "table", "--which", "gamma2"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_environment_config_is_ignored(self, capsys, tmp_path,
                                           monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("l_max = 2\n")
        monkeypatch.setenv("ESACERT_CONFIG", str(cfg))
        code, out, _ = invoke(capsys, ["region", "--m", "2", "--n", "8",
                                       "--all-l", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["certification"]["l_max"] == 50
        assert payload["result"]["certified_up_to_l"] == 50


@pytest.mark.parametrize("argv", (
    ["decide", "--m", "2", "--n", "8", "--c", "0"],
    ["region", "--m", "2", "--n", "5", "--all-l", "--lmax", "3"],
    ["basis", "--c1", "0", "--c2", "-1"],
    ["conjecture", "--mmax", "2"],
))
def test_envelope_certifies_no_working_precision(capsys, argv):
    # no JSON payload computes a root disk, so none states a precision
    _, out, _ = invoke(capsys, argv + ["--json"])
    assert set(json.loads(out)["certification"]) == {"l_max", "oracle_crosscheck"}


@pytest.mark.parametrize("argv,code", (
    (["decide", "--m", "2", "--n", "8", "--c", "0"], 0),
    (["decide", "--m", "2", "--n", "7", "--c", "0"], 10),
))
def test_console_entry_point_exits_with_the_run_code(capsys, monkeypatch,
                                                     argv, code):
    # `main` is the `esacert` console script of pyproject.toml
    monkeypatch.setattr(sys, "argv", ["esacert", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    assert "elapsed" in capsys.readouterr().err


class TestSharedParser:
    ARGVS = (
        ["decide", "--m", "2", "--n", "8", "--l", "1", "--c", "-9/16", "--json"],
        ["region", "--m", "2", "--n", "5", "--all-l", "--lmax", "3", "--json"],
        ["table", "--which", "gamma2"],
        ["decide", "--m", "3", "--n", "7", "--c", "100"],
    )

    def test_calls_share_one_parser_without_leaking(self, capsys, monkeypatch):
        cli._shared_parser.cache_clear()
        shared = [invoke(capsys, argv)[:2] for argv in self.ARGVS]
        assert cli._shared_parser.cache_info().misses == 1
        # each call again, every one with a parser of its own
        monkeypatch.setattr(cli, "_shared_parser", build_parser)
        fresh = [invoke(capsys, argv)[:2] for argv in self.ARGVS]
        assert shared == fresh
        # the last decide falls back to l = 0 and plain text after the first
        # decide set --l 1 and --json
        assert not shared[3][1].lstrip().startswith("{")
        assert "l=0" in shared[3][1]

    def test_namespaces_match_a_fresh_parser(self):
        parser = cli._shared_parser()
        for argv in self.ARGVS + self.ARGVS[::-1]:
            assert parser.parse_args(argv) == build_parser().parse_args(argv)


def test_console_script_end_to_end():
    # the fresh interpreter imports the same esacert as this test process,
    # also when pytest put ./src on sys.path (pyproject's pythonpath)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "esacert.cli", "decide", "--m", "2", "--n", "3",
         "--l", "0", "--c", "45", "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["verdict"] == "ESA"
    assert "elapsed" in proc.stderr


def test_closed_stdout_pipe_exits_without_traceback():
    # the read end closes before the command prints, as in `esacert ... | true`
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with subprocess.Popen(
            [sys.executable, "-m", "esacert.cli", "region", "--m", "5", "--n", "20",
             "--l", "0", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path}) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert "Traceback" not in err


def test_figures_import_neither_numpy_nor_scipy(tmp_path):
    # trajectory labels come from a pure-Python assignment, so a fresh
    # interpreter running both trajectory figures loads neither module
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from esacert.cli import run\n"
        "out = sys.argv[1]\n"
        "assert run(['figure', '--which', 'fig1', '--c1', '-3', '--steps', '3',"
        " '--out', out]) == 0\n"
        "assert run(['figure', '--which', 'fig3', '--steps', '2', '--out', out]) == 0\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("*.csv"))) == 6


def test_decide_loads_no_process_pool():
    # the pool behind --jobs is imported only when it is used, so a
    # sequential decide loads neither concurrent.futures.process nor
    # multiprocessing (test_pool_matches_sequential covers the pool)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "import esacert.cli\n"
        "assert esacert.cli.run(['decide', '--m', '2', '--n', '8', '--l', '0',"
        " '--c', '0']) == 0\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verdict_commands_load_no_mpmath():
    # the runtime is the standard library alone: with mpmath unimportable,
    # decide, region, both tables and conjecture run without loading
    # frobenius (which loads on first use of a basis or fig2), and then
    # basis runs in both output modes
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import esacert.cli\n"
        "run = esacert.cli.run\n"
        "assert run(['decide', '--m', '2', '--n', '8', '--l', '0', '--c', '0']) == 0\n"
        "assert run(['region', '--m', '2', '--n', '5', '--all-l', '--lmax', '2']) == 0\n"
        "assert run(['table', '--which', 'gamma2']) == 0\n"
        "assert run(['table', '--which', 'signs520']) == 0\n"
        "assert run(['conjecture', '--mmax', '3']) == 0\n"
        "loaded = 'esacert.frobenius' in sys.modules\n"
        "assert run(['basis', '--c1', '0', '--c2', '-1', '--json']) == 0\n"
        "assert run(['basis', '--c1', '5/4', '--c2', '-39/16']) == 0\n"
        "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert '"case": "generic"' in proc.stdout
    assert "case: line-and-parabola" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"


def test_trajectory_figures_load_no_mpmath(tmp_path):
    # certified root disks are computed in integers and hardware floats, so
    # the trajectory figures run with mpmath unimportable, and so does fig2
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import esacert.cli\n"
        "run = esacert.cli.run\n"
        f"out = {str(tmp_path)!r}\n"
        "assert run(['figure', '--which', 'fig3', '--steps', '3', '--out', out]) == 0\n"
        "assert run(['figure', '--which', 'fig1', '--c1', '-3', '--steps', '4',"
        " '--out', out]) == 0\n"
        "loaded = 'esacert.frobenius' in sys.modules\n"
        "assert run(['figure', '--which', 'fig2', '--out', out]) == 0\n"
        "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert len(list(tmp_path.glob("*.csv"))) == 8


def test_package_resolves_frobenius_names_on_first_use():
    import esacert
    from esacert import frobenius

    assert esacert.select_fundamental_system is frobenius.select_fundamental_system
    assert set(esacert._FROBENIUS) <= set(esacert.__all__)
    with pytest.raises(AttributeError):
        esacert.no_such_name
