import argparse

import pytest
from test_golden import CASES, GOLDEN_DIR, run_case

import netcoh as nc
from netcoh import cli, closed_loop, graphs, scaling, variance
from netcoh.cli import build_parser, main
from netcoh.closed_loop import CONTROLLERS
from netcoh.graphs import FAMILIES

# golden cases of variance --method closed|modal and tune on a --family member
FAMILY_SPECTRUM_CASES = sorted(
    name for name, (argv, _) in CASES.items()
    if argv[0] in ("variance", "tune") and "--family" in argv and "full" not in argv
)


@pytest.fixture
def dapi_gains_file(tmp_path):
    path = tmp_path / "dapi.cfg"
    path.write_text("controller = dapi\nf = 4.0\ng = 0.0\ng0 = 1.0\nki = 1.0\nc = 0.1\n")
    return str(path)


@pytest.fixture
def p_gains_file(tmp_path):
    path = tmp_path / "p.cfg"
    path.write_text("controller = p\nf = 1.0\ng = 1.0\nf0 = 1.0\ng0 = 0.0\n")
    return str(path)


class TestVarianceCommand:
    def test_closed_form_matches_library(self, capsys, p_gains_file):
        rc = main(
            ["variance", "--family", "ring", "--n", "8", "--gains-file", p_gains_file]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,lambda,s_n"
        value = float(out[-2].split(",")[1])
        expected = nc.p_variance(
            nc.spectrum(nc.build_ring(8, 1.0)), nc.PGains(1.0, 1.0, 1.0, 0.0)
        ).v_n
        assert value == pytest.approx(expected, rel=1e-12)

    def test_full_oracle_method(self, capsys, p_gains_file):
        main(["variance", "--family", "ring", "--n", "6", "--gains-file", p_gains_file,
              "--method", "full"])
        closed_line = capsys.readouterr().out.strip().splitlines()[-2]
        full_value = float(closed_line.split(",")[1])
        expected = nc.p_variance(
            nc.spectrum(nc.build_ring(6, 1.0)), nc.PGains(1.0, 1.0, 1.0, 0.0)
        ).v_n
        assert full_value == pytest.approx(expected, rel=1e-8)

    def test_graph_file_input(self, capsys, tmp_path, p_gains_file):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("3\n1 2 1.0\n2 3 1.0\n")
        rc = main(["variance", "--graph", str(graph_file), "--gains-file", p_gains_file])
        assert rc == 0
        assert "V_N," in capsys.readouterr().out

    def test_disconnected_graph_fails(self, capsys, tmp_path, dapi_gains_file):
        graph_file = tmp_path / "two_paths.edges"
        graph_file.write_text("6\n1 2 1.0\n2 3 1.0\n4 5 1.0\n5 6 1.0\n")
        rc = main(["variance", "--graph", str(graph_file), "--gains-file", dapi_gains_file])
        assert rc != 0
        captured = capsys.readouterr()
        assert "V_N" not in captured.out
        assert "disconnected" in captured.err

    def test_full_oracle_answers_zero_tau_as_its_ideal_pd_twin(self, capsys, tmp_path):
        outputs = []
        for text in ("controller = fdpd\nf = 1.0\ng = 0.5\nf0 = 0.3\nkd = 1.2\ntau = 0\n",
                     "controller = p\nf = 1.0\ng = 0.5\nf0 = 0.3\ng0 = 1.2\n"):
            gains_file = tmp_path / "gains.cfg"
            gains_file.write_text(text)
            assert main(["variance", "--family", "ring", "--n", "7", "--gains-file", str(gains_file),
                         "--method", "full"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("n,lambda,s_n\nV_N,")

    @pytest.mark.parametrize("n", [65, 10**6])
    def test_full_oracle_cap_checked_before_assembly(self, capsys, monkeypatch, p_gains_file, n):
        # a million nodes: a dense Laplacian would take 8 TB
        monkeypatch.setattr(cli, "assemble", lambda *a: pytest.fail("assembled past the cap"))
        rc = main(["variance", "--family", "ring", "--n", str(n), "--gains-file", p_gains_file, "--method", "full"])
        assert rc == 2
        assert f"system has N={n} nodes, full oracle capped at {variance.DEFAULT_ORACLE_LIMIT}" in capsys.readouterr().err

    def test_output_file(self, tmp_path, p_gains_file):
        out = tmp_path / "report.csv"
        main(["variance", "--family", "ring", "--n", "6", "--gains-file", p_gains_file,
              "--out", str(out)])
        assert out.read_text().startswith("n,lambda,s_n")


class TestFamilySpectrum:
    """variance (closed, modal) and tune take a family's closed-form spectrum."""

    def test_no_graph_laplacian_or_dense_spectrum(self, monkeypatch, tmp_path, p_gains_file,
                                                  dapi_gains_file):
        def dense(*args, **kwargs):
            raise AssertionError("dense route taken")

        for module, name in ((graphs, "spectrum"), (graphs, "laplacian"), (cli, "spectrum"),
                             (cli, "build_family")):
            monkeypatch.setattr(module, name, dense)
        out = str(tmp_path / "out.csv")
        for method in ("closed", "modal"):
            assert main(["variance", "--family", "torus2", "--n", "5", "--method", method,
                         "--gains-file", p_gains_file, "--out", out]) == 0
        assert main(["tune", "--family", "path", "--n", "7", "--grid-points", "8",
                     "--gains-file", dapi_gains_file, "--out", out]) == 0

    @pytest.mark.parametrize("name", FAMILY_SPECTRUM_CASES)
    def test_golden_family_case_matches_dense_route(self, name, monkeypatch, tmp_path):
        closed = run_case(name, tmp_path).splitlines()
        monkeypatch.setattr(cli, "family_spectrum",
                            lambda *member: graphs.spectrum(graphs.build_family(*member)))
        dense = run_case(name, tmp_path).splitlines()
        assert len(closed) == len(dense)
        for line, expected in zip(closed, dense):
            for cell, want in zip(line.split(","), expected.split(",")):
                try:
                    assert float(cell) == pytest.approx(float(want), rel=1e-12, abs=0.0)
                except ValueError:
                    assert cell == want

    def test_torus_beyond_a_dense_laplacian(self, tmp_path, p_gains_file):
        out = tmp_path / "torus.csv"
        assert main(["variance", "--family", "torus3", "--n", "40", "--gains-file", p_gains_file,
                     "--out", str(out)]) == 0
        footer = dict(line.split(",", 1) for line in out.read_text().splitlines()[-2:])
        expected = nc.variance_by_kind(graphs.family_spectrum("torus3", 40, 1.0), "p",
                                       nc.PGains(1.0, 1.0, 1.0, 0.0))
        assert float(footer["V_N"]) == expected.v_n

    @pytest.mark.parametrize("command", ["variance", "tune"])
    @pytest.mark.parametrize("member, message", [
        (["--family", "ring", "--n", "2"], "ring graph needs n >= 3, got 2"),
        (["--family", "torus2", "--n", "4", "--l", "0"], "edge weight must be positive"),
        (["--family", "path"], "--family requires --n"),
        ([], "provide --graph FILE or --family NAME"),
    ])
    def test_bad_member_reported_before_bad_gains(self, command, member, message, capsys, tmp_path):
        gains = tmp_path / "bad.cfg"
        gains.write_text("controller = nope\n")
        assert main([command, *member, "--gains-file", str(gains)]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_family_rejected_by_the_parser(self, capsys, p_gains_file):
        with pytest.raises(SystemExit):
            main(["variance", "--family", "star", "--n", "5", "--gains-file", p_gains_file])
        assert "invalid choice: 'star'" in capsys.readouterr().err


class TestSimulateCommand:
    def test_scenario_prints_empirical_value(self, capsys):
        rc = main(["simulate", "--scenario", "dapi_path_10", "--seed", "1",
                   "--dt", "0.01", "--horizon", "20", "--burn-in", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("empirical_vn,")
        assert float(out.split(",")[1]) >= 0.0

    def test_explicit_system_with_trajectory_output(self, capsys, tmp_path, p_gains_file):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--family", "ring", "--n", "5",
                   "--gains-file", p_gains_file, "--controller", "p",
                   "--dt", "0.01", "--horizon", "10", "--seed", "7",
                   "--burn-in", "1", "--out", str(out), "--with-velocity"])
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:6] == ["t", "x_1", "x_2", "x_3", "x_4", "x_5"]
        assert header[6:] == ["v_1", "v_2", "v_3", "v_4", "v_5"]

    def test_controller_conflict(self, capsys, p_gains_file):
        rc = main(["simulate", "--family", "ring", "--n", "5",
                   "--gains-file", p_gains_file, "--controller", "dapi",
                   "--dt", "0.01", "--horizon", "5", "--seed", "0"])
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_missing_step_arguments(self, capsys, p_gains_file):
        rc = main(["simulate", "--family", "ring", "--n", "5",
                   "--gains-file", p_gains_file, "--seed", "0"])
        assert rc == 2

    def test_family_without_gains_file_rejected(self, capsys):
        rc = main(["simulate", "--family", "ring", "--n", "8", "--dt", "0.01", "--horizon", "1"])
        assert rc == 2
        assert "--gains-file is required here" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["family", "scenario"])
    def test_record_every_zero_rejected(self, capsys, p_gains_file, source):
        if source == "family":
            argv = ["--family", "ring", "--n", "5", "--gains-file", p_gains_file]
        else:
            argv = ["--scenario", "p_path_10"]
        rc = main(["simulate", *argv, "--dt", "0.01", "--horizon", "1", "--record-every", "0"])
        assert rc == 2
        assert "record_every must be >= 1" in capsys.readouterr().err

    def test_with_aux_under_p_control_rejected(self, capsys, tmp_path, p_gains_file):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--family", "ring", "--n", "5", "--gains-file", p_gains_file,
                   "--dt", "0.01", "--horizon", "1", "--with-aux", "--out", str(out)])
        assert rc == 2
        assert "--with-aux" in capsys.readouterr().err
        assert not out.exists()

    def test_with_aux_under_ideal_pd_rejected(self, capsys, tmp_path):
        # an F-DPD gains file with tau = 0 is ideal PD, a P loop with no auxiliary state
        gains_file, out = tmp_path / "fdpd0.cfg", tmp_path / "traj.csv"
        gains_file.write_text("controller = fdpd\nf = 1.0\ng = 0.5\nf0 = 0.3\nkd = 1.2\ntau = 0\n")
        rc = main(["simulate", "--family", "ring", "--n", "5", "--gains-file", str(gains_file),
                   "--dt", "0.01", "--horizon", "1", "--with-aux", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--with-aux needs an auxiliary state" in err and "ideal PD (F-DPD at tau = 0)" in err
        assert not out.exists()


    def test_system_past_physical_memory_exits_2(self, capsys, monkeypatch, tmp_path, p_gains_file):
        # 10^6 nodes with no edges: a typed refusal before any N x N array, not a MemoryError
        graph = tmp_path / "big.edges"
        graph.write_text("1000000\n")
        monkeypatch.setattr(closed_loop, "laplacian", lambda graph: pytest.fail("the Laplacian was built"))
        rc = main(["simulate", "--graph", str(graph), "--gains-file", p_gains_file, "--dt", "0.01", "--horizon", "1"])
        assert rc == 2
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--with-velocity", "--with-aux"])
    def test_trajectory_flag_without_out_rejected(self, capsys, monkeypatch, flag):
        monkeypatch.setattr(cli, "simulate_em", lambda *a: pytest.fail("simulated before the check"))
        rc = main(["simulate", "--scenario", "dapi_path_10", "--dt", "0.01", "--horizon", "1", flag])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err and captured.out == ""


class TestPlainNumberCells:
    """Every numeric CSV cell is a plain float repr, never ``np.float64(x)``."""

    def test_tune_output(self, tmp_path, dapi_gains_file):
        out = tmp_path / "tune.csv"
        rc = main(["tune", "--family", "ring", "--n", "12", "--gains-file",
                   dapi_gains_file, "--grid-points", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        for line in lines[1:-1]:
            for cell in line.split(","):
                float(cell)
        footer = lines[-1].split(",")
        float(footer[1])
        float(footer[3])

    def test_simulate_trajectory_output(self, capsys, tmp_path, p_gains_file):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--family", "ring", "--n", "4", "--gains-file", p_gains_file,
                   "--dt", "0.01", "--horizon", "1", "--seed", "3", "--out", str(out),
                   "--with-velocity"])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 101
        for row in rows:
            for cell in row.split(","):
                float(cell)


class TestTuneCommand:
    def test_complete_graph_summary(self, capsys, dapi_gains_file):
        rc = main(["tune", "--family", "complete", "--n", "4",
                   "--gains-file", dapi_gains_file])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "c,gridscan_vn"
        summary = lines[-1].split(",")
        assert summary[0] == "c_star"
        assert float(summary[1]) == pytest.approx(0.75, abs=1e-3)
        assert summary[2] == "v_star"
        assert summary[4] == "verdict"
        assert summary[5] == "PositiveOptimum"
        grid_rows = lines[1:-1]
        assert len(grid_rows) == 64

    def test_grid_rows_are_the_search_scan(self, monkeypatch, tmp_path):
        # the rows come from c_star_numeric's own scan, not from a second
        # round of closed-form calls through any module's binding
        def closed_form(*args):
            raise AssertionError("grid re-evaluated")

        for module in (variance, cli, scaling):
            monkeypatch.setattr(module, "variance_by_kind", closed_form)
        golden = (GOLDEN_DIR / "tune_ring16_dapi.csv").read_text()
        assert run_case("tune_ring16_dapi", tmp_path) == golden

    def test_requires_dapi_gains(self, capsys, p_gains_file):
        rc = main(["tune", "--family", "complete", "--n", "4",
                   "--gains-file", p_gains_file])
        assert rc == 2
        assert "dapi" in capsys.readouterr().err


class TestScaleCommand:
    def test_explicit_sizes(self, capsys, p_gains_file):
        rc = main(["scale", "--family", "ring", "--gains-file", p_gains_file,
                   "--sizes", "64,128,256,512"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,V_N,bounded,exponent_window_flag"
        assert len(lines) >= 5

    def test_geometric_sizes_with_window(self, capsys, dapi_gains_file, tmp_path):
        out = tmp_path / "scale.csv"
        rc = main(["scale", "--family", "ring", "--gains-file", dapi_gains_file,
                   "--sizes", "geometric:64:1024:2", "--window", "64:1024",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        ns = [int(line.split(",")[0]) for line in lines[1:-1]]
        assert ns == [64, 128, 256, 512, 1024]
        exponent = float(lines[-1].split(",")[1])
        assert abs(exponent) < 0.1  # bounded controller: flat in N

    def test_bad_sizes(self, capsys, p_gains_file):
        rc = main(["scale", "--family", "ring", "--gains-file", p_gains_file,
                   "--sizes", "geometric:64:32:2"])
        assert rc == 2

    @pytest.mark.parametrize("text", ["geometric:256:4096:1.0000000000000002", "geometric:1:10:1.1"])
    def test_geometric_factor_that_repeats_a_size(self, text):
        # one ulp above 1 moves 256 by one ulp a step: ~9e12 copies of 256 before it ends
        with pytest.raises(nc.InvalidParameterError, match="repeats size"):
            cli._parse_sizes(text)

    def test_geometric_sweep_with_too_many_sizes(self):
        # each step adds about one to 1e8: ~1.4e9 distinct sizes before it ends
        with pytest.raises(nc.InvalidParameterError, match="more than 10000 sizes"):
            cli._parse_sizes("geometric:100000000:100000000000000:1.00000001")

    @pytest.mark.parametrize("argv, message", [
        (["--sizes", "8,16", "--window", "5"], "bad --window value '5'"),
        (["--sizes", "8,16", "--window", "a:b"], "bad --window value 'a:b'"),
        (["--sizes", "geometric:a:b:2"], "bad --sizes value 'geometric:a:b:2'"),
        (["--sizes", "geometric:8:64:nan"], "finite factor > 1"),
        (["--sizes", ","], "empty --sizes list"),
    ])
    def test_unparsable_argument_is_an_error_not_a_traceback(self, capsys, p_gains_file, argv, message):
        rc = main(["scale", "--family", "ring", "--gains-file", p_gains_file, *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestAsciiNumbers:
    """Numbers in options are read as the file formats read them: ASCII digits, no digit-group underscores."""

    @pytest.mark.parametrize("argv, message", [
        (["variance", "--family", "ring", "--n", "1_3"], "invalid int value: '1_3'"),
        (["variance", "--family", "ring", "--n", "\u0661\u0663"], "invalid int value"),  # Arabic-Indic 13
        (["variance", "--family", "ring", "--n", "13", "--l", "1_0.5"], "invalid float value: '1_0.5'"),
        (["tune", "--family", "ring", "--n", "16", "--grid-points", "1_6"], "invalid int value: '1_6'"),
        (["tune", "--family", "ring", "--n", "16", "--bracket-hi", "1e-1_0"], "invalid float value: '1e-1_0'"),
        (["scale", "--family", "ring", "--sizes", "8,16", "--l", "\u0662"], "invalid float value"),
        (["simulate", "--scenario", "p_path_10", "--seed", "1_0"], "invalid int value: '1_0'"),
        (["simulate", "--scenario", "p_path_10", "--record-every", "1_0"], "invalid int value: '1_0'"),
        (["simulate", "--scenario", "p_path_10", "--dt", "0_1"], "invalid float value: '0_1'"),
        (["simulate", "--scenario", "p_path_10", "--horizon", "1_0"], "invalid float value: '1_0'"),
        (["simulate", "--scenario", "p_path_10", "--burn-in", "1_0"], "invalid float value: '1_0'"),
        (["simulate", "--scenario", "p_path_10", "--noise-intensity", "1_0"], "invalid float value: '1_0'"),
    ])
    def test_option_rejected_by_the_parser(self, capsys, dapi_gains_file, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--gains-file", dapi_gains_file])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--sizes", "1_0,2_0"], "bad --sizes value '1_0,2_0'"),
        (["--sizes", "10,\u0662\u0660"], "bad --sizes value"),
        (["--sizes", "geometric:1_0:20:2"], "bad --sizes value 'geometric:1_0:20:2'"),
        (["--sizes", "geometric:10:20:1_5"], "bad --sizes value 'geometric:10:20:1_5'"),
        (["--sizes", "8,16", "--window", "8:1_6"], "bad --window value '8:1_6'"),
    ])
    def test_sizes_and_window_fields(self, capsys, p_gains_file, argv, message):
        assert main(["scale", "--family", "ring", "--gains-file", p_gains_file, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_ascii_numbers_with_spaces_still_read(self, capsys, p_gains_file):
        assert main(["scale", "--family", "ring", "--gains-file", p_gains_file, "--sizes", " 8, 16 "]) == 0
        assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:3]] == ["8", "16"]


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "netcoh" in capsys.readouterr().out

    def test_unreadable_graph_argument(self, capsys, p_gains_file):
        rc = main(["variance", "--family", "ring", "--gains-file", p_gains_file])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_controller_choices_are_the_registered_controllers(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name in ("simulate", "scale"):
            controller = next(a for a in commands.choices[name]._actions if a.dest == "controller")
            assert tuple(controller.choices) == CONTROLLERS == ("p", "dapi", "fdpd")

    def test_family_choices_are_the_registered_families(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name in ("variance", "simulate", "tune", "scale"):
            family = next(a for a in commands.choices[name]._actions if a.dest == "family")
            assert tuple(family.choices) == FAMILIES
