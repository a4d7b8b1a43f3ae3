import pytest

import netcoh as nc
from netcoh.cli import main


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

    def test_output_file(self, tmp_path, p_gains_file):
        out = tmp_path / "report.csv"
        main(["variance", "--family", "ring", "--n", "6", "--gains-file", p_gains_file,
              "--out", str(out)])
        assert out.read_text().startswith("n,lambda,s_n")


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
