import io
import math

import pytest

from trapbose.cli import RunConfig, main, parse_config, run, validate
from trapbose.errors import ConfigError


class TestParseConfig:
    def test_empty_config_uses_reference_defaults(self):
        config = parse_config("")
        assert config.trap.dimension == 1
        assert config.trap.hbar == 1.0
        assert config.trap.frequencies == (1.0,)
        assert config.trap.mass == pytest.approx(2.0 * math.pi**2)
        assert config.trap.n_particles == 1000
        assert config.trap.g == 2e-4
        assert config.solver == "perturbative1"

    def test_key_values_and_comments(self):
        text = """
        # reference run, small grid
        e_cut = 50
        t_min = 2
        t_max = 10
        t_step = 2
        solver = ideal
        output = result.csv
        """
        config = parse_config(text)
        assert config.e_cut == 50.0
        assert config.temperature_grid() == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert config.solver == "ideal"
        assert config.output_path == "result.csv"

    def test_negative_g_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("g = -1")

    def test_incommensurate_omega_list_accepted(self):
        config = parse_config("dimension = 2\nomega = 1.0, 1.4142135")
        assert config.trap.frequencies == (1.0, 1.4142135)

    def test_dimension_without_omega_is_isotropic(self):
        config = parse_config("dimension = 2\n")
        assert config.trap.frequencies == (1.0, 1.0)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("e_cut = 10\nnot a key value pair")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("ecut = 10")

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("t_step = 0")


class TestRun:
    def small_config(self, **overrides):
        base = dict(e_cut=40.0, t_min=1.0, t_max=9.0, t_step=2.0, solver="ideal")
        base.update(overrides)
        return RunConfig(**base)

    def test_csv_header_and_shape(self):
        stream = io.StringIO()
        status = run(self.small_config(), stream=stream)
        lines = stream.getvalue().strip().split("\n")
        assert status == 0
        assert lines[0] == "T,n0_over_N,energy_excess_per_N,lambda,converged,iterations"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert 0.0 < float(first[1]) <= 1.0
        assert first[4] == "1"

    def test_byte_identical_reruns(self):
        a, b = io.StringIO(), io.StringIO()
        run(self.small_config(solver="perturbative1"), stream=a)
        run(self.small_config(solver="perturbative1"), stream=b)
        assert a.getvalue() == b.getvalue()

    def test_ideal_solver_forces_lambda_zero(self):
        stream = io.StringIO()
        run(self.small_config(), stream=stream)
        for row in stream.getvalue().strip().split("\n")[1:]:
            assert row.split(",")[3] == "0"

    def test_interacting_fraction_dominates_ideal(self):
        ideal, interacting = io.StringIO(), io.StringIO()
        run(self.small_config(e_cut=200.0, t_min=10.0, t_max=110.0, t_step=20.0),
            stream=ideal)
        run(self.small_config(e_cut=200.0, t_min=10.0, t_max=110.0, t_step=20.0,
                              solver="perturbative1"), stream=interacting)
        ideal_frac = [float(r.split(",")[1]) for r in ideal.getvalue().strip().split("\n")[1:]]
        int_frac = [float(r.split(",")[1]) for r in interacting.getvalue().strip().split("\n")[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(ideal_frac, int_frac))


class TestValidate:
    def test_small_reference_config_passes(self):
        config = RunConfig(e_cut=40.0, t_min=1.0, t_max=5.0, t_step=1.0)
        report, passed = validate(config)
        assert passed
        assert report.count("PASS") == 5
        assert "FAIL" not in report


class TestMainExitStatus:
    def test_run_exit_zero(self, tmp_path):
        config = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"e_cut = 40\nt_max = 5\noutput = {out}\nsolver = ideal\n")
        assert main(["--config", str(config)]) == 0
        assert out.read_text().startswith("T,")

    def test_solver_and_output_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        out = tmp_path / "o.csv"
        config.write_text("e_cut = 40\nt_max = 5\n")
        assert main(["--config", str(config), "--solver", "ideal",
                     "--output", str(out)]) == 0
        assert out.exists()

    def test_config_error_exit_one(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("t_step = 0\n")
        assert main(["--config", str(config)]) == 1

    def test_cutoff_below_first_level_exit_one(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("e_cut = 0.5\n")
        assert main(["--config", str(config)]) == 1

    def test_failed_points_exit_two(self, tmp_path):
        config = tmp_path / "strong.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"g = 0.02\ne_cut = 20\nt_min = 1\nt_max = 3\n"
                          f"solver = perturbative2\noutput = {out}\n")
        assert main(["--config", str(config)]) == 2
        assert [row.split(",")[4] for row in out.read_text().split()[1:]] == ["0"] * 3

    def test_missing_config_file_exit_one(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 1

    def test_validate_exit_zero(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("e_cut = 40\nt_max = 5\n")
        assert main(["--config", str(config), "--validate"]) == 0
        assert "PASS" in capsys.readouterr().out
