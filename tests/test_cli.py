import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapbose.thermo as thermo
import trapbose.cli as cli
from trapbose.cli import RunConfig, _scaling_ratio_ok, main, parse_config, run, validate
from trapbose.config import TrapConfig
from trapbose.errors import ConfigError

REFERENCE_CSV = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "ref1d-p1.csv"


# Runs the given solver kinds through cli.run in a fresh interpreter and
# prints the modules of the package named first, the package itself
# included, that importing trapbose and the runs load beyond what importing
# numpy loads: a sweep needs no scipy module, as the Gamma table is the
# package's port of Cephes lgam and the Brent root its port of brentq, and
# no numpy.polynomial module, as the grids' tail maps are closed-form
# (numpy 1.24 imports numpy.polynomial with numpy itself).
FOOTPRINT = """
import io, sys
import numpy
before = set(sys.modules)
import trapbose
from trapbose.cli import RunConfig, run
package, *solvers = sys.argv[1:]
for solver in solvers:
    config = RunConfig(e_cut=40.0, t_max=10.0, solver=solver)
    assert run(config, stream=io.StringIO()) == 0, solver
print(*sorted(m for m in set(sys.modules) - before
              if m == package or m.startswith(package + ".")))
"""


# The body of the trapbose console script that pyproject.toml declares, run
# with python -c, so that a test needs no installed script.
CONSOLE_SCRIPT = "import sys; from trapbose.cli import main; sys.exit(main())"


FLOAT_KEYS = ("g", "mass", "hbar", "omega", "e_cut", "t_min", "t_max", "t_step", "tol")


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
        # every accepted key, small grid
        dimension = 2
        omega = 1.0, 1.5   # anisotropic
        mass = 3.5
        hbar = 0.5
        g = 0.001
        n_particles = 500
        e_cut = 50
        t_min = 2
        t_max = 10
        t_step = 2
        tol = 1e-9
        solver = ideal
        output = result.csv
        """
        config = parse_config(text)
        assert config.trap.dimension == 2
        assert config.trap.frequencies == (1.0, 1.5)
        assert config.trap.mass == 3.5
        assert config.trap.hbar == 0.5
        assert config.trap.g == 0.001
        assert config.trap.n_particles == 500
        assert config.e_cut == 50.0
        assert config.temperature_grid() == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert config.tol == 1e-9
        assert config.solver == "ideal"
        assert config.output_path == "result.csv"

    @settings(deadline=None)
    @given(key=st.sampled_from(FLOAT_KEYS), value=st.sampled_from(["nan", "inf", "-inf"]),
           position=st.integers(0, 2))
    def test_non_finite_value_rejected(self, key, value, position):
        # omega: one of three frequencies of a 3D trap.
        if key == "omega":
            text = "dimension = 3\nomega = " + ", ".join(
                value if i == position else "1.5" for i in range(3))
        else:
            text = f"{key} = {value}"
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
            parse_config(text)

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
        for key in ("ecut", "emit_diagnostics"):
            with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
                parse_config(f"{key} = 1")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: key 'e_cut' repeats line 1"):
            parse_config("e_cut = 10\n# a comment\ne_cut = 20")

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("t_step = 0")

    def test_grid_size_bounded(self, monkeypatch):
        # t_step = 1e-12 would make a list of 2e14 temperatures.
        with pytest.raises(ConfigError, match=r"^t_step = 1e-12 gives 1.99e\+14 temperatures"):
            parse_config("t_max = 200\nt_step = 1e-12")
        monkeypatch.setattr(cli, "MAX_TEMPERATURES", 5)
        assert parse_config("t_max = 5").temperature_grid() == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ConfigError, match="gives 6 temperatures .* above the limit of 5 "):
            parse_config("t_max = 6")


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

    def test_reference_run_matches_recorded_csv(self):
        # The default config is the reference run; iterations is left out
        # because it counts the solver's level evaluations.
        stream = io.StringIO()
        assert run(parse_config(""), stream=stream) == 0
        got = [line.split(",") for line in stream.getvalue().splitlines()]
        want = [line.split(",") for line in REFERENCE_CSV.read_text().splitlines()]
        assert got[0] == want[0]
        assert len(got) == len(want)
        for row, ref in zip(got[1:], want[1:]):
            assert row[0] == ref[0] and row[4] == ref[4]
            assert float(row[1]) == pytest.approx(float(ref[1]), rel=0.0, abs=1e-9)
            assert float(row[3]) == pytest.approx(float(ref[3]), rel=0.0, abs=1e-9)
            assert float(row[2]) == pytest.approx(float(ref[2]), rel=1e-9)

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

    def modules_loaded(self, package, *solvers):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-c", FOOTPRINT, package, *solvers], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120).stdout.split()

    def test_ideal_and_perturbative1_load_no_scipy(self):
        # Both import-time and sweep-time loads count: only --validate's
        # general Riccati branch calls scipy.
        assert self.modules_loaded("scipy", "ideal", "perturbative1") == []

    def test_dense_kinds_load_no_scipy(self):
        # Their Brent root is thermo's own port of brentq.
        assert self.modules_loaded("scipy", "perturbative2", "riccati") == []

    def test_no_kind_loads_numpy_polynomial(self):
        # The grids' tail maps are closed-form: only --validate loads it,
        # for hermgauss.
        assert self.modules_loaded("numpy.polynomial", *thermo.SOLVER_KINDS) == []


class TestValidate:
    def test_small_reference_config_passes(self):
        config = RunConfig(e_cut=40.0, t_min=1.0, t_max=5.0, t_step=1.0)
        report, passed = validate(config)
        assert passed
        assert report.count("PASS") == 6
        assert "FAIL" not in report

    def test_zero_coupling_passes(self, tmp_path, capsys):
        # At g = 0 the lambda^3 differences and residuals are all exactly 0.
        config = tmp_path / "free.cfg"
        config.write_text("g = 0\ne_cut = 40\nt_max = 5\n")
        assert main(["--config", str(config), "--validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    @pytest.mark.parametrize("text", [
        "",
        "dimension = 2\nomega = 1, 1.4142135623730951\ne_cut = 24\nt_max = 3\n",
        "dimension = 3\nomega = 1, 1.3, 0.7\ne_cut = 12\nt_max = 1.5\nt_step = 0.25\n",
        "dimension = 3\nomega = 1, 1.3, 0.7\ne_cut = 16\nt_min = 0.5\nt_max = 2\nt_step = 0.5\n",
    ], ids=["default", "2d-aniso", "3d-aniso", "3d-aniso-ecut16"])
    def test_traps_pass(self, tmp_path, capsys, text):
        # The lambda^3 ratios tend to 8 only as lambda shrinks; at the full
        # coupling they fall below 6 on the anisotropic 2D and 3D traps.
        # On the 3D trap at e_cut 16 the doubling shift at T = 2 = e_cut/8
        # is 1.4e-4 > 1e-4, so the probe window must end below it.
        config = tmp_path / "trap.cfg"
        config.write_text(text)
        assert main(["--config", str(config), "--validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_truncation_doubling_fails_without_probe(self, tmp_path, capsys):
        # From T = 12 on, the ideal count of the states between e_cut and
        # 2*e_cut is at least 4e-4*N, so nothing is probed.
        config = tmp_path / "hot.cfg"
        config.write_text("e_cut = 40\nt_min = 12\nt_max = 15\n")
        assert main(["--config", str(config), "--validate"]) == 2
        out = capsys.readouterr().out
        assert ("FAIL truncation-doubling: no grid temperature where the ideal count "
                "above e_cut is <= 5e-05*N\n") in out

    def test_interpolant_vs_direct_fails_on_a_shifted_interpolant(self, monkeypatch):
        # The count interpolant raised by 1e-6*N moves every table-path root
        # by about 1e4*tol*N; the direct roots stay where they were.
        residual = thermo._interpolated_residual
        monkeypatch.setattr(thermo, "_interpolated_residual",
                            lambda n0, *args: residual(n0, *args) - 1e-3)
        report, passed = validate(RunConfig(e_cut=40.0, t_min=1.0, t_max=5.0, t_step=1.0))
        assert not passed
        assert "FAIL interpolant-vs-direct: max |delta n0| " in report
        assert report.count("PASS") == 5

    def test_interpolant_vs_direct_fails_without_probe(self):
        report, passed = validate(RunConfig(e_cut=40.0, t_min=12.0, t_max=15.0))
        assert not passed
        assert ("FAIL interpolant-vs-direct: no grid temperature where the ideal count "
                "above e_cut is <= 5e-05*N\n") in report

    def test_interpolant_vs_direct_reports_an_unstable_spectrum(self):
        # At g = 0.02 the second-order levels go negative: the check fails
        # with the error instead of ending the report.
        config = RunConfig(trap=TrapConfig(g=0.02), e_cut=20.0, t_min=1.0, t_max=3.0)
        report, passed = validate(config)
        assert not passed
        assert "FAIL interpolant-vs-direct: UnstableSpectrumError: all levels must be positive" in report

    def test_scaling_ratio_zero_denominator(self):
        assert _scaling_ratio_ok([0.0, 0.0, 0.0], 6.0, 10.0)[0]
        assert not _scaling_ratio_ok([8.0, 0.0], 6.0, 10.0)[0]

    def test_scaling_ratios_are_plain_floats(self):
        # The FAIL detail prints the ratios; numpy >= 2 would print a numpy
        # scalar as np.float64(...).
        ok, ratios = _scaling_ratio_ok([np.float64(2.0), np.float64(1.0)], 6, 10)
        assert not ok
        assert ratios == [2.0]
        assert all(type(r) is float for r in ratios)
        assert "np.float64" not in f"ratios {ratios}"


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

    def test_basis_too_large_exit_one(self, tmp_path, capsys):
        config = tmp_path / "big.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"dimension = 2\ne_cut = 1e5\nt_min = 1\nt_max = 2\noutput = {out}\n")
        assert main(["--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: the basis under e_cut=100000.0 in dimension 2 needs 10000200001 rows of 2")
        assert not out.exists()

    def test_failed_points_exit_two(self, tmp_path, capsys):
        config = tmp_path / "strong.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"g = 0.02\ne_cut = 20\nt_min = 1\nt_max = 3\n"
                          f"solver = perturbative2\noutput = {out}\n")
        assert main(["--config", str(config)]) == 2
        assert out.read_text() == ("T,n0_over_N,energy_excess_per_N,lambda,converged,iterations\n"
                                   "1,nan,nan,nan,0,0\n2,nan,nan,nan,0,0\n3,nan,nan,nan,0,0\n")
        reasons = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in reasons] == ["# T=1", "# T=2", "# T=3"]
        assert all(": UnstableSpectrumError: all levels must be positive" in line
                   for line in reasons)

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_linear_algebra_failures_exit_two(self, kind, tmp_path, capsys):
        config = tmp_path / "overflow.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"g = 1e200\ne_cut = 20\nt_min = 1\nt_max = 3\n"
                          f"solver = {kind}\noutput = {out}\n")
        assert main(["--config", str(config)]) == 2
        assert out.read_text().splitlines()[1:] == ["1,nan,nan,nan,0,0", "2,nan,nan,nan,0,0",
                                                    "3,nan,nan,nan,0,0"]
        reasons = capsys.readouterr().err.splitlines()
        assert all(": ConvergenceError: eigenvalue solve failed" in line for line in reasons)
        assert len(reasons) == 3

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_linear_algebra_failures_exit_two_in_node_chunks(self, kind, tmp_path, capsys,
                                                            node_chunks):
        self.test_linear_algebra_failures_exit_two(kind, tmp_path, capsys)

    @pytest.mark.parametrize("text", ["g = nan\n", "t_max = inf\n", "mass = inf\n"])
    def test_non_finite_value_exit_one(self, text, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"e_cut = 20\nt_min = 1\nt_step = 1\noutput = {out}\n" + text)
        assert main(["--config", str(config)]) == 1
        err = capsys.readouterr().err
        key = text.split()[0]
        assert err.startswith(f"error: {key} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("hbar = 1e-10\nomega = 5e-324\ne_cut = 60\n",
         "error: omega = 5e-324 with hbar = 1e-10 gives a level spacing hbar*omega that "
         "underflows to 0\n"),
        ("hbar = 1e-10\nomega = 1e-300\ne_cut = 60\n",
         "error: the basis under e_cut=60.0 in dimension 1 needs inf rows"),
        ("e_cut = 20\nt_step = 5e-324\n", "error: t_step = 5e-324 gives inf temperatures"),
    ], ids=["hbar-omega-zero", "hbar-omega-subnormal", "t-step-subnormal"])
    def test_underflowing_step_exit_one(self, text, message, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"t_min = 1\nt_max = 2\noutput = {out}\n" + text)
        assert main(["--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_n_particles_beyond_float_range_exit_one(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"n_particles = {10**399}\ne_cut = 20\nt_min = 1\nt_max = 3\n"
                          f"output = {out}\n")
        assert main(["--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: n_particles must be finite as a float")
        assert not out.exists()

    def test_perturbative1_coupling_beyond_float_range_exit_two(self, tmp_path, capsys):
        # At g = 1e308, lambda = g*n0/2 and every first-order level are inf.
        config = tmp_path / "overflow.cfg"
        out = tmp_path / "out.csv"
        config.write_text(f"g = 1e308\ne_cut = 20\nt_min = 1\nt_max = 3\n"
                          f"solver = perturbative1\noutput = {out}\n")
        assert main(["--config", str(config)]) == 2
        assert out.read_text().splitlines()[1:] == ["1,nan,nan,nan,0,0", "2,nan,nan,nan,0,0",
                                                    "3,nan,nan,nan,0,0"]
        reasons = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in reasons] == ["# T=1", "# T=2", "# T=3"]
        assert all(": ConvergenceError: levels beyond the float range" in line for line in reasons)

    def test_missing_config_file_exit_one(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("g", ["0.2", "1e200", "1e308"])
    def test_validate_failures_exit_two(self, g, tmp_path, capsys):
        # At g = 1e200 lambda**2 overflows in perturbative_xy, at 1e308 the
        # couplings are inf, and at 0.2 scipy's expm overflows: each check
        # that meets an error fails with its type, and the report goes on,
        # with no RuntimeWarning (an error under this suite's warning filter).
        config = tmp_path / "strong.cfg"
        config.write_text(f"g = {g}\ne_cut = 20\nt_min = 1\nt_max = 3\n")
        assert main(["--config", str(config), "--validate"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "PASS matrix-element-oracle"
        assert lines[1].startswith("FAIL perturbative-riccati-lambda3-scaling: ")
        assert lines[1].split(": ")[1] in ("OverflowError", "FloatingPointError")
        if g == "1e200":
            # lambda = g*N/2 at a quarter of the coupling, the first probe.
            assert lines[1:3] == [
                f"FAIL perturbative-{name}-lambda3-scaling: OverflowError: "
                "lambda^2 beyond the float range at lambda = 1.25e+202"
                for name in ("riccati", "constraint")]

    def test_validate_exit_zero(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("e_cut = 40\nt_max = 5\n")
        assert main(["--config", str(config), "--validate"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestConsoleScript:
    """The console script in a fresh interpreter: its exit status and its
    stderr."""

    def console(self, *args, **env):
        env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("kind", thermo.SOLVER_KINDS)
    def test_sweeps_with_a_tol_below_float_resolution(self, kind, tmp_path):
        # tol = 1e-17 asks for a step below the float spacing of n0 (5.7e-14
        # near n0 = 500), so it is floored at 4*eps.  With RuntimeWarning
        # raised as an error, each kind must sweep the default grid with
        # every point converged: exit status 0, no "# T=" failure line and
        # no traceback.  The riccati points that fail the tail test on every
        # grid solve on direct levels.
        config = tmp_path / "tiny-tol.cfg"
        config.write_text("tol = 1e-17\n")
        run = self.console("--config", str(config), "--solver", kind,
                           "--output", str(tmp_path / f"tiny-tol-{kind}.csv"),
                           PYTHONWARNINGS="error::RuntimeWarning")
        assert run.returncode == 0, run.stderr
        assert not [line for line in run.stderr.splitlines() if line.startswith("# T=")]
        assert "Traceback" not in run.stderr
