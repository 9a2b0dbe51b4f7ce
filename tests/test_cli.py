import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from cltlab import cli
from cltlab.distributions import (
    iid_sum_normalized,
    rademacher,
    save_discrete,
)
from cltlab.weak_convergence import (
    ConvergenceProbe,
    cdf_distance,
    default_grid,
    levy_metric,
    portmanteau_testfn,
)
from oracles import berry_esseen, dkw_band


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_sinc_preset(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "--fn", "preset:sinc",
                                 "--tol", "1e-6")
        assert code == 0 and err == ""
        assert abs(float(out) - math.pi / 2.0) < 1e-6

    def test_gauss_moment(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--fn", "gauss_moment:4")
        assert code == 0
        assert abs(float(out) - 3.0) < 1e-6

    def test_out_file(self, capsys, tmp_path):
        p = tmp_path / "x.txt"
        code, out, err = run_cli(capsys, "integrate", "--fn", "gauss_moment:2",
                                 "--out", str(p))
        assert code == 0 and out == "" and err == ""
        assert abs(float(p.read_text()) - 1.0) < 1e-6


class TestSpace:
    def test_die_demo_rows(self, capsys):
        code, out, _ = run_cli(capsys, "space", "--demo", "die")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",") for line in lines[1:])
        assert float(table["mean"]) == 3.5
        assert abs(float(table["variance"]) - 35.0 / 12.0) < 1e-10
        assert table["coords_independent"] == "true"
        assert table["self_pair_independent"] == "false"


class TestCharfun:
    def test_bernoulli_is_cosine(self, capsys):
        code, out, _ = run_cli(capsys, "charfun", "--dist", "preset:bernoulli",
                               "--tmin", "0", "--tmax", "2", "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 6
        for line in lines[1:]:
            t, re, im = map(float, line.split(","))
            assert abs(re - math.cos(t)) < 1e-12
            assert im == 0.0

    def test_single_step(self, capsys):
        code, out, _ = run_cli(capsys, "charfun", "--dist", "preset:die",
                               "--tmin", "0", "--tmax", "0", "--steps", "1")
        assert code == 0
        assert out.splitlines()[1] == "0,1,0"


class TestInvert:
    def test_normal_auto_truncation(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--dist", "preset:normal",
                               "--a", "-1.96", "--b", "1.96")
        assert code == 0
        assert abs(float(out) - 0.9500042097) < 1e-6

    def test_bernoulli_fixed_truncation(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--dist", "preset:bernoulli",
                               "--a", "0", "--b", "2", "--T", "1000",
                               "--tol", "1e-6")
        assert code == 0
        assert abs(float(out) - 0.5) < 1e-2


class TestClt:
    def test_matches_library(self, capsys):
        from cltlab.clt import CltExperiment, emit_csv, run_clt
        import io

        code, out, _ = run_cli(capsys, "clt", "--base", "preset:bernoulli",
                               "--ns", "1,4,16")
        assert code == 0
        buf = io.StringIO()
        emit_csv(run_clt(CltExperiment(rademacher(), (1, 4, 16))), buf)
        assert out == buf.getvalue()

    def test_out_file_byte_identical_to_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "clt", "--base", "preset:bernoulli",
                               "--ns", "1,4")
        assert code == 0
        p = tmp_path / "report.csv"
        code2, out2, _ = run_cli(capsys, "clt", "--base", "preset:bernoulli",
                                 "--ns", "1,4", "--out", str(p))
        assert code2 == 0 and out2 == ""
        assert p.read_bytes() == out.encode()

    def test_readme_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "clt", "--base", "preset:bernoulli",
                               "--ns", "4,16,64")
        assert code == 0
        assert out == (
            "n,cdf_sup,levy,charfun_sup\n"
            "4,0.1875,0.134155273438,0.0501141541181\n"
            "16,0.0981903076172,0.0702514648438,0.0115674581868\n"
            "64,0.049673376874,0.0355224609375,0.00283722385479\n"
        )

    def test_die_512_exact(self, capsys):
        code, out, _ = run_cli(capsys, "clt", "--base", "preset:die", "--ns", "512")
        assert code == 0
        header, row = out.splitlines()
        n, cdf_sup, levy, _ = row.split(",")
        bound = berry_esseen([1, 2, 3, 4, 5, 6], [1 / 6] * 6, 512)
        assert n == "512"
        assert 0.0 < float(cdf_sup) <= bound and float(levy) <= bound

    def test_mc_mode(self, capsys):
        code, out, _ = run_cli(capsys, "clt", "--base", "preset:die",
                               "--ns", "10,40,160", "--mc", "2000", "--seed", "5")
        assert code == 0
        # seeded Monte Carlo output is pinned byte for byte; each row draws
        # one count vector over the atoms of the die's exact sum
        assert out == (
            "n,cdf_sup,levy,charfun_sup\n"
            "10,0.0365594628914,0.0399780273438,0.0397554710997\n"
            "40,0.0375,0.03125,0.0352178001372\n"
            "160,0.015,0.0167236328125,0.0187157896272\n"
        )
        # the cdf_sup and levy columns move by at most the sample's distance
        # to the exact law, within the DKW band (plus levy's 2^-14 step)
        _, exact, _ = run_cli(capsys, "clt", "--base", "preset:die", "--ns", "10,40,160")
        for mc_row, exact_row in zip(out.splitlines()[1:], exact.splitlines()[1:]):
            mc_vals, exact_vals = (list(map(float, r.split(","))) for r in (mc_row, exact_row))
            assert mc_vals[0] == exact_vals[0]
            for col in (1, 2):
                assert abs(mc_vals[col] - exact_vals[col]) <= dkw_band(2000) + 2.0**-14


class TestWeakdist:
    def test_against_library_values(self, capsys, tmp_path):
        left_path = tmp_path / "left.dist"
        right_path = tmp_path / "right.dist"
        left = iid_sum_normalized(rademacher(), 16)
        right = rademacher()
        save_discrete(left, str(left_path))
        save_discrete(right, str(right_path))
        code, out, _ = run_cli(capsys, "weakdist", "--left", str(left_path),
                               "--right", str(right_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "metric,value"
        table = {k: float(v) for k, v in (line.split(",") for line in lines[1:])}
        probe = ConvergenceProbe(right, default_grid(right))
        assert table["cdf_sup"] == pytest.approx(cdf_distance(left, probe), rel=1e-10)
        assert table["levy"] == pytest.approx(levy_metric(left, right), rel=1e-10)
        assert table["testfn_max"] == pytest.approx(
            max(portmanteau_testfn(left, probe)), rel=1e-10)


class TestErrorHandling:
    def check_error(self, capsys, expected_type, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error,{expected_type},")

    def test_unknown_preset(self, capsys):
        self.check_error(capsys, "ValueError",
                         "invert", "--dist", "preset:cauchy", "--a", "0", "--b", "1")

    def test_missing_file(self, capsys):
        self.check_error(capsys, "FileNotFoundError",
                         "charfun", "--dist", "/nonexistent/x.dist")

    def test_bad_ns(self, capsys):
        self.check_error(capsys, "ValueError",
                         "clt", "--base", "preset:bernoulli", "--ns", "1,a")

    def test_bad_moment_order(self, capsys):
        self.check_error(capsys, "ValueError", "integrate", "--fn", "gauss_moment:x")

    def test_unknown_fn(self, capsys):
        self.check_error(capsys, "ValueError", "integrate", "--fn", "preset:dirichlet")

    def test_inverted_interval(self, capsys):
        self.check_error(capsys, "ValueError",
                         "invert", "--dist", "preset:bernoulli", "--a", "2", "--b", "1")

    def test_bad_tol(self, capsys):
        self.check_error(capsys, "ValueError",
                         "integrate", "--fn", "preset:sinc", "--tol", "0")

    def test_density_base_rejected(self, capsys):
        self.check_error(capsys, "TypeError",
                         "clt", "--base", "preset:normal", "--ns", "2,4")

    def test_unknown_subcommand(self, capsys):
        self.check_error(capsys, "UsageError", "frobnicate")

    def test_unknown_flag(self, capsys):
        self.check_error(capsys, "UsageError",
                         "integrate", "--fn", "preset:sinc", "--bogus")

    def test_no_arguments(self, capsys):
        self.check_error(capsys, "UsageError")

    def test_bad_demo_choice(self, capsys):
        self.check_error(capsys, "UsageError", "space", "--demo", "coin")


class TestFlags:
    """--tol and --seed exist only where they are read: --seed on clt with
    --mc."""

    @pytest.mark.parametrize("argv", [
        ("space", "--demo", "die", "--seed", "1"),
        ("clt", "--base", "preset:bernoulli", "--ns", "4", "--tol", "1e-6"),
        ("weakdist", "--left", "a.dist", "--right", "b.dist", "--tol", "1e-6"),
        ("integrate", "--fn", "gauss_moment:2", "--seed", "1"),
    ], ids=["space-seed", "clt-tol", "weakdist-tol", "integrate-seed"])
    def test_unread_flag_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error,UsageError,unrecognized arguments: --")
        assert err.count("\n") == 1

    def test_tol_kept_where_read(self, capsys):
        code, out, _ = run_cli(capsys, "charfun", "--dist", "preset:bernoulli",
                               "--tmin", "0", "--tmax", "1", "--steps", "2",
                               "--tol", "1e-6")
        assert code == 0 and out.startswith("t,re,im\n")
        code, out, _ = run_cli(capsys, "integrate", "--fn", "gauss_moment:2",
                               "--tol", "1e-6")
        assert code == 0 and abs(float(out) - 1.0) < 1e-6

    def test_seed_without_mc_rejected(self, capsys):
        # exact clt rows draw nothing, so a seed there would be ignored
        code, out, err = run_cli(capsys, "clt", "--base", "preset:die", "--ns", "3",
                                 "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error,UsageError,--seed is read only with --mc\n"

    def test_seed_kept_where_read(self, capsys):
        argv = ("clt", "--base", "preset:die", "--ns", "3", "--mc", "500")
        _, a, _ = run_cli(capsys, *argv, "--seed", "1")
        _, b, _ = run_cli(capsys, *argv, "--seed", "2")
        assert a.startswith("n,cdf_sup") and b.startswith("n,cdf_sup")
        assert a != b

    def test_out_kept_everywhere(self, capsys, tmp_path):
        p = tmp_path / "space.csv"
        code, out, _ = run_cli(capsys, "space", "--demo", "die", "--out", str(p))
        assert code == 0 and out == ""
        assert p.read_text().startswith("quantity,value\n")


class TestEntryPoints:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cltlab", "integrate", "--fn", "gauss_moment:2"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert abs(float(proc.stdout) - 1.0) < 1e-6

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random on first access; an import of cltlab
        # that touched it would add its import time and memory to every run
        code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
                "import cltlab.cli; print(eager or 'numpy.random' not in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "True"

    def test_console_script(self, tmp_path):
        # Write the launcher pip generates for the declared [project.scripts]
        # entry and put it first on PATH, so the test runs `cltlab` by name
        # without the package having to be installed first.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["cltlab"]
        module, func = spec.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "cltlab"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import re\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({func}())\n")
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
        proc = subprocess.run(
            ["cltlab", "space", "--demo", "die"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "quantity,value"
