import warnings

import numpy as np
import pytest

from fvadvect import analysis, cli, driver
from fvadvect.cli import main, read_config_file
from fvadvect.grid import Grid
from fvadvect.problems import initial_condition, standard_problem


def read_metadata(path):
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition(": ")
            meta[key] = value
    return meta


def read_solution(path):
    with open(path) as fh:
        rows = [
            line.strip().split(",")
            for line in fh
            if not line.startswith("#") and not line[0].isalpha()
        ]
    return np.array(rows, dtype=float)


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 64   # cells\nsigma = 0.5\nic = square\n")
        entries = read_config_file(str(cfg))
        assert entries == {"n": "64", "sigma": "0.5", "ic": "square"}

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 64\n")
        out = tmp_path / "sol.csv"
        code = main([
            "run", "--config", str(cfg), "--n", "128", "--ic", "square",
            "--velocity", "constant", "--scheme", "u5", "--t-final", "0.0",
            "--out", str(out),
        ])
        assert code == 0
        assert read_metadata(out)["n"] == "128"

    def test_file_fills_missing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 64\nic = square\n")
        out = tmp_path / "sol.csv"
        code = main([
            "run", "--config", str(cfg), "--t-final", "0.0", "--out", str(out),
        ])
        assert code == 0
        assert read_metadata(out)["n"] == "64"

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert "wibble" in capsys.readouterr().err

    def test_bad_value_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = many\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert "n" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["run", "--config", "/nonexistent/run.cfg"])
        assert code == 1

    @pytest.mark.parametrize("command, line", [
        ("run", "n_list = 16"), ("converge", "eta_stats = x"), ("converge", "n = 64"),
    ])
    def test_key_the_command_does_not_take(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main([command, "--config", str(cfg), "--t-final", "0.0"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        key = line.split(" = ")[0]
        assert err == f"error: config key {key} is not an option of {command}\n"

    @pytest.mark.parametrize("key, value", [
        ("order", "5"), ("dim", "3"), ("ic", "bogus"), ("limiter", "of"), ("n", "many"),
    ])
    def test_bad_value_same_error_as_the_flag(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code = main(["run", "--config", str(cfg)])
        from_file = capsys.readouterr()
        flag_code = main(["run", f"--{key}", value])
        from_flag = capsys.readouterr()
        assert code == flag_code == 1
        assert from_file.out == from_flag.out == ""
        assert from_file.err.splitlines()[-1] == from_flag.err.splitlines()[-1]
        assert f"argument --{key}: invalid" in from_file.err


class TestValidation:
    def test_example_command_valid(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = main([
            "run", "--ic", "square", "--velocity", "constant", "--scheme", "u9",
            "--n", "128", "--sigma", "0.8", "--t-final", "0.0", "--out", str(out),
        ])
        assert code == 0

    def test_sigma_zero(self, capsys):
        code = main(["run", "--sigma", "0"])
        assert code == 1
        assert "sigma must be positive" in capsys.readouterr().err

    def test_n_too_small(self, capsys):
        code = main(["run", "--n", "8"])
        assert code == 1
        assert str(Grid.MIN_CELLS) in capsys.readouterr().err

    @pytest.mark.parametrize("n", (8, Grid.MIN_CELLS - 1))
    def test_run_and_converge_share_the_minimum(self, capsys, n):
        # one minimum, from the grid, with one message; converge checks
        # every size before it runs any
        code = main(["run", "--n", str(n), "--t-final", "0.0"])
        run_err = capsys.readouterr().err
        code_conv = main(["converge", "--n-list", f"32,{n}", "--t-final", "0.0"])
        conv_err = capsys.readouterr().err
        assert code == code_conv == 1
        message = f"error: n must be at least {Grid.MIN_CELLS} cells, got {n}\n"
        assert run_err == conv_err == message

    def test_minimum_grid_runs(self, tmp_path):
        n = str(Grid.MIN_CELLS)
        assert main(["run", "--n", n, "--t-final", "0.05", "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["converge", "--n-list", f"{n},32", "--t-final", "0.05"]) == 0

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize("radius", ["0", "-0.1", "nan", "inf"])
    def test_bad_radius(self, capsys, command, radius):
        sizes = ["--n", "32"] if command == "run" else ["--n-list", "32,64"]
        code = main([command, "--ic", "cosine8", "--radius", radius, *sizes, "--t-final", "0.1"])
        assert code == 1
        assert "radius must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples(self, capsys, samples):
        code = main(["analyze", "--scheme", "u5", "--samples", samples])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: samples must be at least 1\n"

    @pytest.mark.parametrize("command", ["run", "converge", "analyze"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma(self, capsys, command, sigma):
        # rejected before the stability probe and before any step
        rest = {"run": ["--n", "16"], "converge": ["--n-list", "16,32"],
                "analyze": ["--scheme", "u5"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--sigma", sigma, *rest])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: sigma must be positive and finite, got {sigma}\n"

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize("t_final", ["nan", "inf", "-1"])
    def test_bad_t_final(self, capsys, command, t_final):
        sizes = ["--n", "16"] if command == "run" else ["--n-list", "16,32"]
        code = main([command, *sizes, "--t-final", t_final])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: t_final must be non-negative and finite, got {float(t_final)}\n"

    @pytest.mark.parametrize("extent", ["inf", "nan", "0", "-1"])
    def test_bad_extent(self, capsys, extent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--n", "16", "--extent", extent])
        assert code == 1
        assert "error: domain extent must be positive and finite" in capsys.readouterr().err

    def test_extent_whose_2d_volume_overflows(self, capsys):
        code = main(["run", "--n", "16", "--dim", "2", "--extent", "1e300", "--t-final", "0.05"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: domain extent must be positive and finite, and so must")

    def test_dump_every_needs_a_prefix(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--n", "16", "--t-final", "0.1", "--dump-every", "1"])
        assert code == 1
        assert "dump-every needs a dump-prefix" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dump_prefix_needs_dump_every(self, tmp_path, capsys):
        prefix = str(tmp_path / "snap")
        code = main(["run", "--n", "16", "--t-final", "0.1", "--dump-prefix", prefix])
        assert code == 1
        assert "dump-prefix needs a positive dump-every" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_dump_every(self, tmp_path, capsys):
        code = main([
            "run", "--n", "16", "--t-final", "0.1", "--dump-every", "-1",
            "--dump-prefix", str(tmp_path / "snap"),
        ])
        assert code == 1
        assert "dump-every must be non-negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sigma_above_limit_warns_not_errors(self, tmp_path):
        out = tmp_path / "sol.csv"
        with pytest.warns(UserWarning):
            code = main([
                "run", "--ic", "square", "--scheme", "u9", "--n", "16",
                "--sigma", "1.9", "--t-final", "0.0", "--out", str(out),
            ])
        assert code == 0

    @pytest.mark.parametrize("sigma, warns", [("0.8", True), ("0.79", False)])
    def test_u9_2d_stability_bound(self, tmp_path, sigma, warns):
        # u9's 2D limit is 0.7992: at 0.8 the worst mode grows by 1.0089
        # per step, at 0.79 every mode is stable
        args = [
            "run", "--ic", "square", "--scheme", "u9", "--dim", "2", "--n", "16",
            "--sigma", sigma, "--t-final", "0.0", "--out", str(tmp_path / "sol.csv"),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        assert code == 0
        assert any("stability bound" in str(w.message) for w in caught) == warns

    def test_default_2d_run_passes_its_own_stability_check(self, tmp_path):
        # run's 2D default sigma, 0.75, is below u9's 2D limit (0.7992);
        # the 1D default stays 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dim, sigma in ((2, 0.75), (1, 0.8)):
                out = tmp_path / f"sol{dim}.csv"
                code = main(["run", "--dim", str(dim), "--n", "32", "--t-final", "0.1",
                             "--out", str(out)])
                assert code == 0
                assert float(read_metadata(out)["sigma"]) == sigma

    def test_sigma_whose_growth_overflows_warns(self):
        # |g| overflows to NaN at this sigma, which is as unstable as any
        # other growth above the bound; the run's one step is shrunk to
        # t_final, so it completes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--n", "16", "--dim", "2", "--sigma", "1e300",
                         "--t-final", "0.05"])
        assert code == 0
        assert [w.category for w in caught] == [UserWarning]
        assert "sigma=1e+300 exceeds the stability bound" in str(caught[0].message)

    def test_sigma_whose_growth_is_infinite_warns(self):
        # here max |g| overflows to inf, not NaN
        with np.errstate(all="ignore"):
            assert analysis.max_amplification(analysis.phase_modes("u9", 2), 1e100) == np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--n", "16", "--dim", "2", "--sigma", "1e100",
                         "--t-final", "0.05"])
        assert code == 0
        assert [w.category for w in caught] == [UserWarning]
        assert "max |g| = inf" in str(caught[0].message)


class TestRun:
    def test_t_zero_equals_initial_condition(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = main([
            "run", "--ic", "square", "--velocity", "constant", "--scheme", "u5",
            "--n", "32", "--t-final", "0.0", "--out", str(out),
        ])
        assert code == 0
        data = read_solution(out)
        g = Grid(1, 32)
        q0 = initial_condition(standard_problem("square", "constant", g), g)
        assert np.array_equal(data[:, 2], q0)

    def test_deterministic_output(self, tmp_path):
        args = [
            "run", "--ic", "square", "--velocity", "constant", "--scheme", "u5",
            "--n", "32", "--sigma", "0.8", "--t-final", "0.1",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_fields(self, tmp_path):
        out = tmp_path / "sol.csv"
        main([
            "run", "--ic", "square", "--scheme", "u5", "--n", "32",
            "--sigma", "0.8", "--t-final", "0.1", "--out", str(out),
        ])
        meta = read_metadata(out)
        for key in ("steps", "dt", "conservation_drift", "solution_min", "solution_max"):
            assert key in meta
        assert float(meta["conservation_drift"]) <= 1e-12

    def test_low_order_mode_diffuses(self, tmp_path):
        out = tmp_path / "sol.csv"
        main([
            "run", "--ic", "square", "--scheme", "u5", "--n", "64",
            "--sigma", "0.8", "--t-final", "0.5", "--limiter", "off-low",
            "--out", str(out),
        ])
        meta = read_metadata(out)
        assert float(meta["solution_max"]) < 1.0
        assert float(meta["solution_min"]) >= -1e-13

    def test_2d_output_and_centerline(self, tmp_path):
        out = tmp_path / "sol.csv"
        line = tmp_path / "line.csv"
        code = main([
            "run", "--ic", "square", "--velocity", "constant", "--scheme", "u5",
            "--n", "16", "--dim", "2", "--t-final", "0.0",
            "--out", str(out), "--centerline", str(line),
        ])
        assert code == 0
        with open(out) as fh:
            lines = [l for l in fh if not l.startswith("#")]
        assert lines[0].strip() == "i,j,x,y,q"
        assert len(lines) == 1 + 16 * 16
        with open(line) as fh:
            assert fh.readline().strip() == "i,x,q"

    def test_eta_stats_written(self, tmp_path):
        out = tmp_path / "stats.csv"
        main([
            "run", "--ic", "square", "--scheme", "u5", "--n", "32",
            "--sigma", "0.8", "--t-final", "0.05", "--eta-stats", str(out),
        ])
        with open(out) as fh:
            assert fh.readline().strip() == "step,eta_min,eta_mean,frac_below_one"
            rows = fh.readlines()
        assert len(rows) == 2  # ceil(0.05 / (0.8/32)) steps

    def test_numerical_failure_exit_code(self):
        # far beyond the stability limit with the limiter off: the run
        # overflows and aborts with the dedicated exit code (numpy overflow
        # warnings during the deliberate blowup are noise)
        with np.errstate(all="ignore"), pytest.warns(UserWarning):
            code = main([
                "run", "--ic", "square", "--scheme", "u9", "--n", "16",
                "--sigma", "8.0", "--t-final", "400.0", "--limiter", "off",
            ])
        assert code == 2

    def test_io_error_exit_code(self):
        code = main([
            "run", "--ic", "square", "--scheme", "u5", "--n", "16",
            "--t-final", "0.0", "--out", "/nonexistent/dir/sol.csv",
        ])
        assert code == 3


def _no_work(*args, **kwargs):
    raise AssertionError("the work ran before --out was opened")


@pytest.mark.parametrize("work, argv", [
    ("convergence_study", ["converge", "--n-list", "32,64,128"]),
    ("stability_table", ["analyze", "--stability"]),
    ("phase_dissipation_curve", ["analyze", "--scheme", "u5"]),
])
def test_bad_out_path_exits_before_the_work(monkeypatch, capsys, work, argv):
    monkeypatch.setattr(cli, work, _no_work)
    code = main([*argv, "--out", "/nonexistent/dir/out.csv"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("i/o error: ")


@pytest.mark.parametrize("flags", [
    ["--out", "/nonexistent/dir/x.csv"],
    ["--centerline", "/nonexistent/dir/line.csv"],
    ["--eta-stats", "/nonexistent/dir/eta.csv"],
    ["--dump-every", "1", "--dump-prefix", "/nonexistent/dir/snap"],
])
def test_bad_run_output_path_exits_before_the_solve(monkeypatch, capsys, flags):
    monkeypatch.setattr(cli, "integrate", _no_work)
    code = main(["run", "--dim", "2", "--n", "32", "--sigma", "0.4", "--t-final", "0.25", *flags])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("i/o error: ")


def test_run_outputs_kept_on_failure(monkeypatch, tmp_path, capsys):
    def fails(*args, **kwargs):
        raise cli.NumericsError("non-finite values at step 1")

    paths = [tmp_path / name for name in ("sol.csv", "line.csv", "eta.csv")]
    for path in paths:
        path.write_text("kept\n" * 10)
    monkeypatch.setattr(cli, "integrate", fails)
    code = main(["run", "--n", "16", "--t-final", "0.05", "--out", str(paths[0]),
                 "--centerline", str(paths[1]), "--eta-stats", str(paths[2])])
    assert code == 2
    assert [path.read_text() for path in paths] == ["kept\n" * 10] * 3


def test_run_outputs_replace_existing_files(tmp_path, capsys):
    argv = ["run", "--n", "16", "--t-final", "0.05"]
    fresh = [tmp_path / name for name in ("a.csv", "a_line.csv", "a_eta.csv")]
    stale = [tmp_path / name for name in ("b.csv", "b_line.csv", "b_eta.csv")]
    for path in stale:
        path.write_text("stale\n" * 1000)
    for paths in (fresh, stale):
        flags = ["--out", str(paths[0]), "--centerline", str(paths[1]),
                 "--eta-stats", str(paths[2])]
        assert main(argv + flags) == 0
    assert [p.read_bytes() for p in stale] == [p.read_bytes() for p in fresh]
    assert fresh[0].read_text().startswith("# ic: square\n")


def test_one_path_for_two_run_outputs_keeps_the_later(tmp_path, capsys):
    argv = ["run", "--n", "16", "--t-final", "0.05"]
    same, line = tmp_path / "same.csv", tmp_path / "line.csv"
    assert main(argv + ["--out", str(same), "--centerline", str(same)]) == 0
    assert main(argv + ["--centerline", str(line)]) == 0
    assert same.read_bytes() == line.read_bytes()


def test_out_file_kept_on_failure_and_replaced_on_success(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    out.write_text("kept\n" * 100)
    code = main(["analyze", "--scheme", "u9", "--sigma", "1e300", "--out", str(out)])
    assert code == 1 and out.read_text() == "kept\n" * 100
    assert main(["analyze", "--scheme", "u9", "--samples", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,dissipation,phase_error" and len(lines) == 5


class TestConverge:
    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main([
            "converge", "--ic", "cosine8", "--scheme", "u5", "--sigma", "0.8",
            "--n-list", "32,64", "--t-final", "0.25", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            assert fh.readline().strip() == "N,error,order"
            first = fh.readline().split(",")
            second = fh.readline().split(",")
        assert first[0] == "32" and first[2].strip() == ""
        assert second[0] == "64" and second[2].strip() != ""

    def test_bad_n_list(self, capsys):
        code = main(["converge", "--n-list", "32,abc"])
        assert code == 1

    def test_empty_n_list(self, capsys):
        code = main(["converge", "--n-list", ","])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: n-list names no grid size\n"


def _no_step(*args, **kwargs):
    raise AssertionError("a step ran")


class TestStepCeiling:
    """A run of more than ``driver.MAX_STEPS`` steps exits 1 before any step."""

    def check(self, monkeypatch, capsys, option, value, named):
        monkeypatch.setattr(driver, "fct_advance", _no_step)
        code = main(["run", "--n", "16", option, value])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"more than {driver.MAX_STEPS} steps" in err and named in err
        for name in ("sigma=", "t_final=", "h="):
            assert name in err

    def test_tiny_sigma(self, monkeypatch, capsys):
        self.check(monkeypatch, capsys, "--sigma", "1e-300", "sigma=1e-300")

    def test_huge_t_final(self, monkeypatch, capsys):
        self.check(monkeypatch, capsys, "--t-final", "1e300", "t_final=1e+300")

    def test_tiny_extent(self, monkeypatch, capsys):
        self.check(monkeypatch, capsys, "--extent", "1e-300", "h=6.25e-302")


class TestAnalyze:
    def test_curves_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["analyze", "--scheme", "u5", "--sigma", "0.8", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            assert fh.readline().strip() == "beta,dissipation,phase_error"
            rows = fh.readlines()
        assert len(rows) == 256

    def test_stability_table(self, tmp_path):
        out = tmp_path / "stab.csv"
        code = main(["analyze", "--stability", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            assert fh.readline().strip() == "scheme,D,sigma_max"
            rows = [line.split(",") for line in fh]
        assert len(rows) == 10
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("c4", "1")] == pytest.approx(2.06, abs=0.03)

    def test_requires_scheme_or_stability(self, capsys):
        code = main(["analyze"])
        assert code == 1

    def test_overflowing_sigma(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--scheme", "u9", "--sigma", "1e300"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: sigma=1e+300 ")


class TestOutOfMemory:
    """A MemoryError is an ``error:`` line and exit 1, not a traceback."""

    @staticmethod
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.05 TiB for an array")

    def check(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: not enough memory: Unable to allocate 3.05 TiB for an array\n"

    def test_run(self, monkeypatch, capsys):
        monkeypatch.setattr(driver, "fct_advance", self.no_memory)
        self.check(capsys, ["run", "--n", "16", "--t-final", "0.05"])

    def test_analyze(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "rk4_amplification", self.no_memory)
        self.check(capsys, ["analyze", "--scheme", "u5"])
