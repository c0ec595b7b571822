import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "dfls.cli"]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=full_env)


class TestSolveCommand:
    def test_rosenbrock_reaches_minimum(self):
        proc = run_cli("solve", "rosenbrock", "--seed", "0")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["f"] < 1e-10
        assert report["problem"] == "rosenbrock"

    def test_unknown_problem_is_usage_error(self):
        proc = run_cli("solve", "nosuch")
        assert proc.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("solve", "rosenbrock", "--frobnicate")
        assert proc.returncode == 2

    def test_unknown_noise_kind_is_usage_error(self):
        proc = run_cli("solve", "rosenbrock", "--noise", "bogus:1")
        assert proc.returncode == 2
        assert "unknown noise kind" in proc.stderr

    def test_noisy_solve_is_deterministic_per_seed(self):
        args = ("solve", "osborne1", "--noise", "mult_gaussian:1e-2",
                "--restarts", "soft_moving", "--budget-mult", "100", "--seed", "4")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        report = json.loads(a.stdout)
        assert report["exit_flag"] in ("budget", "restarts_exhausted", "small_trust_region",
                                       "slow_progress", "noise_level")

    def test_env_seed_fallback(self):
        a = run_cli("solve", "rosenbrock", env={"DFLS_SEED": "9"})
        b = run_cli("solve", "rosenbrock", "--seed", "9")
        assert json.loads(a.stdout) == json.loads(b.stdout)

    def test_reduced_initialization_flag(self):
        proc = run_cli("solve", "broyden_tridiagonal", "--pinit", "2", "--seed", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["f_true"] < 1e-6

    def test_growing_and_regression_flags(self):
        proc = run_cli("solve", "broyden_tridiagonal", "--pinit", "quartern",
                       "--growing", "perturb", "--seed", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["f_true"] < 1e-6
        proc = run_cli("solve", "rosenbrock", "--regression-points", "3",
                       "--noise", "add_gaussian:1e-3", "--nsamples", "const:2",
                       "--autodetect", "off", "--restarts", "hard",
                       "--budget-mult", "50", "--seed", "0")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_evals"] <= 150

    @pytest.mark.parametrize("flags, field", [
        (("--nsamples", "bogus"), "nsamples policy 'bogus'"),
        (("--nsamples", "const:abc"), "N in const:N must be an integer"),
        (("--budget-mult", "0"), "max_evals"),
        (("--regression-points", "0"), "p >= n"),
    ])
    def test_invalid_solver_value_is_usage_error_naming_the_field(self, flags, field):
        proc = run_cli("solve", "rosenbrock", *flags)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "solver failed" not in proc.stderr


class TestBenchCommand:
    def config(self, tmp_path, **overrides):
        cfg = {
            "problems": ["rosenbrock", "bard"],
            "noise": {"kind": "mult_gaussian", "sigma": 1e-2},
            "solver": {"noisy": True},
            "seeds": 2,
            "budget_multiplier": 50,
            "tau": 1e-2,
            "measure": "both",
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_outputs_written(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        proc = run_cli("bench", str(cfg), "--out", str(out), "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        for name in ("records.csv", "profiles.csv", "summary.json", "profiles.svg"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 4
        assert summary["failures"] == []
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header == "problem,seed,eval_index,f_true,f_noisy"
        pheader = (out / "profiles.csv").read_text().splitlines()[0]
        assert pheader == "alpha,proportion,measure,tau_mode"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("bench", str(cfg), "--out", str(out1), "--seed", "0").returncode == 0
        assert run_cli("bench", str(cfg), "--out", str(out2), "--seed", "0").returncode == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "profiles.csv").read_bytes() == (out2 / "profiles.csv").read_bytes()

    def test_parallel_records_match_serial(self, tmp_path):
        cfg = self.config(tmp_path, problems=["rosenbrock", "bard", "box_3d", "osborne1"],
                          seeds=1, budget_multiplier=20)
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / ("jobs" + jobs)
            proc = run_cli("bench", str(cfg), "--out", str(outs[jobs]), "--seed", "0",
                           "--jobs", jobs)
            assert proc.returncode == 0, proc.stderr
        assert (outs["1"] / "records.csv").read_bytes() == (outs["2"] / "records.csv").read_bytes()

    def test_a_raising_task_is_listed_with_its_seed_and_the_others_run(self, tmp_path,
                                                                       monkeypatch):
        from dfls import bench, cli

        real_run_one = bench.run_one

        def run_one(name, noise, seed, budget_mult, params=None):
            if (name, seed) == ("rosenbrock", 1):
                raise FloatingPointError("overflow")
            return real_run_one(name, noise, seed, budget_mult, params)

        monkeypatch.setattr(bench, "run_one", run_one)
        out = tmp_path / "out"
        assert cli.main(["bench", str(self.config(tmp_path)), "--out", str(out),
                         "--seed", "0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{"problem": "rosenbrock", "seed": 1,
                                        "error": "overflow"}]
        assert sorted(summary["exit_flags"]) == ["bard:0", "bard:1", "rosenbrock:0"]

    def test_bad_solver_block_is_usage_error(self, tmp_path):
        cfg = self.config(tmp_path, solver={"noisy": True, "no_such_field": 1})
        proc = run_cli("bench", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "bad solver config" in proc.stderr

    def test_invalid_solver_value_is_usage_error_before_anything_runs(self, tmp_path):
        out = tmp_path / "out"
        for solver in ({"nsamples": "bogus"}, {"nsamples": "const:abc"}, {"gamma_dec": 2.0}):
            proc = run_cli("bench", str(self.config(tmp_path, solver=solver)), "--out", str(out))
            assert proc.returncode == 2, solver
            assert "bad solver config" in proc.stderr
            assert next(iter(solver)) in proc.stderr
            assert not out.exists()

    def test_no_records_names_a_failure(self, tmp_path, monkeypatch, capsys):
        from dfls import bench, cli

        def run_one(name, noise, seed, budget_mult, params=None):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(bench, "run_one", run_one)
        assert cli.main(["bench", str(self.config(tmp_path)), "--out", str(tmp_path / "out"),
                         "--seed", "0"]) == 2
        assert "rosenbrock seed 0 failed: overflow" in capsys.readouterr().err
        assert cli.main(["bench", str(self.config(tmp_path, seeds=0)),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: no records produced\n"

    def test_solver_flags_change_records(self, tmp_path):
        cfg = self.config(tmp_path)

        def records(*flags):
            out = tmp_path / ("out" + "".join(flags).replace(":", "_"))
            proc = run_cli("bench", str(cfg), "--out", str(out), "--seed", "0", *flags)
            assert proc.returncode == 0, proc.stderr
            return (out / "records.csv").read_bytes()

        plain = records()
        for flags in (("--nsamples", "const:5"), ("--regression-points", "3"),
                      ("--noise", "none")):
            assert records(*flags) != plain, flags

    def test_empty_problem_list_is_usage_error(self, tmp_path):
        cfg = self.config(tmp_path, problems=[])
        proc = run_cli("bench", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2

    def test_unknown_noise_kind_is_usage_error(self, tmp_path):
        cfg = self.config(tmp_path)
        proc = run_cli("bench", str(cfg), "--out", str(tmp_path / "out"), "--noise", "bogus")
        assert proc.returncode == 2
        assert "unknown noise kind" in proc.stderr
        cfg = self.config(tmp_path, noise={"kind": "bogus", "sigma": 0.1})
        proc = run_cli("bench", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2

    def test_unknown_problem_in_config(self, tmp_path):
        cfg = self.config(tmp_path, problems=["nosuch"])
        proc = run_cli("bench", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2

    def test_smooth_suite_uses_true_measure(self, tmp_path):
        cfg = self.config(tmp_path, noise={"kind": "none", "sigma": 0.0}, measure="true",
                          solver={})
        out = tmp_path / "out"
        proc = run_cli("bench", str(cfg), "--out", str(out), "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tau_mode"] == "fixed"
        assert summary["final_proportions"]["true"] == 1.0
