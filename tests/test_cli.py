import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swapqrn import cli
from swapqrn.reservoir import ReservoirConfig, check_memory
from swapqrn.tasks import EsnConfig, NarmaSpec, check_esn_memory


TINY_STMC = """
[experiment]
task = stmc

[reservoir]
n_qubits = 4
gamma = 0.5

[task]
n_total = 120
n_train = 60
n_test = 30
n_washout = 10
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:

    def test_stmc_defaults(self):
        cfg = cli.parse_config(task="stmc")
        assert cfg.reservoir.n_qubits == 16
        assert cfg.reservoir.gamma == 0.55
        assert cfg.reservoir.n_repeats == 1
        assert cfg.reservoir.c == 1
        assert cfg.reservoir.n_shots == 30000
        assert cfg.reservoir.seed == 42
        assert cfg.reservoir.backend == "exact"
        assert cfg.task_spec.alpha == 1e-5
        assert cfg.task_spec.seed == 42

    def test_narma_defaults(self):
        cfg = cli.parse_config(task="narma5")
        assert cfg.reservoir.n_qubits == 12
        assert cfg.reservoir.gamma == 0.75
        assert cfg.reservoir.n_repeats == 3
        assert cfg.reservoir.c == 5
        assert cfg.reservoir.n_shots == 60000
        assert cfg.task_spec.alpha == 1e-4

    def test_esn_defaults(self):
        cfg = cli.parse_config(task="esn-baseline")
        assert cfg.n_esn_seeds == 200
        assert cfg.esn.n_nodes == cfg.reservoir.n_qubits // 2
        assert cfg.esn.spectral_radius == 0.9
        assert cfg.esn.leak_rate == 0.5

    def test_file_values_applied(self, tmp_path):
        cfg = cli.parse_config(config_path=write_config(tmp_path, TINY_STMC))
        assert cfg.task == "stmc"
        assert cfg.reservoir.n_qubits == 4
        assert cfg.task_spec.n_total == 120

    def test_flags_win_over_file(self, tmp_path):
        cfg = cli.parse_config(config_path=write_config(tmp_path, TINY_STMC),
                               flag_overrides={"gamma": 0.7})
        assert cfg.reservoir.gamma == 0.7

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_seed_and_alpha_flags_reach_task(self, task):
        """--seed sets both the weight seed and the data seed."""
        cfg = cli.parse_config(task=task,
                               flag_overrides={"seed": 7, "alpha": 0.25})
        assert cfg.reservoir.seed == cfg.task_spec.seed == 7
        assert cfg.task_spec.alpha == 0.25

    @pytest.mark.parametrize("task", ["stmc", "narma5"])
    def test_flag_of_another_task_rejected(self, tmp_path, capsys, task):
        out = tmp_path / "out"
        code = cli.main(["run", "--task", task, "--n-esn-seeds", "3",
                         "--outdir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --n-esn-seeds does not apply to {task}\n")
        assert not out.exists()

    def test_negative_seed_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main(["run", "--task", "narma5", "--n-qubits", "2",
                         "--seed", "-1", "--outdir", str(out)])
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_out_of_range_gamma_names_key(self, tmp_path):
        path = write_config(tmp_path, "[reservoir]\ngamma = 1.5\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(task="stmc", config_path=path)
        assert "reservoir" in str(err.value) and "gamma" in str(err.value)

    def test_unknown_key_names_path(self, tmp_path):
        path = write_config(tmp_path, "[reservoir]\nn_qbits = 4\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(task="stmc", config_path=path)
        assert "reservoir.n_qbits" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[plotting]\ncolor = red\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(task="stmc", config_path=path)
        assert "plotting" in str(err.value)

    def test_unknown_task_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(task="qasm")

    def test_over_memory_reservoir_rejected(self):
        with pytest.raises(cli.ConfigError, match="physical memory"):
            cli.parse_config(task="narma5", flag_overrides={"n_qubits": 48})

    def test_esn_grid_needs_no_quantum_state(self):
        """The ESN baseline's register sizes are node counts, never a state."""
        cfg = cli.parse_config(task="esn-baseline",
                               flag_overrides={"n_qubits_grid": "2,48"})
        assert cfg.sweep["n_qubits"] == (2, 48)

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPQRN_OUTPUT_ROOT", str(tmp_path))
        cfg = cli.parse_config(task="stmc")
        assert str(cfg.outdir).startswith(str(tmp_path))

    def test_absolute_outdir_ignores_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPQRN_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = cli.parse_config(task="stmc",
                               flag_overrides={"outdir": str(tmp_path / "abs")})
        assert str(cfg.outdir) == str(tmp_path / "abs")


class TestSweepGrid:

    def test_default_stmc_grid_has_320_points(self):
        cfg = cli.parse_config(task="stmc")
        points = cli.sweep_points(cfg)
        assert len(points) == 320
        assert len({(p.n_qubits, p.gamma, p.n_repeats) for p in points}) == 320
        assert points[0].index == 0 and points[-1].index == 319
        gammas = sorted({p.gamma for p in points})
        assert gammas[0] == 0.05 and gammas[-1] == 1.0 and len(gammas) == 20
        assert sorted({p.n_qubits for p in points}) == [2, 4, 6, 8, 10, 12, 14, 16]
        assert sorted({p.n_repeats for p in points}) == [1, 3]

    def test_grid_overrides(self, tmp_path):
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2, 4\nn_repeats = 1\n")
        points = cli.sweep_points(cli.parse_config(config_path=path))
        assert len(points) == 4

    def test_esn_grid_varies_register_only(self):
        cfg = cli.parse_config(task="esn-baseline")
        points = cli.sweep_points(cfg)
        assert sorted({p.n_qubits for p in points}) == [2, 4, 6, 8, 10, 12, 14, 16]
        assert len(points) == 8

    @pytest.mark.parametrize("axis, section, flags", [
        ("n_qubits", "n_qubits = 3", {}),
        ("gamma", "", {"gamma_grid": "0,0.5"}),
        ("n_repeats", "n_repeats = 0", {}),
    ])
    def test_invalid_grid_value_names_axis(self, tmp_path, axis, section, flags):
        path = write_config(tmp_path, TINY_STMC + f"\n[sweep]\n{section}\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(config_path=path, flag_overrides=flags)
        assert str(err.value).startswith(f"sweep.{axis}: ")

    @pytest.mark.parametrize("axis, flag", [
        ("gamma", "--gamma-grid=0.25,0.5"), ("n_repeats", "--n-repeats-grid=1,3")])
    def test_esn_grid_refuses_unused_axis(self, tmp_path, capsys, axis, flag):
        out = tmp_path / "out"
        code = cli.main(["sweep", "--task", "esn-baseline", "--n-qubits-grid",
                         "2,4", flag, "--outdir", str(out)])
        assert code == 2
        assert f"sweep.{axis}: " in capsys.readouterr().err
        assert not out.exists()


HASHED_CONFIG = {
    "experiment": ["task = narma5", "outdir = out"],
    "reservoir": ["n_qubits = 4", "gamma = 0.5", "n_repeats = 2", "c = 3",
                  "seed = 7"],
    "task": ["n_total = 120", "n_train = 60", "n_test = 30",
             "n_washout = 10", "alpha = 0.001"],
    "sweep": ["gamma = 0.25, 0.5", "n_repeats = 1, 2"],
}


def manifest_hash_line(sections):
    """The ``config_sha256`` MANIFEST line of an INI file laid out as the
    given ``(section, lines)`` pairs."""
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n"
                   for name, lines in sections)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w") as handle:
            handle.write(text)
        cli._write_manifest(tmp, cli.parse_config(config_path=path), [])
        with open(os.path.join(tmp, "MANIFEST")) as handle:
            lines = handle.read().splitlines()
    return next(line for line in lines if line.startswith("config_sha256 "))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_hash_ignores_key_order(data):
    names = data.draw(st.permutations(list(HASHED_CONFIG)))
    shuffled = [(name, data.draw(st.permutations(HASHED_CONFIG[name])))
                for name in names]
    assert (manifest_hash_line(shuffled)
            == manifest_hash_line(HASHED_CONFIG.items()))


class TestRunVerb:

    def test_run_writes_outputs(self, tmp_path):
        path = write_config(tmp_path, TINY_STMC)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", path, "--outdir", str(out)])
        assert code == 0
        payload = json.loads((out / "records.json").read_text())
        assert payload["task"] == "stmc"
        assert len(payload["records"]) == 1
        rec = payload["records"][0]
        assert rec["status"] == "ok"
        assert rec["config"]["n_qubits"] == 4
        assert "mean_rmse_short" in rec["metrics"]
        assert rec["wall_time_s"] >= 0.0
        assert (out / "results.csv").exists()
        manifest = (out / "MANIFEST").read_text()
        assert "config_sha256" in manifest

    def test_single_point_sweep_equals_run(self, tmp_path):
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5\nn_qubits = 4\nn_repeats = 1\n")
        out_run = tmp_path / "run"
        out_sweep = tmp_path / "sweep"
        cli.main(["run", "--config", path, "--outdir", str(out_run)])
        cli.main(["sweep", "--config", path, "--outdir", str(out_sweep)])
        a = json.loads((out_run / "records.json").read_text())["records"][0]
        b = json.loads((out_sweep / "records.json").read_text())["records"][0]
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b


class TestSweepVerb:

    def test_rerun_outputs_byte_identical(self, tmp_path):
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2, 4\nn_repeats = 1\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["sweep", "--config", path, "--outdir", str(out)]) == 0
            assert cli.main(["plotdata", "--records",
                             str(out / "records.json"), "--outdir", str(out)]) == 0
            outs.append(out)
        for fname in ("results.csv", "MANIFEST", "fig_stmc_r2_vs_tau.csv",
                      "fig_stmc_rmse_vs_gamma.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        env = json.loads((outs[0] / "records.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert set(env) == {"numpy", "blas", "threads", "cpu_count"}
        assert set(env["blas"]) == {"name", "version"}

    def test_staging_files_written_and_merged(self, tmp_path):
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2\nn_repeats = 1\n")
        out = tmp_path / "out"
        cli.main(["sweep", "--config", path, "--outdir", str(out)])
        staged = sorted(p.name for p in (out / "points").iterdir())
        assert staged == ["point_0000.json", "point_0001.json"]
        payload = json.loads((out / "records.json").read_text())
        assert [r["point_index"] for r in payload["records"]] == [0, 1]

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # keep the pool path
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2, 4\nn_repeats = 1\n")
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        cli.main(["sweep", "--config", path, "--outdir", str(serial)])
        cli.main(["sweep", "--config", path, "--outdir", str(pooled),
                  "--workers", "2"])
        a = json.loads((serial / "records.json").read_text())["records"]
        b = json.loads((pooled / "records.json").read_text())["records"]
        for rec in a + b:
            rec.pop("wall_time_s")
        assert a == b

    def test_pool_submits_longest_first(self, tmp_path, monkeypatch):
        """Points go to the pool in decreasing 4**n_mem * n_repeats * n_total,
        ties in index order; the records still come out in index order."""
        submitted = []

        class InlinePool:  # runs each point at submission, in this process
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, cfg, point):
                submitted.append(point.index)
                future = Future()
                future.set_result(fn(cfg, point))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = write_config(tmp_path, TINY_STMC + (
            "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2, 4\nn_repeats = 1, 2\n"))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", path, "--outdir", str(out),
                         "--workers", "2"]) == 0
        # index = (n_qubits, gamma, n_repeats) in grid order; cost 4**n_mem * r
        assert submitted == [5, 7, 4, 6, 1, 3, 0, 2]
        records = json.loads((out / "records.json").read_text())["records"]
        assert [r["point_index"] for r in records] == list(range(8))

    def test_over_memory_point_rejected_before_writing(
            self, tmp_path, capsys, monkeypatch):
        """Every grid axis alone fits with the base config (4 qubits,
        n_repeats=1); their combination (8 qubits, n_repeats=3) does not."""
        need = [check_memory(ReservoirConfig(n_qubits=8, gamma=0.5,
                                             n_repeats=r), 120) for r in (1, 3)]
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": sum(need) // 2}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        path = write_config(tmp_path, TINY_STMC)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", path, "--outdir", str(out),
                         "--n-qubits-grid", "4,8", "--n-repeats-grid", "1,3",
                         "--gamma-grid", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep point 3 (8 qubits, "
                              "gamma=0.5, n_repeats=3): n_qubits=8 ")
        assert "physical memory" in err
        assert not out.exists()

    def test_over_memory_esn_point_rejected_before_writing(
            self, tmp_path, capsys, monkeypatch):
        """The ESN baseline's points go through the memory estimate that
        run_esn_narma applies: a grid whose largest network does not fit
        exits 2 before anything is written."""
        spec = NarmaSpec()
        need = [check_esn_memory(spec, EsnConfig(n_nodes=n), 3) for n in (1, 8)]
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": sum(need) // 2}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--task", "esn-baseline", "--n-qubits", "2",
                         "--n-qubits-grid", "2,16", "--n-esn-seeds", "3",
                         "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.n_qubits: an ESN of 8 "
                              "nodes at 3 seeds needs about ")
        assert "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5\nn_qubits = 2\nn_repeats = 1\n")
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", path, "--outdir", str(out),
                         "--workers", workers])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_over_memory_grid_rejected_before_writing(self, tmp_path, capsys):
        """A grid point whose state cannot fit in physical memory is refused
        from its estimate alone."""
        path = write_config(tmp_path, TINY_STMC)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", path, "--outdir", str(out),
                         "--n-qubits-grid", "4,48", "--gamma-grid", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.n_qubits: n_qubits=48 ")
        assert "physical memory" in err
        assert not out.exists()

    def test_workers_capped_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        """--workers above os.cpu_count() runs with that many, noted once on
        stderr; with one CPU that is the serial path, so no process starts."""
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2\nn_repeats = 1\n")
        serial = tmp_path / "serial"
        assert cli.main(["sweep", "--config", path, "--outdir", str(serial)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)  # must not be used
        capped = tmp_path / "capped"
        assert cli.main(["sweep", "--config", path, "--outdir", str(capped),
                         "--workers", "4"]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if "capped" in line]
        assert notes == ["note: --workers 4 capped at os.cpu_count() = 1"]
        for fname in ("results.csv", "MANIFEST"):
            assert (serial / fname).read_bytes() == (capped / fname).read_bytes()

    def test_point_failure_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        real = cli.TASK_RUNNERS["stmc"]

        def flaky(cfg, rc, rng):
            if rc.gamma == 1.0:
                raise RuntimeError("boom at gamma=1")
            return real(cfg, rc, rng)

        monkeypatch.setitem(cli.TASK_RUNNERS, "stmc", flaky)
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2\nn_repeats = 1\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", path, "--outdir", str(out)]) == 0
        records = json.loads((out / "records.json").read_text())["records"]
        assert [r["status"] for r in records] == ["ok", "error"]
        assert "boom" in records[1]["error"]
        csv_text = (out / "results.csv").read_text()
        assert "1,stmc" not in csv_text  # errored point emits no metric rows


    def test_crashed_worker_recorded_and_outputs_written(self, tmp_path, monkeypatch):
        """A worker that dies mid-point turns every lost point into an error
        record; the points that finished are still merged and written."""
        real = cli.TASK_RUNNERS["stmc"]

        def dies(cfg, rc, rng):
            if rc.gamma == 1.0:
                os._exit(1)
            return real(cfg, rc, rng)

        # the pool forks, so its workers inherit the patched runner; a
        # 2-worker pool even on one CPU, so the runner never exits pytest
        monkeypatch.setitem(cli.TASK_RUNNERS, "stmc", dies)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2\nn_repeats = 1\n")
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", path, "--outdir", str(out),
                         "--workers", "2"])
        records = json.loads((out / "records.json").read_text())["records"]
        assert [r["point_index"] for r in records] == [0, 1]
        assert records[1]["status"] == "error"
        for rec in records:
            if rec["status"] == "error":
                assert rec["error"].startswith("BrokenProcessPool: ")
                assert rec["config"]["gamma"] in (0.5, 1.0)
        n_ok = sum(r["status"] == "ok" for r in records)
        assert code == (0 if n_ok else 1)
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {
            str(r["point_index"]) for r in records if r["status"] == "ok"}
        assert (out / "MANIFEST").exists()
        assert sorted(p.name for p in (out / "points").iterdir()) == [
            "point_0000.json", "point_0001.json"]


class TestPlotdata:

    @pytest.fixture()
    def stmc_outputs(self, tmp_path):
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2, 4\nn_repeats = 1\n")
        out = tmp_path / "out"
        cli.main(["sweep", "--config", path, "--outdir", str(out)])
        cli.main(["plotdata", "--records", str(out / "records.json"),
                  "--outdir", str(out)])
        return out

    def test_stmc_figure_files(self, stmc_outputs):
        tau_lines = (stmc_outputs / "fig_stmc_r2_vs_tau.csv").read_text().splitlines()
        assert tau_lines[0] == "n_qubits,n_repeats,gamma,tau,r2"
        assert len(tau_lines) == 1 + 4 * 11  # 4 points x 11 delays
        rmse_lines = (stmc_outputs / "fig_stmc_rmse_vs_gamma.csv").read_text().splitlines()
        assert rmse_lines[0] == "n_qubits,n_repeats,gamma,mean_rmse_short,random_guess"
        assert rmse_lines[1].endswith("0.28867513459481287")

    def test_narma_figure_file(self, tmp_path):
        cfgtext = """
[experiment]
task = narma5

[reservoir]
n_qubits = 4
gamma = 0.5

[task]
n_total = 400
n_train = 300
n_test = 80

[sweep]
gamma = 0.5, 0.75
n_qubits = 4
n_repeats = 3
"""
        path = write_config(tmp_path, cfgtext)
        out = tmp_path / "out"
        cli.main(["sweep", "--config", path, "--outdir", str(out)])
        cli.main(["plotdata", "--records", str(out / "records.json"),
                  "--outdir", str(out)])
        lines = (out / "fig_narma_rmse_vs_gamma.csv").read_text().splitlines()
        assert lines[0] == "n_qubits,n_repeats,gamma,rmse,random_guess"
        floors = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(f > 0 for f in floors)

    def test_esn_figure_file(self, tmp_path):
        cfgtext = """
[experiment]
task = esn-baseline

[task]
n_total = 400
n_train = 300
n_test = 80
n_esn_seeds = 5

[sweep]
n_qubits = 2, 4
"""
        path = write_config(tmp_path, cfgtext)
        out = tmp_path / "out"
        cli.main(["sweep", "--config", path, "--outdir", str(out)])
        cli.main(["plotdata", "--records", str(out / "records.json"),
                  "--outdir", str(out)])
        lines = (out / "fig_esn_comparison.csv").read_text().splitlines()
        assert lines[0] == "n_nodes,median,q1,q3"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def test_failed_write_leaves_no_files(tmp_path):
    """A write that raises leaves neither the target nor its temp file."""
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "records.json", {"a": object()})
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    CLI in a fresh interpreter leaves no scipy module loaded."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, swapqrn, swapqrn.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
