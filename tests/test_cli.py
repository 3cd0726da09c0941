import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import Future
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swapqrn import cli
from swapqrn.readout import set_blas_threads
from swapqrn.reservoir import BACKENDS, ReservoirConfig, check_memory
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
        cfg = cli.parse_config(flag_overrides={"task": "stmc"})
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
        cfg = cli.parse_config(flag_overrides={"task": "narma5"})
        assert cfg.reservoir.n_qubits == 12
        assert cfg.reservoir.gamma == 0.75
        assert cfg.reservoir.n_repeats == 3
        assert cfg.reservoir.c == 5
        assert cfg.reservoir.n_shots == 60000
        assert cfg.task_spec.alpha == 1e-4

    def test_esn_defaults(self):
        cfg = cli.parse_config(flag_overrides={"task": "esn-baseline"})
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
        cfg = cli.parse_config(flag_overrides={"task": task, "seed": 7,
                                               "alpha": 0.25})
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
            cli.parse_config(config_path=path, flag_overrides={"task": "stmc"})
        assert "reservoir" in str(err.value) and "gamma" in str(err.value)

    def test_unknown_key_names_path(self, tmp_path):
        path = write_config(tmp_path, "[reservoir]\nn_qbits = 4\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(config_path=path, flag_overrides={"task": "stmc"})
        assert "reservoir.n_qbits" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[plotting]\ncolor = red\n")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(config_path=path, flag_overrides={"task": "stmc"})
        assert "plotting" in str(err.value)

    def test_unknown_task_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(flag_overrides={"task": "qasm"})

    def test_over_memory_reservoir_rejected(self, tmp_path, capsys):
        """parse_config checks values only; the run verb refuses the point
        it would run, before anything is written."""
        out = tmp_path / "out"
        code = cli.main(["run", "--task", "narma5", "--n-qubits", "48",
                         "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: point 0 (48 qubits, gamma=0.75, "
                              "n_repeats=3): n_qubits=48 ")
        assert "physical memory" in err
        assert not out.exists()

    def test_no_memory_check_at_parse(self, tmp_path):
        """A base value or grid value that no point runs is not checked."""
        path = write_config(tmp_path, "[sweep]\nn_qubits = 2, 48\n")
        cfg = cli.parse_config(config_path=path, flag_overrides={
            "task": "narma5", "n_qubits": 48})
        assert cfg.reservoir.n_qubits == 48
        assert cfg.sweep["n_qubits"] == (2, 48)

    def test_esn_grid_needs_no_quantum_state(self):
        """The ESN baseline's register sizes are node counts, never a state."""
        cfg = cli.parse_config(flag_overrides={"task": "esn-baseline",
                                               "n_qubits_grid": "2,48"})
        assert cfg.sweep["n_qubits"] == (2, 48)

    @pytest.mark.parametrize("task, flags, section", [
        ("stmc", ["--alpha", "-1"], ""),
        ("stmc", ["--alpha", "0"], ""),
        ("stmc", [], "alpha = inf"),
        ("narma5", ["--alpha", "-1"], ""),
        ("narma5", ["--alpha", "0"], ""),
        ("narma5", [], "alpha = nan"),
        ("esn-baseline", [], "spectral_radius = inf"),
        ("stmc", [], "n_total = 10"),
        ("stmc", [], "n_total = 55\nn_train = 30\nn_test = 10"),
        ("narma5", [], "n_total = 45\nn_train = 40\nn_test = 10"),
        ("esn-baseline", [], "spectral_radius = 1.7e308"),
    ], ids=["stmc-alpha-negative", "stmc-alpha-zero", "stmc-alpha-inf",
            "narma5-alpha-negative", "narma5-alpha-zero", "narma5-alpha-nan",
            "esn-spectral-radius-inf", "stmc-series-10", "stmc-series-55",
            "narma5-series-45", "esn-spectral-radius-overflow"])
    def test_unrunnable_task_refused_before_writing(self, tmp_path, capsys,
                                                     task, flags, section):
        """A [task] value that must fail or give nan at run time exits 2
        with one config error line and nothing written."""
        path = write_config(tmp_path, f"[task]\n{section}\n")
        out = tmp_path / "out"
        code = cli.main(["run", "--task", task, "--n-qubits", "2", "--config",
                         path, "--outdir", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config error in [task]: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("section, rule", [
        ("spectral_radius = 1.5", "alpha = 0 needs spectral_radius <= 1, got 1.5"),
        ("n_train = 16\nn_washout = 15",
         "alpha = 0 needs n_train - n_washout > n_nodes = 1, got 1"),
    ], ids=["esn-alpha-zero-radius-above-one", "esn-alpha-zero-rows-at-nodes"])
    def test_esn_rule_checked_per_point(self, tmp_path, capsys, section, rule):
        """An ESN rule at alpha = 0 is checked for the point that runs, with
        its node count: exit 2, one line naming the point, nothing written."""
        path = write_config(tmp_path, f"[task]\n{section}\n")
        out = tmp_path / "out"
        code = cli.main(["run", "--task", "esn-baseline", "--n-qubits", "2",
                         "--config", path, "--outdir", str(out), "--alpha", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: point 0 (2 qubits, gamma=0.75, n_repeats=3): {rule}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, value, reason", [
        (["run", "--n-qubits", "abc"], "--n-qubits", "abc",
         "invalid literal for int() with base 10: 'abc'"),
        (["run", "--context", "x"], "--context", "x",
         "invalid literal for int() with base 10: 'x'"),
        (["run", "--gamma=half"], "--gamma", "half",
         "could not convert string to float: 'half'"),
        (["run", "--task", "esn-baseline", "--n-esn-seeds", "2.5"],
         "--n-esn-seeds", "2.5", "invalid literal for int() with base 10: '2.5'"),
        (["sweep", "--workers", "abc"], "--workers", "abc",
         "invalid literal for int() with base 10: 'abc'"),
        (["run", "--task", "bogus"], "--task", "bogus",
         "expected one of stmc, narma5, esn-baseline"),
        (["sweep", "--gamma-grid", "abc"], "--gamma-grid", "abc",
         "could not convert string to float: 'abc'"),
    ], ids=["n-qubits", "context", "gamma", "n-esn-seeds", "workers", "task",
            "gamma-grid"])
    def test_bad_flag_value_names_flag(self, tmp_path, capsys, argv, flag,
                                       value, reason):
        """A flag is read through its key's schema: a value that does not
        parse exits 2 with one line naming the flag as typed, nothing
        written."""
        out = tmp_path / "out"
        assert cli.main([*argv, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid value for {flag}: {value!r} ({reason})\n")
        assert not out.exists()

    def test_flag_surface(self):
        """run and sweep offer exactly these flags; every flag that sets a
        config value sets a schema key and is read as a string."""
        verbs = next(action.choices for action in cli.build_parser()._actions
                     if action.dest == "verb")
        shared = ["--config", "--task", "--outdir", "--n-qubits", "--gamma",
                  "--n-repeats", "--context", "--n-shots", "--seed",
                  "--backend", "--alpha", "--n-esn-seeds"]
        extra = {"run": [], "sweep": ["--gamma-grid", "--n-qubits-grid",
                                      "--n-repeats-grid", "--workers"]}
        keys = set(cli._RESERVOIR_SCHEMA).union(
            *(task.schema for task in cli.TASKS.values()))
        for verb, tail in extra.items():
            actions = [a for a in verbs[verb]._actions if a.dest != "help"]
            assert [a.option_strings for a in actions] == [
                [flag] for flag in shared + tail]
            # after --config, --task and --outdir, up to the sweep flags
            for action in actions[3:len(shared)]:
                assert action.dest in keys, action.dest
                assert action.type is None and action.choices is None

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPQRN_OUTPUT_ROOT", str(tmp_path))
        cfg = cli.parse_config(flag_overrides={"task": "stmc"})
        assert str(cfg.outdir).startswith(str(tmp_path))

    def test_absolute_outdir_ignores_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPQRN_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = cli.parse_config(flag_overrides={
            "task": "stmc", "outdir": str(tmp_path / "abs")})
        assert str(cfg.outdir) == str(tmp_path / "abs")


class TestSweepGrid:

    def test_default_stmc_grid_has_320_points(self):
        cfg = cli.parse_config(flag_overrides={"task": "stmc"})
        points = cli.sweep_points(cfg)
        assert len(points) == 320
        assert len({(p.n_qubits, p.gamma, p.n_repeats) for p in points}) == 320
        # every point is the base reservoir with its three axes replaced
        assert {replace(p, n_qubits=16, gamma=0.55, n_repeats=1)
                for p in points} == {cfg.reservoir}
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
        cfg = cli.parse_config(flag_overrides={"task": "esn-baseline"})
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


def tiny_task_config(tmp_path, task):
    """A fixed 2-qubit config of ``task``."""
    return write_config(tmp_path, f"""
[experiment]
task = {task}

[reservoir]
n_qubits = 2
gamma = 0.5

[task]
n_total = 120
n_train = 60
n_test = 30
n_washout = 10
""" + ("n_esn_seeds = 2\n" if task == "esn-baseline" else ""))


STMC_DELAYS = [str(-k) for k in range(11)]
GAMMAS = [round(0.05 * k, 10) for k in range(1, 21)]


class TestTaskTable:
    """What each task's entry in cli.TASKS decides: the default sweep grid,
    the rows of one point in results.csv, and the MANIFEST of a config."""

    # task: (the default grid's n_qubits, gamma and n_repeats axes, in sweep
    # order; one point's (metric, delay) rows; the config_sha256 of
    # tiny_task_config, which depends on the config alone, so it holds
    # across numpy and BLAS builds)
    PINS = {
        "stmc": (
            (range(2, 17, 2), GAMMAS, (1, 3)),
            [("r2", d) for d in STMC_DELAYS] + [("rmse", d) for d in STMC_DELAYS]
            + [("mean_rmse_short", "")],
            "0d926db61ab90583a9d613d4edd97f47cda7e5c914b45410d4a406762586cb20"),
        "narma5": (
            ((12,), GAMMAS, (1, 3)),
            [("rmse", ""), ("r2", ""), ("target_std", "")],
            "3eecb2a4ec89bdb6d937ab965dc5068890ff8799d79452622d43e8f10742efef"),
        "esn-baseline": (
            (range(2, 17, 2), (0.75,), (3,)),
            [("median", ""), ("q1", ""), ("q3", "")],
            "7a05f4615cac4ca651deb7cc49a15abb2d3aaa62c449f9faa8650f79e3ef0458"),
    }

    @pytest.mark.parametrize("task", list(PINS))
    def test_entry_decides(self, tmp_path, task):
        axes, rows, digest = self.PINS[task]
        points = cli.sweep_points(cli.parse_config(flag_overrides={"task": task}))
        assert [(i, p.n_qubits, p.gamma, p.n_repeats)
                for i, p in enumerate(points)] == [
            (i, *values) for i, values in enumerate(product(*axes))]

        out = tmp_path / "out"
        assert cli.main(["run", "--config", tiny_task_config(tmp_path, task),
                         "--outdir", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert [tuple(line.split(",")[10:12]) for line in lines[1:]] == rows
        assert (out / "MANIFEST").read_text() == (
            f"artifact swapqrn 0.1.0\nconfig_sha256 {digest}\n"
            "file records.json\nfile results.csv\n")


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


@pytest.mark.parametrize("task, digest", [
    ("stmc", "c34a3bd7c1855f9f1d754d99284db98a86982ab81aad495127f3f69aa8bb48e0"),
    ("narma5", "9495718a5e8b8192dd12ad22b6e2481c58f6f23f90163a6f4306d1440cf9eca0"),
    ("esn-baseline",
     "2989e3c1b03e5fb5d5448785f1c8929965e531a18cf95e59fb0f6324c2200f12"),
])
def test_default_config_hash_pinned(tmp_path, task, digest):
    """The config_sha256 of each task's defaults is the one earlier versions
    wrote, so the payload's shape cannot change unnoticed."""
    cli._write_manifest(tmp_path, cli.parse_config(flag_overrides={"task": task}), [])
    assert f"config_sha256 {digest}\n" in (tmp_path / "MANIFEST").read_text()


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
        """For every task and a deterministic and a stochastic backend, run
        and a sweep whose one point is the run's config write the same
        record, but for its wall time, and the same results.csv rows."""
        for task, backend in product(cli.TASKS, ["exact", "trajectory"]):
            path = tiny_task_config(tmp_path, task)
            flags = ["--config", path, "--backend", backend, "--n-shots", "50"]
            base = cli.parse_config(config_path=path).reservoir
            grid = [f"--{axis.replace('_', '-')}-grid={getattr(base, axis)}"
                    for axis in cli.TASKS[task].grids]
            outs = [tmp_path / task / backend / verb for verb in ("run", "sweep")]
            assert cli.main(["run", *flags, "--outdir", str(outs[0])]) == 0
            assert cli.main(["sweep", *flags, *grid,
                             "--outdir", str(outs[1])]) == 0
            records = [json.loads((out / "records.json").read_text())["records"]
                       for out in outs]
            assert [len(r) for r in records] == [1, 1]
            for (rec,) in records:
                assert rec.pop("wall_time_s") >= 0 and rec["status"] == "ok"
            assert records[0] == records[1]
            rows = [(out / "results.csv").read_text() for out in outs]
            assert rows[0] == rows[1] and len(rows[0].splitlines()) > 1

    def test_run_ignores_sweep_section(self, tmp_path):
        """run executes its one point; an over-memory [sweep] value that it
        never runs does not stop it."""
        path = write_config(tmp_path, "[sweep]\nn_qubits = 2, 48\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--task", "stmc", "--n-qubits", "2",
                         "--config", path, "--outdir", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_over_memory_esn_run_rejected_before_writing(
            self, tmp_path, capsys, monkeypatch):
        need = check_esn_memory(NarmaSpec(), EsnConfig(n_nodes=8), 3)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        out = tmp_path / "out"
        code = cli.main(["run", "--task", "esn-baseline", "--n-qubits", "16",
                         "--n-esn-seeds", "3", "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: point 0 (16 qubits, gamma=0.75, "
                              "n_repeats=3): an ESN of 8 nodes at 3 seeds "
                              "needs about ")
        assert "physical memory" in err
        assert not out.exists()

    def test_esn_runs_at_alpha_zero(self, tmp_path):
        """The ESN's tanh states make a regular design: alpha = 0, refused
        for the quantum tasks, runs."""
        out = tmp_path / "out"
        code = cli.main(["run", "--task", "esn-baseline", "--n-qubits", "2",
                         "--n-esn-seeds", "2", "--alpha", "0",
                         "--outdir", str(out)])
        assert code == 0
        payload = json.loads((out / "records.json").read_text())
        assert payload["config"]["task_spec"]["alpha"] == 0.0
        assert [r["status"] for r in payload["records"]] == ["ok"]

    def test_numpy_integer_config_written_as_plain(self, tmp_path):
        """A numpy-integer size, which ReservoirConfig accepts, writes the
        same results.csv and MANIFEST as the plain int."""
        outs = []
        for n_qubits in (np.int64(2), 2):
            out = tmp_path / type(n_qubits).__name__
            cfg = cli.parse_config(flag_overrides={
                "task": "narma5", "n_qubits": n_qubits, "outdir": str(out)})
            assert cli.cmd_run(cfg) == 0
            outs.append(out)
        for fname in ("results.csv", "MANIFEST"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_esn_seed_count_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--task", "esn-baseline", "--n-qubits", "2",
                         "--n-esn-seeds", "0", "--outdir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: task.n_esn_seeds must be >= 1, got 0\n")
        assert not out.exists()


class TestSweepVerb:

    def test_base_value_outside_grid_not_checked(self, tmp_path):
        """The base n_qubits=40 is no point of this grid, so its memory
        estimate does not stop the sweep."""
        out = tmp_path / "out"
        assert cli.main(["sweep", "--task", "stmc", "--n-qubits", "40",
                         "--n-qubits-grid", "2", "--gamma-grid", "0.5",
                         "--n-repeats-grid", "1", "--outdir", str(out)]) == 0
        records = json.loads((out / "records.json").read_text())["records"]
        assert [(r["config"]["n_qubits"], r["status"]) for r in records] == [
            (2, "ok")]

    def test_base_value_outside_grid_not_fit_checked(self, tmp_path):
        """At alpha = 0 the grid's one 2-qubit point fits its 1 node on 3
        training rows; the base's 4 nodes, which no point uses, would not."""
        path = write_config(tmp_path, "[task]\nn_train = 20\nn_washout = 17\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--task", "esn-baseline", "--n-qubits", "8",
                         "--n-qubits-grid", "2", "--alpha", "0",
                         "--n-esn-seeds", "2", "--config", path,
                         "--outdir", str(out)]) == 0
        records = json.loads((out / "records.json").read_text())["records"]
        assert [(r["config"]["n_nodes"], r["status"]) for r in records] == [
            (1, "ok")]

    def test_unfittable_esn_point_refused_before_writing(self, tmp_path,
                                                         capsys):
        """At alpha = 0 the base's 1 node fits on 3 training rows, the grid's
        4 nodes do not: the sweep exits 2 naming that point, unwritten."""
        path = write_config(tmp_path, "[task]\nn_train = 20\nn_washout = 17\n")
        out = tmp_path / "out"
        code = cli.main(["sweep", "--task", "esn-baseline", "--n-qubits", "2",
                         "--n-qubits-grid", "2,8", "--alpha", "0",
                         "--n-esn-seeds", "2", "--config", path,
                         "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: point 1 (8 qubits, ")
        assert "n_train - n_washout > n_nodes = 4, got 3" in err
        assert not out.exists()

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
        assert set(env) == {"numpy", "blas", "threads", "blas_threads",
                            "cpu_count"}
        assert set(env["blas"]) == {"name", "version"}

    def test_blas_threads_reach_records_only(self, tmp_path, monkeypatch):
        """The BLAS thread counts describe the host: a run that finds no
        getter and one whose process runs 3 threads record them in
        records.json, and write the same results.csv, MANIFEST and figure
        CSVs."""
        path = write_config(
            tmp_path, TINY_STMC + "\n[sweep]\ngamma = 0.5, 1.0\nn_qubits = 2\nn_repeats = 1\n")
        outs, recorded = [], []
        for name, count in (("unpinned", None), ("three", 3)):
            monkeypatch.setattr(cli, "blas_thread_count", lambda: count)
            out = tmp_path / name
            assert cli.main(["sweep", "--config", path, "--outdir", str(out)]) == 0
            assert cli.main(["plotdata", "--records",
                             str(out / "records.json"), "--outdir", str(out)]) == 0
            payload = json.loads((out / "records.json").read_text())
            recorded.append(payload["environment"]["blas_threads"])
            outs.append(out)
        assert recorded == ["unpinned", {"scoring": 1, "process": 3}]
        for fname in ("results.csv", "MANIFEST", "fig_stmc_r2_vs_tau.csv",
                      "fig_stmc_rmse_vs_gamma.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

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

    def test_scores_independent_of_blas_threads(self, tmp_path):
        """Two 16-qubit points on a short series, in fresh interpreters at one
        and two OpenBLAS threads and on a pool of two workers, write the same
        results.csv and MANIFEST: their 100 training rows take the dual
        fit, whose last bits depend on the thread count."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = write_config(tmp_path, "[task]\nn_total = 130\nn_train = 100\n"
                                      "n_test = 15\nn_washout = 4\n")
        argv = ["-m", "swapqrn.cli", "sweep", "--n-qubits-grid", "16",
                "--gamma-grid", "0.3,0.9", "--n-repeats-grid", "1",
                "--config", path]
        outs = []
        for name, threads, extra in (("one", "1", []), ("two", "2", []),
                                     ("pool", "2", ["--workers", "2"])):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / name
            subprocess.run([sys.executable, *argv, *extra, "--outdir", str(out)],
                           env=env, capture_output=True, check=True)
            outs.append(out)
        for fname in ("results.csv", "MANIFEST"):
            assert len({(out / fname).read_bytes() for out in outs}) == 1, fname

    def test_pool_submits_longest_first(self, tmp_path, monkeypatch):
        """Points go to the pool in decreasing 4**n_mem * n_repeats * n_total,
        ties in index order; the records still come out in index order."""
        submitted = []

        class InlinePool:  # runs each point at submission, in this process
            def __init__(self, max_workers, initializer, initargs):
                # each worker would run at one BLAS thread; not applied here,
                # where it would pin this process for the tests that follow
                assert (initializer, initargs) == (set_blas_threads, (1,))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, cfg, index, rc):
                submitted.append(index)
                future = Future()
                future.set_result(fn(cfg, index, rc))
                return future

        # cmd_sweep imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
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
        assert err.startswith("config error: point 3 (8 qubits, "
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
        assert err.startswith("config error: point 1 (16 qubits, gamma=0.75, "
                              "n_repeats=3): an ESN of 8 nodes at 3 seeds "
                              "needs about ")
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
        assert err.startswith("config error: point 2 (48 qubits, gamma=0.5, "
                              "n_repeats=1): n_qubits=48 ")
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
        # must not be used
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        capped = tmp_path / "capped"
        assert cli.main(["sweep", "--config", path, "--outdir", str(capped),
                         "--workers", "4"]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if "capped" in line]
        assert notes == ["note: --workers 4 capped at os.cpu_count() = 1"]
        for fname in ("results.csv", "MANIFEST"):
            assert (serial / fname).read_bytes() == (capped / fname).read_bytes()

    def test_point_failure_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        real = cli.TASKS["stmc"].run

        def flaky(cfg, rc, rng):
            if rc.gamma == 1.0:
                raise RuntimeError("boom at gamma=1")
            return real(cfg, rc, rng)

        monkeypatch.setitem(cli.TASKS, "stmc", replace(cli.TASKS["stmc"], run=flaky))
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
        real = cli.TASKS["stmc"].run

        def dies(cfg, rc, rng):
            if rc.gamma == 1.0:
                os._exit(1)
            return real(cfg, rc, rng)

        # the pool forks, so its workers inherit the patched runner; a
        # 2-worker pool even on one CPU, so the runner never exits pytest
        monkeypatch.setitem(cli.TASKS, "stmc", replace(cli.TASKS["stmc"], run=dies))
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


    @pytest.mark.parametrize("text", [
        None,
        "directory",
        "{\"records\": [\n",
        json.dumps({"records": [
            {"status": "ok", "metrics": {"median": 0.1, "q1": 0.1, "q3": 0.1}}]}),
        json.dumps({"records": [
            {"status": "ok", "task": "narma5", "config": {
                "n_qubits": 2, "n_repeats": 1, "gamma": 0.5}}]}),
    ], ids=["missing", "unreadable", "not-json", "no-task", "no-metrics"])
    def test_bad_records_refused(self, tmp_path, capsys, text):
        """An unreadable or malformed records file exits 2 with one config
        error line and writes no figure file."""
        path = tmp_path / "records.json"
        if text == "directory":
            path.mkdir()
        elif text is not None:
            path.write_text(text)
        out = tmp_path / "figs"
        code = cli.main(["plotdata", "--records", str(path), "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_task_refused(self, tmp_path, capsys):
        """An ok record of a task the CLI does not know exits 2 with one
        line naming the task and the records file."""
        path = tmp_path / "records.json"
        path.write_text(json.dumps({"records": [
            {"status": "ok", "task": "nrama5", "metrics": {"rmse": 0.1},
             "config": {"n_qubits": 2, "n_repeats": 1, "gamma": 0.5}}]}))
        out = tmp_path / "figs"
        code = cli.main(["plotdata", "--records", str(path), "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'nrama5'" in err and str(path) in err
        assert not out.exists()

    def test_malformed_records_named(self, tmp_path, capsys):
        """Of several records files, the error names the malformed one."""
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"records": []}))
        bad.write_text(json.dumps({"records": [{"status": "ok", "task": "narma5"}]}))
        code = cli.main(["plotdata", "--records", str(good), str(bad),
                         "--outdir", str(tmp_path / "figs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed records {bad}: KeyError")
        assert str(good) not in err


# What the property test draws for each schema key: valid values at tiny
# sizes, and the invalid ones that a config check must refuse.  n_total is
# drawn as its excess over n_washout + n_train.
VALID = {
    "n_qubits": st.sampled_from([2, 4]),
    "gamma": st.floats(0.0, 1.0, exclude_min=True),
    "n_repeats": st.integers(1, 3),
    "c": st.integers(1, 3),
    "n_shots": st.sampled_from([1, 50, 200]),
    "seed": st.integers(0, 2 ** 40),
    "backend": st.sampled_from(BACKENDS),
    "n_total": st.integers(7, 20),
    "n_train": st.integers(20, 40),
    "n_test": st.integers(1, 20),
    "n_washout": st.integers(0, 10),
    # a positive alpha below 1e-8 fits as singularly as 0 does; 0 itself
    # is valid for the ESN only
    "alpha": st.one_of(st.just(0.0), st.floats(1e-8, 1e10)),
    "delays": st.sampled_from(["0, -1, -2, -3, -4", "0, -2", "-1, -6"]),
    "spectral_radius": st.floats(allow_nan=False, allow_infinity=False),
    "leak_rate": st.floats(0.0, 1.0, exclude_min=True),
    "n_esn_seeds": st.integers(1, 2),
}
INVALID = {
    "n_qubits": st.sampled_from([3, 0]),
    "gamma": st.sampled_from([0.0, -0.1, 1.5, np.nan]),
    "n_repeats": st.just(0), "c": st.just(0), "n_shots": st.just(0),
    "seed": st.just(-1),
    "n_total": st.integers(-10, 0),
    "n_train": st.just(0), "n_test": st.just(0), "n_washout": st.just(-1),
    "alpha": st.sampled_from([-1.0, np.inf, np.nan]),
    "delays": st.just("0, 1"),
    "spectral_radius": st.sampled_from([np.inf, np.nan]),
    "leak_rate": st.sampled_from([0.0, 1.5]),
    "n_esn_seeds": st.just(0),
}
# sizes that are always drawn, or the defaults make a large run
SIZES = {"n_qubits", "n_shots", "n_total", "n_train", "n_test", "n_washout",
         "n_esn_seeds"}
# schema keys that also have a run/sweep flag
FLAGGED = set(vars(cli.build_parser().parse_args(["run"])))
# sweep grids: valid ones, and one invalid value per axis
GRIDS = {"n_qubits": st.sampled_from(["2", "2,4", "4,2"]),
         "gamma": st.sampled_from(["0.5", "0.25,1.0"]),
         "n_repeats": st.sampled_from(["1", "1,2"])}
BAD_GRIDS = {"n_qubits": "2,3", "gamma": "0,0.5", "n_repeats": "1,0"}


def _documented_nan(task, metrics):
    """The metrics that may be nan (null): r2 where a side has zero
    variance, mean_rmse_short where a short delay is missing."""
    nan_ok = {"r2"}
    if task == "stmc" and not {str(-k) for k in range(5)} <= metrics["rmse"].keys():
        nan_ok.add("mean_rmse_short")
    for name, value in metrics.items():
        values = (value.values() if isinstance(value, dict)
                  else value if isinstance(value, list) else [value])
        assert name in nan_ok or None not in values, (name, value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accepted_config_runs_clean(data):
    """Any config drawn from the schemas either exits 2 with no output
    directory, or runs every point ok with no RuntimeWarning and only the
    documented nans."""
    task = data.draw(st.sampled_from(list(cli.TASKS)), label="task")
    verb = data.draw(st.sampled_from(["run", "sweep"]), label="verb")
    sections = {"reservoir": cli._RESERVOIR_SCHEMA, "task": cli.TASKS[task].schema}
    keys = {name: data.draw(st.sets(st.sampled_from(sorted(schema))), label=name)
            | (SIZES & schema.keys()) for name, schema in sections.items()}
    # at most one key or sweep axis takes an invalid value; an invalid axis
    # of a task that does not sweep it is any grid of it
    bad = data.draw(st.one_of(st.none(), st.sampled_from(
        sorted(INVALID.keys() & (keys["reservoir"] | keys["task"]))
        + [f"sweep.{axis}" for axis in GRIDS if verb == "sweep"])), label="bad")
    values = {key: data.draw((INVALID if key == bad else VALID)[key], label=key)
              for key in sorted(keys["reservoir"] | keys["task"])}
    if "n_total" in values:
        values["n_total"] += values["n_washout"] + values["n_train"]
    text, argv = f"[experiment]\ntask = {task}\n", [verb]
    for name in sections:
        text += f"[{name}]\n"
        for key in sorted(keys[name]):
            flag = {"c": "--context"}.get(key, f"--{key.replace('_', '-')}")
            if key in FLAGGED and data.draw(st.booleans(), label="as flag"):
                argv.append(f"{flag}={values[key]}")
            else:
                text += f"{key} = {values[key]}\n"
    for axis in GRIDS if verb == "sweep" else ():
        if f"sweep.{axis}" == bad and axis in cli.TASKS[task].grids:
            argv.append(f"--{axis.replace('_', '-')}-grid={BAD_GRIDS[axis]}")
        elif f"sweep.{axis}" == bad or axis in cli.TASKS[task].grids:
            argv.append(f"--{axis.replace('_', '-')}-grid={data.draw(GRIDS[axis])}")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "exp.ini"), os.path.join(tmp, "out")
        with open(path, "w") as handle:
            handle.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv + ["--config", path, "--outdir", out])
        if code == 2:
            assert not os.path.exists(out)
            return
        assert code == 0
        with open(os.path.join(out, "records.json")) as handle:
            records = json.load(handle)["records"]
    for record in records:
        assert record["status"] == "ok", record.get("error")
        _documented_nan(task, record["metrics"])


def test_failed_write_leaves_no_files(tmp_path):
    """A write that raises leaves neither the target nor its temp file."""
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "records.json", {"a": object()})
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_cli():
    """The library writes its own files: importing the package in a fresh
    interpreter loads neither its CLI nor argparse."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, swapqrn; "
            "print(sorted({'swapqrn.cli', 'argparse'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_pool(tmp_path):
    """Importing the CLI, and a serial sweep after it, in a fresh
    interpreter load neither concurrent.futures nor multiprocessing."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    argv = ["sweep", "--n-qubits-grid", "2", "--gamma-grid", "0.5,1.0",
            "--n-repeats-grid", "1", "--outdir", str(tmp_path / "out"),
            "--config", write_config(tmp_path, TINY_STMC)]
    pool = "{'concurrent.futures', 'multiprocessing'} & set(sys.modules)"
    code = (f"import sys, swapqrn.cli; before = sorted({pool}); "
            f"assert swapqrn.cli.main({argv!r}) == 0; "
            f"print(before, sorted({pool}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[] []"


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
