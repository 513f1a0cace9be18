import json

import numpy as np
import pytest

from mgopt import cli, optcontrol
from mgopt.cli import cli_main
from mgopt.experiments import EigProbeResult


def test_graph_info_fdm(capsys):
    assert cli_main(["graph-info", "--graph", "fdmL:10"]) == 0
    out = capsys.readouterr().out
    assert "75 vertices, 130 edges" in out


def test_graph_info_star(capsys):
    assert cli_main(["graph-info", "--graph", "star:12"]) == 0
    out = capsys.readouterr().out
    assert "13 vertices, 12 edges, 12 Dirichlet" in out


def test_solve_smoke(capsys):
    code = cli_main(
        ["solve", "--graph", "star:4", "--ne", "8", "--beta", "1e-3", "--precon", "nonsym"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "n_dof=33" in out
    assert "iterations=" in out
    assert "residual=" in out


def test_solve_minres_path(capsys):
    code = cli_main(
        ["solve", "--graph", "star:4", "--ne", "8", "--solver", "minres", "--precon", "sym"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "stop_residual=" in out


def test_solve_minres_with_the_default_preconditioner(capsys):
    # the default --precon is nonsym, whose block is SPD, so MINRES takes it
    assert cli_main(["solve", "--graph", "star:3", "--ne", "8", "--solver", "minres"]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_solve_memory_error_is_reported(capsys, monkeypatch):
    # a Krylov basis too large to allocate; raised, not allocated for real
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 323. GiB for an array with shape (433377, 100001)")

    monkeypatch.setattr(cli, "solve_ocp_assembled", out_of_memory)
    code = cli_main(["solve", "--graph", "star:3", "--ne", "4", "--precon", "none"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: Unable to allocate 323. GiB for an array with shape (433377, 100001)\n"


def test_solve_negative_cap_is_reported(capsys):
    for solver in (["--solver", "gmres"], ["--solver", "minres", "--precon", "sym"]):
        code = cli_main(["solve", "--graph", "star:3", "--ne", "4", "--maxit", "-1", *solver])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: iteration cap must be at least 0, got -1\n"


def test_solve_tolerance_never_met_is_reported(capsys):
    for tol in ("0", "-1", "nan"):
        for solver in (["--solver", "gmres"], ["--solver", "minres", "--precon", "sym"]):
            code = cli_main(["solve", "--graph", "star:3", "--ne", "4", "--tol", tol, *solver])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error: tolerance must be positive, got ")


def test_graph_info_malformed_json_is_reported(tmp_path, capsys):
    path = tmp_path / "g.json"
    for vertices, edges, where in (
        ([{"id": 0}, {"type": "dirichlet"}], [], "vertex entry 1"),
        ([{"id": 0}, {"id": 1}], [{"u": 0}], "edge entry 0"),
        ([0, 1], [], "vertex entry 0"),
    ):
        path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
        assert cli_main(["graph-info", "--graph", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err


def test_graph_info_non_finite_length_is_reported(tmp_path, capsys):
    path = tmp_path / "g.json"
    edges = [{"u": 0, "v": 1, "length": float("nan")}]
    path.write_text(json.dumps({"vertices": [{"id": 0, "type": "dirichlet"}, {"id": 1}], "edges": edges}))
    assert cli_main(["graph-info", "--graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edge 0 (0, 1) has length nan" in err


def test_solve_dump_matrices(tmp_path, capsys, monkeypatch):
    # the solve and the dump share one assembly
    calls = []
    for module in (cli, optcontrol):
        build = module.build_operators
        monkeypatch.setattr(
            module, "build_operators", lambda *a, build=build: calls.append(1) or build(*a)
        )
    out_dir = tmp_path / "mats"
    code = cli_main(
        ["solve", "--graph", "star:3", "--ne", "4", "--dump-matrices", str(out_dir)]
    )
    assert code == 0
    assert len(calls) == 1
    assert "time=" in capsys.readouterr().out
    assert (out_dir / "A.mtx").exists()
    assert (out_dir / "M.mtx").exists()
    assert (out_dir / "K.mtx").exists()


def test_iteration_study_cli(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli_main(
        [
            "iteration-study", "--graph", "star:4", "--ne", "2,4",
            "--beta", "1e-2,1e-3", "--no-unpreconditioned", "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "N_DOF" in text
    assert out.exists()
    assert len(out.read_text().splitlines()) == 5


def test_convergence_study_cli(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = cli_main(
        [
            "convergence-study", "--graph", "star:3", "--ne", "4,8",
            "--beta", "0.1", "--ref-ne", "32", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n_e,")
    assert len(lines) == 3


@pytest.mark.parametrize("args, message", [
    (["convergence-study", "--ne", "4,4"], "repeated levels in the sweep: 4"),
    (["convergence-study", "--ne", "0,4"], "intervals per edge must be at least 1, got 0"),
    (["iteration-study", "--ne", "4,4"], "repeated levels in the sweep: 4"),
    (["iteration-study", "--ne", "4,8", "--beta", "1e-2,0.01"], "repeated betas in the sweep: 0.01"),
])
def test_convergence_study_bad_sweep_is_reported(capsys, args, message):
    code = cli_main([*args, "--graph", "star:3"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("probe, message", [
    (["--f", "nan"], "f must be finite, got nan"),
    (["--c0", "nan"], "c0 must be finite, got nan"),
    (["--beta", "inf"], "beta must be finite, got inf"),
    (["--c0", "inf"], "c0 must be finite, got inf"),
    (["--ybar", "inf"], "ybar must be finite, got inf"),
    (["--ybar", "-inf"], "ybar must be finite, got -inf"),
    (["--f", "-Infinity"], "f must be finite, got -inf"),
])
def test_solve_non_finite_data_is_reported(capsys, monkeypatch, probe, message):
    steps = []
    for name in ("gmres", "minres"):
        solver = getattr(optcontrol, name)
        monkeypatch.setattr(optcontrol, name, lambda *a, solver=solver, **k: steps.append(1) or solver(*a, **k))
    code = cli_main(["solve", "--graph", "fdmL:10", "--ne", "8", *probe])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not steps


@pytest.mark.parametrize("probe", [
    # argparse alone reads only plain negative decimals such as -1 as values
    ["--ybar", "-1e-3"],
    ["--f", "-2.5E+0"],
    ["--ybar", "-.5", "--f", "-1"],
])
def test_solve_takes_negative_values_in_every_float_form(capsys, probe):
    assert cli_main(["solve", "--graph", "fdmL:10", "--ne", "4", *probe]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_iteration_study_bad_jobs_are_reported(capsys):
    code = cli_main(["iteration-study", "--graph", "star:3", "--ne", "4", "--jobs", "-2"])
    assert code == 1
    assert capsys.readouterr().err == "error: jobs must be at least 1, got -2\n"


@pytest.mark.parametrize("args", [
    ["iteration-study", "--ne", "4", "--beta", "1e-2"],
    ["convergence-study", "--ne", "4,8", "--ref-ne", "32"],
    ["eig-probe", "--ne", "2", "--beta", "1e-2"],
])
def test_study_out_in_a_missing_directory_is_refused(tmp_path, capsys, args):
    # refused before the study runs: no table printed, no error after it
    missing = tmp_path / "missing"
    code = cli_main([*args, "--graph", "star:3", "--out", str(missing / "x.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output directory does not exist: {missing}\n"


def test_eig_probe_cli(tmp_path, capsys, monkeypatch):
    writes = []
    write_csv = EigProbeResult.write_csv

    def counted_write_csv(self, path):
        writes.append(path)
        write_csv(self, path)

    monkeypatch.setattr(EigProbeResult, "write_csv", counted_write_csv)
    out = tmp_path / "eig.csv"
    code = cli_main(
        ["eig-probe", "--graph", "star:3", "--ne", "2", "--beta", "1e-2", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "ideal" in text
    assert f"wrote {out}" in text
    assert writes == [str(out)]
    assert out.read_text().startswith("kind,beta,re,im")


@pytest.mark.parametrize("args", [
    # options a command does not read are not accepted
    ["solve", "--out", "x.csv"],
    ["convergence-study", "--jobs", "2"],
    *(["eig-probe", option, value] for option, value in (
        ("--jobs", "2"), ("--solver", "minres"), ("--precon", "sym"), ("--tol", "1e-6"),
        ("--maxit", "5"), ("--f", "-7"), ("--ybar", "3.3"),
    )),
    # the convergence study runs at one beta, the probe on one mesh
    ["convergence-study", "--beta", "1e-2,1e-3"],
    ["eig-probe", "--ne", "2,4"],
])
def test_options_a_command_does_not_read_exit_2(capsys, args):
    # reported with the usage line of the command, which lists its options
    assert cli_main([*args, "--graph", "star:3"]) == 2
    assert capsys.readouterr().err.startswith(f"usage: mgopt {args[0]} [-h] --graph GRAPH")


def test_usage_errors_exit_2(capsys):
    assert cli_main(["bogus-command"]) == 2
    capsys.readouterr()
    assert cli_main(["solve", "--graph", "star:3", "--bogus-flag", "1"]) == 2
    capsys.readouterr()
    assert cli_main(["solve"]) == 2
    capsys.readouterr()
    assert cli_main([]) == 2


def test_domain_errors_exit_1(capsys):
    assert cli_main(["solve", "--graph", "star:0", "--ne", "4"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert cli_main(["graph-info", "--graph", "nosuchfile.mtx"]) == 1
