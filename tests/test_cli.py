import numpy as np

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


def test_solve_dump_matrices(tmp_path, capsys):
    out_dir = tmp_path / "mats"
    code = cli_main(
        ["solve", "--graph", "star:3", "--ne", "4", "--dump-matrices", str(out_dir)]
    )
    assert code == 0
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
