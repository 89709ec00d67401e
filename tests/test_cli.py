import re

import numpy as np
import pytest

from cmsphere import cli
from cmsphere.diagnostics import CSV_HEADER
from cmsphere.errors import LocationFailure, NonFiniteState, ZeroVector
from cmsphere.mapping import load_chain
from cmsphere.tracers import cosine_bells


def test_mesh_command(capsys, tmp_path):
    out = tmp_path / "meshdir"
    assert cli.main(["mesh", "--k", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "vertices=162" in text and "triangles=320" in text
    assert (out / "vertices.txt").exists()
    assert (out / "triangles.txt").exists()


def test_run_saves_chain_and_csv(capsys, tmp_path):
    chain_path = tmp_path / "chain.npz"
    csv_path = tmp_path / "err.csv"
    code = cli.main(
        [
            "run", "--test", "solid_body", "--alpha", "1.05", "--k", "2",
            "--n-steps", "6", "--samples", "20000",
            "--save-chain", str(chain_path), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "solid_body: k=2 steps=6" in text
    assert "submaps=1" in text
    assert CSV_HEADER in text
    assert load_chain(str(chain_path)).n_submaps == 1
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("solid_body,2,6,0,")


def test_usage_errors(capsys):
    cases = [
        ["run", "--test", "tornado"],
        ["run", "--test", "compressible", "--alpha", "0.5"],
        ["run", "--k", "9"],
        ["run", "--k", "7"],  # needs --allow-deep
        ["mesh", "--k", "-1"],
        ["converge", "--k-min", "4", "--k-max", "3"],
        ["render", "--t", "0", "--width", "1e-9",
         "--center-lam", "0", "--center-theta", "1"],
        ["render", "--t", "0", "--width", "0.5"],
        ["mass", "--n-list", "4,8", "--k", "2", "--n-steps", "2"],
    ]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--k", "1", "--n-steps", "2", "--csv", "x.csv", "--samples", "0"],
        ["remap-study", "--k", "1", "--n-steps", "2", "--strides", "0", "--samples", "-1"],
        ["render", "--k", "1", "--n-steps", "2", "--resolution", "0"],
        ["run", "--k", "1", "--n-steps", "0"],
        ["run", "--k", "1", "--remap-stride", "1000"],
        ["run", "--k", "1", "--test", "moving_vortex", "--T", "-1"],
        ["run", "--k", "1", "--test", "deformational", "--T", "0"],
        ["run", "--k", "1", "--test", "moving_vortex", "--T", "0"],
        ["run", "--k", "1", "--test", "solid_body", "--T", "0"],
        ["run", "--k", "1", "--test", "solid_body", "--T", "-0.5"],
        ["mixing", "--k", "1", "--T", "0"],
    ],
)
def test_nonpositive_counts_exit_2(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    # one line naming the setting: "--samples must ..." or "n_steps must ..."
    assert re.match(r"error: (--)?\w+ must ", err) and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, option, env",
    [
        (["converge", "--k-min", "-1"], "k-min", None),
        (["run", "--mass-cells", "4", "--csv", "x.csv"], "mass-cells", None),
        (["run", "--tracer", "foo", "--csv", "x.csv"], "tracer", None),
        (["converge", "--tracer", "foo"], "tracer", None),
        (["run", "--seed", "-1", "--csv", "x.csv"], "seed", None),
        (["run", "--save-chain", "missing/d/c.npz"], "save-chain", None),
        (["render", "--out", "missing/r.ppm"], "out", None),
        (["mixing", "--out", "missing/m.csv"], "out", None),
        (["render", "--center-theta", "nan"], "center-theta", None),
        (["mass", "--n-list", ","], "n-list", None),
        (["remap-study", "--strides", ","], "strides", None),
        (["run", "--alpha", "nan"], "alpha", None),
        (["run", "--samples", "abc", "--csv", "x.csv"], "samples", None),
        (["run", "--config", "exp.ini", "--csv", "x.csv"], "mass_cells", None),
        (["run", "--test", "deformational", "--t", "0.3", "--csv", "x.csv"], "csv", None),
        (["run", "--csv", "x.csv"], "CMM_THREADS", "abc"),
        (["render", "--out", "r.png"], "out", None),
    ],
)
def test_bad_values_exit_2_before_evolving(argv, option, env, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text("[run]\nmass_cells = 4\n")
    if env is not None:
        monkeypatch.setenv("CMM_THREADS", env)
    calls = []

    def evolve(*args, **kwargs):
        calls.append(args)
        raise AssertionError("evolved before rejecting a bad value")

    monkeypatch.setattr(cli, "evolve_run", evolve)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option in err
    assert not calls
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("out", ["taken", "taken/sub", ""])
def test_bad_mesh_out_exits_2_before_building(out, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a regular file\n")

    def build(*args):
        raise AssertionError("built a mesh before rejecting --out")

    monkeypatch.setattr(cli, "build_icosahedral", build)
    assert cli.main(["mesh", "--k", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out must ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_config_resolution(capsys, tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[run]\nk = 2\nn-steps = 4\nsamples = 5000\ntest = solid_body\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert "steps=4" in capsys.readouterr().out
    # a flag beats the config value
    assert cli.main(["run", "--config", str(cfg), "--n-steps", "3"]) == 0
    assert "steps=3" in capsys.readouterr().out

    bad_section = tmp_path / "bad1.ini"
    bad_section.write_text("[transport]\nk = 2\n")
    assert cli.main(["run", "--config", str(bad_section)]) == 2
    assert "unknown section" in capsys.readouterr().err

    bad_key = tmp_path / "bad2.ini"
    bad_key.write_text("[run]\nfoo = 1\n")
    assert cli.main(["run", "--config", str(bad_key)]) == 2
    assert "unknown key" in capsys.readouterr().err

    bad_value = tmp_path / "bad3.ini"
    bad_value.write_text("[run]\nk = three\n")
    assert cli.main(["run", "--config", str(bad_value)]) == 2

    assert cli.main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ini, code, message",
    [
        ("k = 1\nallow_deep = maybe\n", 2,
         "error: config [mesh]: allow_deep must be a boolean"),
        ("k = 7\nallow_deep = no\n", 2, "exceeds the desk-scale cap of 6"),
        ("k = 1\nallow_deep = yes\n", 0, ""),
    ],
)
def test_ini_booleans(ini, code, message, capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "mesh.ini"
    cfg.write_text("[mesh]\n" + ini)
    built = []
    real_build = cli.build_icosahedral

    def build(level):
        built.append(level)
        return real_build(level)

    monkeypatch.setattr(cli, "build_icosahedral", build)
    assert cli.main(["mesh", "--config", str(cfg)]) == code
    assert message in capsys.readouterr().err
    assert built == ([1] if code == 0 else [])


def test_converge_reports_slopes(capsys, tmp_path):
    csv_path = tmp_path / "conv.csv"
    code = cli.main(
        [
            "converge", "--test", "solid_body", "--alpha", "0.0",
            "--k-min", "2", "--k-max", "3", "--n-steps", "4",
            "--samples", "20000", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert CSV_HEADER in text
    assert text.count("slope ") == 3
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "2"
    assert lines[2].split(",")[1] == "3"


def test_render_equirect_matches_direct_sampling(capsys, tmp_path):
    img = tmp_path / "r.pgm"
    csv_path = tmp_path / "vals.csv"
    code = cli.main(
        [
            "render", "--test", "solid_body", "--k", "2", "--t", "0",
            "--resolution", "16",
            "--out", str(img), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    raw = img.read_bytes()
    assert raw.startswith(b"P5\n32 16\n255\n")
    assert len(raw) == len(b"P5\n32 16\n255\n") + 32 * 16

    # at t=0 the image is the raw tracer on the grid
    grid = cli._equirect_grid(16)
    want = cosine_bells()(grid)
    rows = csv_path.read_text().strip().split("\n")[1:]
    got = np.array([float(r.split(",")[2]) for r in rows]).reshape(16, 32)
    assert np.array_equal(got, want)


def test_render_window_ppm(tmp_path):
    img = tmp_path / "w.ppm"
    code = cli.main(
        [
            "render", "--test", "solid_body", "--k", "2", "--t", "0",
            "--resolution", "8", "--width", "0.5",
            "--center-lam", "3.67", "--center-theta", "1.57",
            "--out", str(img),
        ]
    )
    assert code == 0
    raw = img.read_bytes()
    assert raw.startswith(b"P6\n8 8\n255\n")
    assert len(raw) == len(b"P6\n8 8\n255\n") + 3 * 8 * 8


def test_render_at_t0_builds_no_mesh(tmp_path, monkeypatch):
    # the identity chain never reads a mesh, so the level does not matter
    coarse = tmp_path / "k1.ppm"
    argv = ["render", "--t", "0", "--resolution", "4", "--out"]
    assert cli.main(argv + [str(coarse), "--k", "1"]) == 0

    def refuse(level):
        raise AssertionError("render --t 0 built a mesh")

    monkeypatch.setattr(cli, "build_icosahedral", refuse)
    fine = tmp_path / "k6.ppm"
    assert cli.main(argv + [str(fine), "--k", "6"]) == 0
    assert fine.read_bytes() == coarse.read_bytes()


def test_mixing_reports_zero_residual(capsys, tmp_path):
    out = tmp_path / "mix.csv"
    code = cli.main(
        ["mixing", "--k", "2", "--n-steps", "4", "--resolution", "12",
         "--out", str(out)]
    )
    assert code == 0
    assert "correlation residual 0.000e+00" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "q1,q2"
    assert len(lines) == 1 + 12 * 12
    vals = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    q1, q2 = vals[:, 0], vals[:, 1]
    assert np.array_equal(q2, -0.8 * q1 * q1 + 0.9)


def test_mass_command(capsys, tmp_path):
    out = tmp_path / "mass.csv"
    code = cli.main(
        ["mass", "--k", "2", "--n-steps", "4", "--n-list", "8,16",
         "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "N=8 |1-mass|=" in text and "N=16 |1-mass|=" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,mass_err"
    assert len(lines) == 3


def test_remap_study(capsys, tmp_path):
    csv_path = tmp_path / "remap.csv"
    code = cli.main(
        [
            "remap-study", "--k", "2", "--n-steps", "4", "--T", "0.5",
            "--strides", "0,2", "--samples", "5000",
            "--tracer", "cosine_bells", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "stride,remaps,linf,walltime" in text
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("2,1,")


@pytest.mark.parametrize(
    "exc, word",
    [
        (NonFiniteState("field values left the finite range"), "finite"),
        (ZeroVector("map value collapsed toward the origin"), "collapsed"),
        (LocationFailure("point location walk exceeded 80 steps"), "walk"),
    ],
    ids=["NonFiniteState", "ZeroVector", "LocationFailure"],
)
def test_nonfinite_exit_code(exc, word, capsys, monkeypatch):
    # every numerical breakdown during evolution exits 3 with one line
    def explode(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "evolve_run", explode)
    assert cli.main(["run", "--k", "2", "--n-steps", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err and err.count("\n") == 1


def test_map_leaving_sphere_exits_3(capsys):
    # a real breakdown, not a patched one: steps far too long for the mesh
    argv = ["run", "--test", "deformational", "--k", "1", "--n-steps", "2", "--T", "1000"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sphere" in err and err.count("\n") == 1
