import json
import math
import os
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import steklov_lab.cli as cli
from steklov_lab.dtn import MassMatrixDegenerate
from steklov_lab.maximizer import sweep_k


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_log(workdir):
    log = workdir / cli.RUN_LOG
    if not log.exists():
        return []
    return [json.loads(ln) for ln in log.read_text().splitlines()]


def test_spectrum_disk(workdir):
    rc = cli.dispatch(["spectrum", "--disk", "--out", "spec.json"])
    assert rc == 0
    doc = read_json("spec.json")
    assert len(doc["manifest_hash"]) == 16
    vals = doc["eigenvalues"]
    assert np.max(np.abs(np.array(vals) - np.array([0, 1, 1, 2, 2, 3, 3, 4.0]))) < 1e-8
    assert abs(doc["sigma1_L"] - 2 * math.pi) < 1e-8
    assert doc["clusters"][0] == [0]
    log = read_log(workdir)
    assert len(log) == 1
    assert log[0]["command"] == "spectrum"
    assert log[0]["manifest_hash"] == doc["manifest_hash"]
    assert log[0]["timing"] >= 0.0


def test_spectrum_with_holes(workdir):
    rc = cli.dispatch(["spectrum", "--holes", "0.3,0,0.2", "--out", "a.json"])
    assert rc == 0
    doc = read_json("a.json")
    assert doc["boundary_length"] > 2 * math.pi


def test_reruns_are_byte_identical(workdir):
    args = ["spectrum", "--disk", "--modes", "12", "--out", "o.json"]
    assert cli.dispatch(args) == 0
    first = (workdir / "o.json").read_bytes()
    assert cli.dispatch(args) == 0
    assert (workdir / "o.json").read_bytes() == first
    # both runs are logged, with the same reproducible manifest
    log = read_log(workdir)
    assert len(log) == 2
    assert log[0]["manifest_hash"] == log[1]["manifest_hash"]


def test_closedform_annulus(workdir):
    rc = cli.dispatch([
        "closedform", "--topology", "annulus", "--T", "1.3", "--fT", "0.8",
        "--out", "cf.json",
    ])
    assert rc == 0
    doc = read_json("cf.json")
    assert abs(doc["sigma1_L"] - 4 * math.pi / 1.3) < 1e-10
    assert doc["fT"] == 0.8
    assert any(e["branch"] == "linear" for e in doc["entries"])


def test_closedform_default_weight(workdir):
    rc = cli.dispatch(["closedform", "--T", "0.9", "--out", "cf.json"])
    assert rc == 0
    assert read_json("cf.json")["fT"] == 1.0


def test_closedform_moebius(workdir):
    rc = cli.dispatch(["closedform", "--topology", "moebius", "--out", "m.json"])
    assert rc == 0
    doc = read_json("m.json")
    assert abs(doc["critical_sigma1_L"] - 2 * math.pi * math.sqrt(3)) < 1e-10
    assert "entries" not in doc


def test_maximize_disk(workdir):
    rc = cli.dispatch([
        "maximize", "--disk", "--modes", "10", "--certificate", "--out", "mx.json",
    ])
    assert rc == 0
    doc = read_json("mx.json")
    assert abs(doc["value"] - 2 * math.pi) < 1e-8
    assert doc["eps_final"] == 1e-4
    assert not doc["stalled"]
    assert doc["certificate"]["n"] == 2
    assert doc["certificate"]["residual_boundary"] < 1e-10


def test_sweep_csv(workdir):
    rc = cli.dispatch(["sweep", "--k", "1", "--out", "sw.csv"])
    assert rc == 0
    lines = (workdir / "sw.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    assert lines[1] == "k,value,flags"
    k, value, flags = lines[2].split(",")
    assert k == "1"
    assert abs(float(value) - 2 * math.pi) < 1e-6
    assert flags == "ok"


def test_sweep_rows_follow_input_order(workdir):
    # the CSV lists the k values in the order given, each value as the library
    # computes it (repr of the float)
    rc = cli.dispatch(["sweep", "--k", "2,1", "--budget", "30", "--out", "sw.csv"])
    assert rc == 0
    lines = (workdir / "sw.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    expect = sweep_k([2, 1], "cyclic", 30)
    assert [r[0] for r in rows] == ["2", "1"]
    assert [r[1] for r in rows] == [repr(float(e.value)) for e in expect]


def test_quoted_sweep_hashes(workdir, monkeypatch):
    # README and the module docstring quote the manifest hashes of
    # `sweep --k 2,3 --budget 20 --out sweep.csv` under one and two BLAS
    # threads; the manifest is the one dispatch logs, with the thread count set
    monkeypatch.setattr(cli, "sweep_k", lambda *a: [])
    assert cli.dispatch(["sweep", "--k", "2,3", "--budget", "20", "--out", "sweep.csv"]) == 0
    rec = read_log(workdir)[0]
    fields = {k: rec[k] for k in ("command", "inputs", "version", "tolerances")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    texts = {"README": " ".join(readme.split()), "cli": " ".join(cli.__doc__.split())}
    for n, words in ((1, "with one thread"), (2, "with OPENBLAS_NUM_THREADS=2")):
        h = cli.RunManifest(**fields, blas_threads={"numpy": n, "scipy": n}).hash
        for name, text in texts.items():
            assert f"{h} {words}" in text.replace("`", ""), (name, n, h)


def test_quoted_spectrum_value(workdir):
    # README and the module docstring quote the sigma1_L this invocation
    # writes under the default single BLAS thread
    quoted = 6.498655486332764
    argv = ["spectrum", "--holes", "0.3,0,0.2;-0.4,0.1,0.15", "--out", "two.json"]
    assert cli.dispatch(argv) == 0
    assert abs(read_json("two.json")["sigma1_L"] - quoted) <= 8 * np.spacing(quoted)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in (readme, cli.__doc__):
        assert f"{quoted!r} with one thread" in " ".join(text.split()).replace("`", "")


# one invocation per command and output kind, with the manifest hash it logs
# under one BLAS thread
PINNED_HASHES = [
    (["spectrum", "--disk", "--modes", "12", "--out", "disk.json"], "f1150402901604b7"),
    (["spectrum", "--holes", "0.3,0,0.2;-0.4,0.1,0.15", "--out", "two.json"],
     "dc9787797890ecd1"),
    (["closedform", "--topology", "annulus", "--T", "1.3", "--fT", "0.8",
      "--out", "ann.json"], "478c2bff65283752"),
    (["closedform", "--topology", "moebius", "--out", "mb.json"], "510e4d67d305d1f4"),
    (["maximize", "--disk", "--certificate", "--iters", "5", "--out", "max.json"],
     "764f2c1f4ecec37e"),
    (["sweep", "--k", "2,3", "--budget", "20", "--out", "sweep.csv"], "2af83fe76915424b"),
    (["surface", "verify", "--which", "critical-catenoid", "--out", "cat.json"],
     "643ee5a927e78bfc"),
    (["surface", "verify", "--which", "flat-disk", "--grid", "32,64", "--out", "fd.json"],
     "cce72fddb1aee2e2"),
    (["dbar", "demo", "--out", "demo.json"], "edd50b537db97c47"),
    (["dbar", "demo", "--unsolvable", "--out", "blocked.json"], "5736b520981ce2ed"),
    (["export-obj", "--which", "critical-moebius", "--out", "mb.obj"], "aaf3320c1b61c745"),
]


def test_pinned_manifest_hashes(workdir, monkeypatch):
    # the hash depends on the parsed flags only, so the handlers are stubbed
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: ("json", {}))
    for argv, expect in PINNED_HASHES:
        assert cli.dispatch(argv) == 0, argv
        rec = read_log(workdir)[-1]
        assert read_json(argv[-1])["manifest_hash"] == rec["manifest_hash"]
        fields = {k: rec[k] for k in ("command", "inputs", "version", "tolerances")}
        h = cli.RunManifest(**fields, blas_threads={"numpy": 1, "scipy": 1}).hash
        assert h == expect, (argv, h)


def test_one_parser_serves_every_dispatch(workdir, monkeypatch):
    # a rejected flag and the --fT of one dispatch must not reach the next
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert cli.dispatch(["closedform", "--fT", "0.8", "--out", "bad.json"]) == 64
    pinned = dict((tuple(argv), h) for argv, h in PINNED_HASHES)
    for argv in (["closedform", "--topology", "annulus", "--T", "1.3", "--fT", "0.8",
                  "--out", "ann.json"],
                 ["closedform", "--topology", "moebius", "--out", "mb.json"]):
        assert cli.dispatch(argv) == 0, argv
        rec = read_log(workdir)[-1]
        assert read_json(argv[-1])["manifest_hash"] == rec["manifest_hash"]
        fields = {k: rec[k] for k in ("command", "inputs", "version", "tolerances")}
        h = cli.RunManifest(**fields, blas_threads={"numpy": 1, "scipy": 1}).hash
        assert h == pinned[tuple(argv)], (argv, h)
    assert len(read_log(workdir)) == 2 and not (workdir / "bad.json").exists()


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [ln for ln in block.splitlines() if ln.startswith("steklov-lab ")]
    assert len(examples) >= 11
    handlers = {getattr(cli, n) for n in dir(cli) if n.startswith("_cmd_")}
    for line in examples:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert args.func in handlers, line


def test_surface_verify(workdir):
    rc = cli.dispatch([
        "surface", "verify", "--which", "flat-disk", "--grid", "32,64",
        "--out", "sv.json",
    ])
    assert rc == 0
    doc = read_json("sv.json")
    assert abs(doc["sigma1_L"] - 2 * math.pi) < 1e-8
    assert doc["sigma1_L"] == doc["boundary_length"]
    assert max(doc["residuals"].values()) < 1e-10
    assert abs(doc["two_area_minus_length"]) < 1e-10


def test_unresolved_surface_grid_exits_3(workdir):
    # one Gauss node in t gives the critical catenoid area 3.197 (5.237 on the
    # default grid) with every pointwise residual at rounding; only 2A = L,
    # exact on a free boundary minimal surface, shows that it is unresolved
    for which, grid in (("critical-catenoid", "1,64"), ("critical-catenoid", "4,64"),
                        ("critical-moebius", "4,64"), ("flat-disk", "8,64")):
        rc = cli.dispatch(["surface", "verify", "--which", which, "--grid", grid,
                           "--out", "sv.json"])
        assert rc == 3, (which, grid)
        assert not (workdir / "sv.json").exists()
    assert read_log(workdir) == []
    assert cli.dispatch(["surface", "verify", "--which", "critical-catenoid",
                         "--grid", "8,64", "--out", "sv.json"]) == 0
    doc = read_json("sv.json")
    assert doc["two_area_minus_length"] < 1e-8 * doc["boundary_length"]


def test_dbar_demo_solvable(workdir):
    rc = cli.dispatch(["dbar", "demo", "--nt", "32", "--ntheta", "16",
                       "--out", "db.json"])
    assert rc == 0
    doc = read_json("db.json")
    assert doc["solvable"] is True
    assert doc["residual"] < 1e-8


def test_dbar_demo_unsolvable_is_a_result(workdir):
    rc = cli.dispatch(["dbar", "demo", "--unsolvable", "--nt", "32",
                       "--ntheta", "16", "--out", "db.json"])
    assert rc == 0
    doc = read_json("db.json")
    assert doc["solvable"] is False
    assert "reason" in doc


def test_export_obj(workdir):
    args = ["export-obj", "--which", "critical-catenoid", "--nt", "6",
            "--ntheta", "8", "--out", "cat.obj"]
    assert cli.dispatch(args) == 0
    lines = (workdir / "cat.obj").read_text().splitlines()
    assert lines[1].startswith("# manifest_hash=")
    assert sum(1 for ln in lines if ln.startswith("v ")) == 48
    first = (workdir / "cat.obj").read_bytes()
    assert cli.dispatch(args) == 0
    assert (workdir / "cat.obj").read_bytes() == first


def test_unknown_command(workdir):
    assert cli.dispatch(["transmogrify"]) == 64
    assert cli.dispatch([]) == 64
    assert cli.dispatch(["surface"]) == 64


def test_bad_flags(workdir):
    assert cli.dispatch(["spectrum", "--disk"]) == 64  # missing --out
    assert cli.dispatch(["sweep", "--k", "a,b", "--out", "x.csv"]) == 64
    assert cli.dispatch(["spectrum", "--holes", "1,2", "--out", "x.json"]) == 64
    for cmd in ("spectrum", "maximize"):  # --disk and --holes exclude each other
        assert cli.dispatch([cmd, "--disk", "--holes", "0.3,0,0.2",
                             "--out", "x.json"]) == 64
    assert cli.dispatch(["surface", "verify", "--which", "flat-disk",
                         "--grid", "64", "--out", "x.json"]) == 64
    assert cli.dispatch(["spectrum", "--disk", "--eigs", "0", "--out", "x.json"]) == 64
    assert cli.dispatch(["export-obj", "--which", "flat-disk", "--nt", "1",
                         "--out", "x.obj"]) == 64
    assert cli.dispatch(["export-obj", "--which", "flat-disk", "--ntheta", "2",
                         "--out", "x.obj"]) == 64
    # the default --mode 2 aliases to the constant at --ntheta 2 and sits at
    # the Nyquist frequency at --ntheta 4
    for ntheta in ("2", "4"):
        assert cli.dispatch(["dbar", "demo", "--nt", "8", "--ntheta", ntheta,
                             "--out", "x.json"]) == 64
    assert cli.dispatch(["dbar", "demo", "--nt", "1", "--out", "x.json"]) == 64
    for flag in ("--nt", "--ntheta"):  # the collocation grids are powers of two
        assert cli.dispatch(["dbar", "demo", flag, "12", "--out", "x.json"]) == 64
    assert cli.dispatch(["closedform", "--fT", "0.8", "--out", "x.json"]) == 64
    # rejected while parsing, before the k = 2 search runs
    assert cli.dispatch(["sweep", "--k", "2,0", "--out", "x.csv"]) == 64
    assert cli.dispatch(["sweep", "--k", "2", "--budget", "0", "--out", "x.csv"]) == 64
    assert cli.dispatch(["maximize", "--disk", "--budget", "0", "--out", "x.json"]) == 64
    # a negative count would run as --iters 0
    assert cli.dispatch(["maximize", "--disk", "--iters", "-3", "--out", "x.json"]) == 64
    for tol in ("-1", "nan"):  # either would split the disk's double eigenvalues
        assert cli.dispatch(["spectrum", "--disk", "--cluster-tol", tol,
                             "--out", "x.json"]) == 64
    # the truncation only applies to the spectrum that --T asks for
    for n_max in ("3", "8"):
        assert cli.dispatch(["closedform", "--n-max", n_max, "--out", "x.json"]) == 64
    assert cli.dispatch(["closedform", "--T", "1", "--n-max", "0", "--out", "x.json"]) == 64
    for cmd in ("spectrum", "maximize"):  # a basis is built for degrees 1 .. 64
        for modes in ("0", "-2", "65"):
            assert cli.dispatch([cmd, "--disk", "--modes", modes, "--out", "x.json"]) == 64
    # an empty grid divides by zero (ntheta) or has no Gauss nodes (nt)
    for grid in ("4,0", "0,4"):
        assert cli.dispatch(["surface", "verify", "--which", "flat-disk",
                             "--grid", grid, "--out", "x.json"]) == 64
    for name in ("x.json", "x.obj", "x.csv"):
        assert not (workdir / name).exists()
    assert read_log(workdir) == []


def test_invalid_domain_exits_2(workdir):
    rc = cli.dispatch(["spectrum", "--holes", "0.9,0,0.3", "--out", "x.json"])
    assert rc == 2
    assert not (workdir / "x.json").exists()
    assert read_log(workdir) == []


@pytest.mark.parametrize("holes", ["nan,0,0.1", "0.3,nan,0.1"])
def test_nan_hole_centre_exits_2(workdir, holes):
    # refused by the domain check, before a basis divides by the nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.dispatch(["spectrum", "--holes", holes, "--out", "x.json"])
    assert rc == 2
    assert not (workdir / "x.json").exists()
    assert read_log(workdir) == []


def test_numerical_failure_exits_3(workdir, monkeypatch):
    # a degenerate weight, and a Dirichlet block whose Cholesky fails
    for exc in (MassMatrixDegenerate, np.linalg.LinAlgError):
        def boom(*a, exc=exc, **kw):
            raise exc("synthetic failure")

        monkeypatch.setattr(cli, "steklov_spectrum", boom)
        rc = cli.dispatch(["spectrum", "--disk", "--out", "x.json"])
        assert rc == 3
        assert read_log(workdir) == []


@pytest.mark.parametrize("argv", [
    ["closedform", "--T", "inf"],
    ["closedform", "--T", "1", "--fT", "inf"],
    ["closedform", "--topology", "moebius", "--T", "inf"],
    ["dbar", "demo", "--T", "inf"],
], ids=["annulus-T", "annulus-fT", "moebius-T", "dbar-T"])
def test_infinite_T_exits_2(workdir, capsys, argv):
    # closedform wrote "T": Infinity, which is not JSON, or sigma1_L 0 or nan;
    # the demo failed on its collocation grid after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.dispatch(argv + ["--out", "x.json"]) == 2
    assert "T" in (err := capsys.readouterr().err) and "must be finite and positive" in err
    assert not (workdir / "x.json").exists()
    assert read_log(workdir) == []


def test_nonpositive_dbar_T_exits_2_before_sampling(workdir):
    # the demo's right-hand side divides by T: T = 0 must be refused before
    # it is sampled, with no warning
    for T in ("0", "-1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.dispatch(["dbar", "demo", "--T", T, "--out", "d.json"]) == 2
    assert not (workdir / "d.json").exists()
    assert read_log(workdir) == []


def test_resonant_dbar_demo_exits_3(workdir):
    rc = cli.dispatch(["dbar", "demo", "--T", "1e-16", "--nt", "16", "--ntheta", "8",
                       "--out", "d.json"])
    assert rc == 3
    assert not (workdir / "d.json").exists()
    assert read_log(workdir) == []


def test_version_flag(workdir):
    with pytest.raises(SystemExit):
        cli.dispatch(["--version"])
