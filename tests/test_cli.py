import json
import math
import os

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
    assert cli.dispatch(["spectrum", "--disk", "--holes", "1,2",
                         "--out", "x.json"]) == 64
    assert cli.dispatch(["surface", "verify", "--which", "flat-disk",
                         "--grid", "64", "--out", "x.json"]) == 64
    assert cli.dispatch(["spectrum", "--disk", "--eigs", "0", "--out", "x.json"]) == 64
    assert cli.dispatch(["export-obj", "--which", "flat-disk", "--nt", "1",
                         "--out", "x.obj"]) == 64
    assert cli.dispatch(["export-obj", "--which", "flat-disk", "--ntheta", "2",
                         "--out", "x.obj"]) == 64
    assert not (workdir / "x.json").exists() and not (workdir / "x.obj").exists()


def test_invalid_domain_exits_2(workdir):
    rc = cli.dispatch(["spectrum", "--holes", "0.9,0,0.3", "--out", "x.json"])
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


def test_resonant_dbar_demo_exits_3(workdir):
    rc = cli.dispatch(["dbar", "demo", "--T", "1e-16", "--nt", "16", "--ntheta", "8",
                       "--out", "d.json"])
    assert rc == 3
    assert not (workdir / "d.json").exists()
    assert read_log(workdir) == []


def test_version_flag(workdir):
    with pytest.raises(SystemExit):
        cli.dispatch(["--version"])
