import json

import pytest

from microlocal.cli import ConfigError, main, parse_config, run_subcommand


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("n = 2\n# comment\nJ=4\n")
    assert parse_config(str(p)) == {"n": "2", "J": "4"}


def test_parse_config_rejects_garbage(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config(str(p))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        run_subcommand("mn-asym", {"frobnicate": "1"}, tmp_path)
    assert "frobnicate" in str(exc.value)


def test_unknown_subcommand(tmp_path):
    with pytest.raises(ConfigError):
        run_subcommand("no-such-thing", {}, tmp_path)


def test_mn_asym_artifacts(tmp_path):
    ok = run_subcommand("mn-asym", {"n": "2", "J": "5"}, tmp_path, seed=7)
    assert ok
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["subcommand"] == "mn-asym"
    assert man["parameters"]["n"] == 2
    assert man["pass"] is True
    assert "mn_asym.csv" in man["outputs"]
    header = (tmp_path / "mn_asym.csv").read_text().splitlines()[0]
    assert header.startswith("r,exact,partial_J0")


def test_statphase_cert_subcommand(tmp_path):
    ok = run_subcommand("statphase-cert", {"lam": "10", "N": "6"}, tmp_path)
    assert ok
    rep = json.loads((tmp_path / "statphase_cert.json").read_text())
    assert rep["pass"] is True


def test_statphase_negative_scale(tmp_path):
    # slack of the lam=5, N=2 case is ~1.7e4; a 1e-5 scale must flip it
    ok = run_subcommand("statphase-cert",
                        {"lam": "5", "N": "2", "bound_scale": "1e-5"}, tmp_path)
    assert not ok
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["pass"] is False


def test_fbi_wavefront_artifacts(tmp_path):
    ok = run_subcommand("fbi-wavefront", {"u": "heaviside", "t_count": "25"}, tmp_path)
    assert ok
    csv = (tmp_path / "fbi_wavefront.csv").read_text().splitlines()
    assert csv[0] == "x,omega,t,absF"
    summary = json.loads((tmp_path / "fbi_classify.json").read_text())
    assert len(summary["probes"]) == 5


def test_normalform_demo_subcommand(tmp_path):
    ok = run_subcommand("normalform-demo", {"K": "1", "N": "3"}, tmp_path, seed=5)
    assert ok
    rep = json.loads((tmp_path / "normalform_demo.json").read_text())
    assert rep["order0_pde_residual"] <= 1e-9


def test_stability_sweep_subcommand(tmp_path):
    ok = run_subcommand("stability-sweep", {"n_seeds": "3", "K": "2", "N": "4"},
                        tmp_path, seed=1)
    assert ok
    rows = (tmp_path / "stability.csv").read_text().splitlines()
    assert rows[0] == "seed,k,ratio"
    assert len(rows) > 3


def test_determinism_same_seed(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        run_subcommand("mn-asym", {"n": "2"}, d, seed=42)
    for pa in sorted(a.iterdir()):
        pb = b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_main_usage_paths(tmp_path, capsys):
    rc = main([])
    assert rc == 2
    rc = main(["run", "mn-asym", "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mn-asym: pass" in out


def test_main_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("bogus_key=1\n")
    rc = main(["run", "mn-asym", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


def test_main_arithmetic_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("u = (exp (* 1000 (v 0)))\n")
    rc = main(["run", "statphase-cert", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("statphase-cert: error: ")
    assert len(err.strip().splitlines()) == 1


def test_fbi_samples_file(tmp_path):
    import numpy as np

    y = np.linspace(-1.0, 1.0, 401)
    vals = np.maximum(0.0, 1.0 - np.abs(y))
    lines = ["y,value"] + [f"{a},{b}" for a, b in zip(y, vals)]
    data = tmp_path / "samples.csv"
    data.write_text("\n".join(lines) + "\n")
    ok = run_subcommand("fbi-wavefront", {"u": str(data), "t_count": "25"},
                        tmp_path / "out")
    assert ok
    assert (tmp_path / "out" / "fbi_classify.json").exists()


def test_fbi_bad_u_spec(tmp_path):
    with pytest.raises(ConfigError):
        run_subcommand("fbi-wavefront", {"u": "no-such-thing"}, tmp_path)


def test_normalform_explicit_g(tmp_path):
    ok = run_subcommand(
        "normalform-demo",
        {"g": "1,1:(v 1); 2,2:(* (v 0) (v 2))", "K": "2", "N": "3"},
        tmp_path,
    )
    assert ok
    rep = json.loads((tmp_path / "normalform_demo.json").read_text())
    assert rep["transport_residual"] <= 1e-12


def test_borel_demo_cutoff_grid(tmp_path):
    ok = run_subcommand("borel-demo", {"theta_count": "10"}, tmp_path)
    assert ok
    head = (tmp_path / "cutoff_grid.csv").read_text().splitlines()[0]
    assert head == "s,chi,d1,d2,d3,d4"
