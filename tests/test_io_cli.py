import json
import math
from pathlib import Path

import pytest

from cubiclab.blaschke.decay import DecayCertificate
from cubiclab.cli import PRESETS, RunReport, main
from cubiclab.flatsurface import presets, tighten_geodesic
from cubiclab.flatsurface import io as fsio
from cubiclab.flatsurface.surface import area
from reference import compare_with_reference


def test_surface_json_roundtrip(tmp_path):
    s = presets.regular_octagon()
    path = tmp_path / "octagon.json"
    fsio.save_surface(s, path)
    s2 = fsio.load_surface(path)
    assert abs(area(s2) - area(s)) < 1e-12
    assert s2.orbit_orders == s.orbit_orders
    assert s2.gluings == s.gluings


def test_class_json_roundtrip(tmp_path):
    path = tmp_path / "classes.json"
    fsio.save_classes(presets.torus_marking(), path)
    loaded = fsio.load_classes(path)
    assert [c.crossings for c in loaded] == \
        [c.crossings for c in presets.torus_marking()]
    assert loaded[0].label == "(1,0)"


def test_geodesic_svg(tmp_path):
    s = presets.square_torus()
    g = tighten_geodesic(s, presets.torus_class(1, 2), tol=1e-12)
    out = tmp_path / "geo.svg"
    fsio.render_geodesic_svg(g, out)
    text = out.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_run_report_roundtrip():
    rep = RunReport("spectrum", "abc123")
    rep.add("c1", "first", True, 0.5, 1.0)
    rep.add("c2", "second", False, 2.0, 1.0)
    rep.wall_time = 0.25
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["command"] == "spectrum"
    assert not d["all_passed"]
    assert [c["check_id"] for c in d["checks"]] == ["c1", "c2"]


def test_cli_spectrum_preset(tmp_path):
    out = tmp_path / "run"
    rc = main(["spectrum", "--preset", "spectrum-square-torus",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"]
    ids = {c["check_id"] for c in report["checks"]}
    assert {"gauss-bonnet", "cone-arithmetic", "torus-lattice-lengths"} <= ids
    csv_text = (out / "spectrum.csv").read_text()
    assert "(1,1)" in csv_text


def test_cli_spectrum_names_unnamed_classes(tmp_path):
    # the i-th unnamed class is class{i} in the CSV and the SVG file name,
    # as in spectrum_from_flat; a shared name overwrote one SVG
    marking = tmp_path / "marking.json"
    marking.write_text(json.dumps(
        [{"strip": [list(c) for c in cls.crossings]}
         for cls in presets.torus_marking()]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "spectrum",
                               "surface": "square-torus",
                               "marking": str(marking)}))
    out = tmp_path / "run"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    names = ["class0", "class1", "class2"]
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == names
    assert sorted(p.name for p in out.glob("*.svg")) == \
        [f"geodesic_{n}.svg" for n in names]


def test_cli_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["surgery", "--preset", "surgery-cylinder-ray",
                     "--out", str(out)]) == 0
    assert (out1 / "ray_spectra.csv").read_bytes() == \
        (out2 / "ray_spectra.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["config_hash"] == r2["config_hash"]
    assert [c["measured"] for c in r1["checks"]] == \
        [c["measured"] for c in r2["checks"]]


def test_cli_config_file(tmp_path):
    cfg = dict(PRESETS["surgery-glue-tori"])
    cfg["eps"] = 0.15
    path = tmp_path / "glue.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    rc = main(["surgery", "--config", str(path), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"]


def test_cli_missing_config_file(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["spectrum", "--config", str(tmp_path / "nope.json"),
              "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_cli_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"command": "spectrum"}]))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "cfg.json is not a JSON object" in capsys.readouterr().err


def test_cli_preset_and_config_exclude_each_other(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(PRESETS["spectrum-octagon"]))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--preset", "spectrum-square-torus",
              "--config", str(path), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_ray_passes_on_only_the_window_keys_it_sets(tmp_path,
                                                         monkeypatch):
    # a setting the config leaves out takes decay_experiment's default
    seen = []
    monkeypatch.setattr("cubiclab.blaschke.decay_experiment",
                        lambda *args, **window: seen.append(window) or [])
    cfg = {k: v for k, v in PRESETS["ray-z-window"].items()
           if k not in ("n", "bound")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    main(["ray", "--config", str(path), "--out", str(tmp_path / "o")])
    assert seen == [{"window_side": 1.6}]


@pytest.mark.parametrize("gaps,passed,measured", [
    # slopes of log gap over t^(1/3): log 2 and -log 20 / 2, a rise first
    ((1.0, 2.0, 0.1), False, math.log(2.0)),
    # slopes -log 2 and -log 8 / 2: the step between them is the largest
    ((1.0, 0.5, 0.0625), True, -math.log(2.0) / 2.0),
])
def test_cli_superlinear_decay_verdict_follows_its_measure(
        tmp_path, monkeypatch, gaps, passed, measured):
    # the check passes exactly when its measured value is below its
    # tolerance 0: the largest slope and the largest step between slopes
    certs = [DecayCertificate(t, 1.0, 1.0, g, 0.0, True)
             for t, g in zip((1.0, 8.0, 64.0), gaps)]
    monkeypatch.setattr("cubiclab.blaschke.decay_experiment",
                        lambda *args, **window: certs)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(PRESETS["ray-z-window"]))
    main(["ray", "--config", str(path), "--out", str(tmp_path / "o")])
    checks = json.loads((tmp_path / "o" / "report.json").read_text())
    (check,) = [c for c in checks["checks"]
                if c["check_id"] == "superlinear-decay"]
    assert check["passed"] is passed
    assert check["passed"] is (check["measured"] < check["tolerance"])
    assert abs(check["measured"] - measured) < 1e-15


def test_cli_config_missing_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "spectrum",
                                "marking": "torus-basic"}))
    rc = main(["spectrum", "--config", str(path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: ConfigError: config has no 'surface'" in \
        capsys.readouterr().out


@pytest.mark.parametrize("preset,key,value,reason", [
    ("surgery-glue-tori", "eps", "abc", "could not convert string"),
    ("ray-z-window", "n", "big", "invalid literal for int()"),
    ("ray-z-window", "probe", [0.0], "not enough values to unpack"),
    ("ray-z-window", "n", 33.9, "not a whole number"),
    ("limits-appendix", "seed", -1, "expected non-negative integer"),
    ("limits-appendix", "sweeps", "pinching-annuli",
     "expected a list of names, got a string"),
    ("surgery-cylinder-ray", "heights", "12",
     "expected a list of numbers, got a string"),
], ids=["eps", "n", "probe", "n-fraction", "seed", "sweeps", "heights"])
def test_cli_config_value_of_wrong_type(tmp_path, capsys, preset, key,
                                        value, reason):
    cfg = dict(PRESETS[preset], **{key: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([cfg["command"], "--config", str(path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    out = capsys.readouterr().out
    assert (f"error: ConfigError: config {key!r} has the value {value!r} "
            "of the wrong type or shape: ") in out
    assert reason in out


@pytest.mark.parametrize("config,files,value", [
    ({"command": "surgery", "mode": "glue", "eps": 0.2, "weight": -1}, {},
     "weights must be nonnegative, got [-1.0]"),
    ({"command": "surgery", "mode": "glue", "eps": -0.1}, {},
     "eps must be positive, got -0.1"),
    ({"command": "surgery", "mode": "glue", "eps": "nan"}, {},
     "eps must be positive, got nan"),
    (dict(PRESETS["ray-z-window"], t_list=[2.0, 1.0]), {},
     "t_list must be strictly increasing and nonempty, got [2.0, 1.0]"),
    (dict(PRESETS["ray-z-window"], t_list=[-1.0, 1.0]), {},
     "t_list must be positive on the ray t * q, got [-1.0]"),
    (dict(PRESETS["ray-z-window"], t_list=[0.0, 1.0]), {},
     "t_list must be positive on the ray t * q, got [0.0]"),
    ({"command": "spectrum", "surface": "s.json", "marking": "torus-basic"},
     {"s.json": json.dumps({"triangles": [[[0, 0], [1, 0]]]})},
     "cannot load s.json: BadParameters: triangle 0 has 2 corners"),
    ({"command": "spectrum", "surface": "s.json", "marking": "torus-basic"},
     {"s.json": "not json"}, "cannot load s.json: JSONDecodeError: "),
    ({"command": "spectrum", "surface": "square-torus", "marking": "m.json"},
     {"m.json": json.dumps([{"strip": [[9, 0], [1, 0]]}])},
     "crossing 0 references invalid slot (9, 0)"),
    ({"command": "spectrum", "surface": "square-torus", "marking": "m.json"},
     {"m.json": json.dumps({"name": "a", "strip": [[0, 0], [1, 1]]})},
     "cannot load m.json: TypeError: "),
], ids=["weight", "eps", "eps-nan", "t_list", "t_list-negative",
        "t_list-zero", "two-corners", "not-json", "slot", "bare-class"])
def test_cli_bad_argument_exits_2(tmp_path, monkeypatch, capsys, config,
                                  files, value):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    Path("cfg.json").write_text(json.dumps(config))
    assert main([config["command"], "--config", "cfg.json", "--out", "o"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: BadParameters: ") and out.count("\n") == 1
    assert value in out


def test_cli_missing_surface_file(tmp_path, capsys):
    cfg = {"command": "spectrum", "surface": str(tmp_path / "missing.json"),
           "marking": "torus-basic", "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["spectrum", "--config", str(path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "missing.json" in out


def test_cli_limits_and_glue(tmp_path):
    assert main(["limits", "--preset", "limits-appendix",
                 "--out", str(tmp_path / "lim")]) == 0
    assert main(["surgery", "--preset", "surgery-glue-tori",
                 "--out", str(tmp_path / "glue")]) == 0
    rows = (tmp_path / "lim" / "limits.csv").read_text().splitlines()
    assert rows[0].startswith("sweep")
    assert len(rows) == 5


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cli_preset_passes(tmp_path, name):
    out = tmp_path / name
    assert main([PRESETS[name]["command"], "--preset", name,
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]
    assert all(c["passed"] for c in report["checks"])
    # the output directory matches its frozen reference (tests/reference.py)
    diffs = compare_with_reference(name, out)
    assert not diffs, "\n".join(diffs)
