"""Batch front-end: reproducible experiments with persisted artifacts.

One binary with four subcommands (spectrum, ray, limits, surgery), each
reading a flat JSON config (or a named preset), writing CSV/JSON/SVG
artifacts into the output directory, and returning exit code 0 exactly
when every report check passes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import blaschke, currents, geomlimits
from .errors import ConfigError, CubiclabError
from .flatsurface import presets, tighten_geodesic
from .flatsurface import io as fsio
from .flatsurface.cylinders import detect_cylinder, insert_cylinder_detailed
from .flatsurface.geodesics import ANGLE_SLACK
from .flatsurface.intersections import geometric_intersection_count
from .flatsurface.surface import area, gauss_bonnet_defect
from .flatsurface.surgery import triangle_surgery_glue


@dataclass
class Check:
    check_id: str
    description: str
    passed: bool
    measured: float
    tolerance: float


@dataclass
class RunReport:
    command: str
    config_hash: str
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, check_id, description, passed, measured, tolerance):
        self.checks.append(Check(check_id, description, bool(passed),
                                 float(measured), float(tolerance)))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "wall_time": self.wall_time,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# -- presets ------------------------------------------------------------------

PRESETS = {
    "spectrum-square-torus": {"command": "spectrum", "surface": "square-torus",
                              "marking": "torus-basic"},
    "spectrum-octagon": {"command": "spectrum", "surface": "regular-octagon",
                         "marking": "octagon-basic"},
    "ray-torus-constant": {
        "command": "ray", "q": [[1.0, 0.0]], "t_list": [1.0, 8.0, 64.0],
        "probe": [0.0, 0.0], "window_side": 4.0, "n": 97, "bound": 1.0},
    "ray-z-window": {
        "command": "ray", "q": [[0.0, 0.0], [1.0, 0.0]],
        "t_list": [1.0, 8.0, 64.0], "probe": [1.0, 0.0],
        "window_side": 1.6, "n": 97, "bound": 1.0},
    "limits-appendix": {
        "command": "limits", "sweeps": ["pinching-annuli", "core-tracking",
                                        "plane-limit", "oscillating"],
        "seed": 0},
    "surgery-cylinder-ray": {"command": "surgery", "mode": "cylinder-ray",
                             "heights": [1.0, 2.0, 4.0, 8.0, 16.0]},
    "surgery-glue-tori": {"command": "surgery", "mode": "glue", "eps": 0.2,
                          "weight": 0.0},
}


class _Config(dict):
    """A config whose missing keys raise ConfigError naming the key."""

    def __missing__(self, key):
        raise ConfigError(f"config has no {key!r}")

    def read(self, key, convert, *default):
        """convert(config[key]), or convert(default) for a missing key when
        a default is given; a value convert rejects raises ConfigError
        naming the key and the value."""
        value = self.get(key, *default) if default else self[key]
        try:
            return convert(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config {key!r} has the value {value!r} of "
                              f"the wrong type or shape: {err}") from None


def _point(pair) -> complex:
    """A config point [x, y]."""
    x, y = pair
    return complex(float(x), float(y))


def _list_of(convert, what: str):
    """A converter of config lists; a bare string is not read as its
    characters."""
    def read(values) -> list:
        if isinstance(values, str):
            raise TypeError(f"expected a list of {what}, got a string")
        return [convert(v) for v in values]
    return read


_floats = _list_of(float, "numbers")
_names = _list_of(str, "names")


def _whole(value) -> int:
    """An int, or a float with a whole value, as an int."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _load_config(args) -> _Config:
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; "
                f"available: {', '.join(sorted(PRESETS))}")
        return _Config(PRESETS[args.preset])
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed config {path}: {err}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return _Config(config)


SURFACES = {"square-torus": presets.square_torus,
            "regular-octagon": presets.regular_octagon}
MARKINGS = {"torus-basic": presets.torus_marking,
            "octagon-basic": presets.octagon_marking}


def _named_or_file(spec: str, named: dict, load):
    """The built-in object named spec, else load(spec) from the file."""
    return named[spec]() if spec in named else load(spec)


# -- subcommands --------------------------------------------------------------

def cmd_spectrum(config: dict, out: Path, report: RunReport) -> None:
    surface = config.read("surface", str)
    marking_name = config.read("marking", str)
    s = _named_or_file(surface, SURFACES, fsio.load_surface)
    marking = _named_or_file(marking_name, MARKINGS, fsio.load_classes)
    reps = [tighten_geodesic(s, path) for path in marking]

    names = currents.class_names(marking)
    _write_csv(out / "spectrum.csv", fsio.spectrum_csv_rows(names, reps))
    for name, g in zip(names, reps):
        fname = name.replace("*", "x").replace("/", "-")
        fsio.render_geodesic_svg(g, out / f"geodesic_{fname}.svg")

    gb = abs(gauss_bonnet_defect(s))
    report.add("gauss-bonnet", "Gauss-Bonnet defect below 1e-9",
               gb < 1e-9, gb, 1e-9)
    ksum = s.total_cone_order() + 3 * s.euler_characteristic
    report.add("cone-arithmetic", "sum k equals -3 chi exactly",
               ksum == 0, ksum, 0)
    worst = 0.0
    for g in reps:
        for v in g.cone_visits:
            worst = max(worst, math.pi - min(v.side_angles))
    report.add("angle-condition",
               "geodesic side angles at cone points at least pi",
               worst <= ANGLE_SLACK, worst, ANGLE_SLACK)
    if (surface, marking_name) == ("square-torus", "torus-basic"):
        expect = (1.0, 1.0, math.sqrt(2.0))
        err = max(abs(g.length - e) for g, e in zip(reps, expect))
        report.add("torus-lattice-lengths",
                   "square-torus marked spectrum equals lattice norms",
                   err < 1e-9, err, 1e-9)


def cmd_ray(config: dict, out: Path, report: RunReport) -> None:
    t_list = config.read("t_list", _floats)
    coeffs = config.read("q", lambda q: [_point(c) for c in q])
    probe = config.read("probe", _point)

    window = {key: config.read(key, convert) for key, convert in
              (("window_side", float), ("n", _whole), ("bound", float))
              if key in config}
    certs = blaschke.decay_experiment(coeffs, t_list, probe, **window)

    rows = [["t", "residual", "gap_at_probe", "barrier", "pass"]]
    for c in certs:
        rows.append([_fmt(c.t), _fmt(c.residual), _fmt(c.measured),
                     _fmt(c.barrier), str(c.passed)])
    _write_csv(out / "decay.csv", rows)

    report.add("certificates", "all decay certificates pass",
               all(c.passed for c in certs),
               sum(not c.passed for c in certs), 0)
    decreasing = all(b.measured < a.measured
                     for a, b in zip(certs, certs[1:]))
    report.add("monotone", "gap at the probe strictly decreasing",
               decreasing, 0 if decreasing else 1, 0)
    if len(certs) >= 3:
        logs = [math.log(c.measured) for c in certs]
        t13 = [c.t ** (1.0 / 3.0) for c in certs]
        slopes = [(l2 - l1) / (x2 - x1) for (l1, l2, x1, x2)
                  in zip(logs, logs[1:], t13, t13[1:])]
        # negative slopes that strictly decrease: no slope or step reaches 0
        worst = max(slopes + [b - a for a, b in zip(slopes, slopes[1:])])
        report.add("superlinear-decay",
                   "log gap decreases superlinearly in t^(1/3)",
                   worst < 0.0, worst, 0.0)


def _limit_sweep(name: str):
    if name == "pinching-annuli":
        seq = [(geomlimits.ModelSurface(geomlimits.ANNULUS, kappa=-0.5,
                                        R=math.exp(n)), 0.5)
               for n in range(4, 14)]
        return seq, "punctured-disk"
    if name == "core-tracking":
        seq = []
        for n in range(6, 16):
            R = math.exp(n)
            kap = -math.pi ** 4 / (4.0 * math.log(R) ** 2)
            seq.append((geomlimits.ModelSurface(geomlimits.ANNULUS,
                                                kappa=kap, R=R),
                        1.0 / math.sqrt(R)))
        return seq, "punctured-plane"
    if name == "plane-limit":
        seq = [(geomlimits.ModelSurface(geomlimits.PUNCTURED_DISK,
                                        kappa=-1.0 / n ** 2), 0.3)
               for n in range(2, 60, 4)]
        return seq, "plane"
    if name == "oscillating":
        seq = [(geomlimits.ModelSurface(geomlimits.ANNULUS,
                                        kappa=(-0.3 if n % 2 else -0.6),
                                        R=20.0), 0.5)
               for n in range(8)]
        return seq, "indeterminate"
    raise ConfigError(f"unknown sweep preset {name!r}")


def cmd_limits(config: dict, out: Path, report: RunReport) -> None:
    rows = [["sweep", "n_terms", "classified", "expected", "parameter"]]
    ok_all = True
    for name in config.read("sweeps", _names):
        seq, expected = _limit_sweep(name)
        try:
            lim = geomlimits.classify_geometric_limit(seq)
            got = lim.variant
            param = lim.r if got == geomlimits.PUNCTURED_PLANE else lim.kappa
        except CubiclabError:
            got, param = "indeterminate", float("nan")
        rows.append([name, len(seq), got, expected, _fmt(param)])
        ok_all &= got == expected
    _write_csv(out / "limits.csv", rows)
    report.add("sweep-classification", "all sweep presets classified",
               ok_all, 0 if ok_all else 1, 0)

    err_m = max(abs(geomlimits.modulus(math.exp(2 * math.pi)) - 1.0),
                abs(geomlimits.modulus(math.exp(4 * math.pi)) - 2.0))
    err_c = abs(geomlimits.core_length(math.exp(2 * math.pi ** 2)) - 1.0)
    report.add("modulus-core-identities",
               "modulus and core-length identities exact",
               max(err_m, err_c) < 1e-12, max(err_m, err_c), 1e-12)
    R = math.exp(2 * math.pi)
    err_q = abs(geomlimits.core_length_quadrature(R)
                - geomlimits.core_length(R))
    report.add("core-quadrature", "core length vs line integral",
               err_q < 1e-8, err_q, 1e-8)
    worst = 0.0
    rng = config.read("seed", lambda s: np.random.default_rng(_whole(s)), 0)
    for _ in range(10):
        kap = -float(rng.uniform(0.05, 1.0))
        R = float(np.exp(rng.uniform(2.0, 12.0)))
        C = float(np.exp(rng.uniform(0.1, 0.9) * np.log(R)))
        cf = geomlimits.far_end_mass(kap, R, C)
        qd = geomlimits.far_end_mass_quadrature(kap, R, C)
        worst = max(worst, abs(cf - qd) / abs(cf))
    report.add("far-end-mass", "closed form vs 1-d quadrature (10 triples)",
               worst < 1e-6, worst, 1e-6)
    err_p = max(abs(geomlimits.pushforward_power_cover(1) - 1.0),
                abs(geomlimits.pushforward_power_cover(2) - 0.25),
                abs(geomlimits.pushforward_power_cover(3, 9.0) - 1.0))
    report.add("pushforward-scale", "power-cover push-forward scale d^-2",
               err_p == 0.0, err_p, 0.0)


def cmd_surgery(config: dict, out: Path, report: RunReport) -> None:
    mode = config.read("mode", str, "cylinder-ray")
    if mode == "cylinder-ray":
        s = presets.square_torus()
        marking = [presets.torus_class(1, 0), presets.torus_class(0, 1)]
        reps = [tighten_geodesic(s, c) for c in marking]
        table = np.array([[geometric_intersection_count(a, b)
                           for b in reps] for a in reps])
        spectra = []
        height_two = None
        worst_cyl = 0.0
        rows = [["height"] + [c.label for c in marking]]
        for h in config.read("heights", _floats):
            res = insert_cylinder_detailed(s, presets.torus_class(1, 0), h)
            if h == 2.0:
                height_two = res
            moved = [res.transport.transport(c) for c in marking]
            sp = currents.spectrum_from_flat(res.surface, moved)
            spectra.append(sp)
            rows.append([_fmt(h)] + [_fmt(v) for v in sp.values])
            fsio.save_surface(res.surface,
                              out / f"torus_cylinder_h{h:g}.json")
            cyl = detect_cylinder(tighten_geodesic(res.surface, moved[0]))
            err = (max(abs(cyl.circumference - 1.0),
                       abs(cyl.height - 1.0 - h))
                   if cyl.closed else math.inf)
            worst_cyl = max(worst_cyl, err)
        _write_csv(out / "ray_spectra.csv", rows)
        report.add("grafted-cylinder",
                   "transported core sweeps a closed cylinder of "
                   "circumference 1 and height 1 + h",
                   worst_cyl < 1e-12, worst_cyl, 1e-12)
        cls = currents.classify_limit(spectra, table)
        (out / "classifier_report.json").write_text(json.dumps({
            "limit": dict(zip(cls.limit.marking, cls.limit.values)),
            "null_set": list(cls.null_set),
            "parts": [{"classes": list(p.classes), "label": p.label,
                       "systole_over_marking": p.systole_over_marking}
                      for p in cls.parts],
            "laminar_weights": cls.laminar_weights,
            "modes": list(cls.modes),
        }, indent=1))
        ok_null = cls.null_set == ("(1,0)",)
        report.add("null-set", "null set is the core class",
                   ok_null, 0 if ok_null else 1, 0)
        lam = any(p.label == "laminar-candidate"
                  and p.classes == ("(1,0)",) for p in cls.parts)
        report.add("laminar-part", "core supports a laminar candidate",
                   lam, 0 if lam else 1, 0)
        col = table[0] / table[0].max()
        err = float(np.abs(np.array(cls.limit.values) - col).max())
        report.add("limit-column",
                   "limit spectrum proportional to the core's table column",
                   err < 1e-3, err, 1e-3)
        if height_two is not None:
            moved = [height_two.transport.transport(c)
                     for c in presets.torus_marking()]
            sp2 = currents.spectrum_from_flat(height_two.surface, moved)
            expect = (1.0, 3.0, math.sqrt(10.0))
            err2 = max(abs(a - b) for a, b in zip(sp2.values, expect))
            report.add("height-two-spectrum",
                       "spectrum after height-2 cylinder is (1, 3, sqrt 10)",
                       err2 < 1e-9, err2, 1e-9)
    elif mode == "glue":
        eps = config.read("eps", float)
        w = config.read("weight", float, 0.0)
        t1 = presets.square_torus(mark_vertex=True)
        t2 = presets.square_torus(mark_vertex=True)
        glued = triangle_surgery_glue([(t1, 0), (t2, 0)], eps, weights=[w])
        fsio.save_surface(glued, out / "glued.json")
        gb = abs(gauss_bonnet_defect(glued))
        report.add("glue-gauss-bonnet", "glued surface Gauss-Bonnet defect",
                   gb < 1e-9, gb, 1e-9)
        wedge = math.sqrt(3.0) / 4.0 * eps * eps
        expect = 2.0 - 2.0 * wedge + 3.0 * eps * w
        err = abs(area(glued) - expect)
        report.add("glue-area", "area = parts - wedges + prism band",
                   err < 1e-9, err, 1e-9)
        ksum = glued.total_cone_order() + 3 * glued.euler_characteristic
        report.add("glue-cone-arithmetic", "sum k equals -3 chi",
                   ksum == 0, ksum, 0)
    else:
        raise ConfigError(f"unknown surgery mode {mode!r}")


COMMANDS = {
    "spectrum": cmd_spectrum,
    "ray": cmd_ray,
    "limits": cmd_limits,
    "surgery": cmd_surgery,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cubiclab",
        description="flat cone metrics, the Wang equation, length spectra, "
                    "and model-surface limits")
    parser.add_argument("command", choices=sorted(COMMANDS))
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON config file")
    source.add_argument("--preset", help="named built-in config")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
        command = config.read("command", str, args.command)
    except ConfigError as err:
        parser.error(str(err))
    if command != args.command:
        parser.error(f"config is for command {command!r}, "
                     f"not {args.command!r}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(args.command, config_hash(config))
    t0 = time.perf_counter()
    try:
        COMMANDS[args.command](config, out, report)
    except CubiclabError as err:
        print(f"error: {type(err).__name__}: {err}")
        return 2
    report.wall_time = time.perf_counter() - t0
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=1))
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.check_id}: {c.description} "
              f"(measured {c.measured:.6g}, tol {c.tolerance:g})")
    print(f"{len(report.checks)} checks, "
          f"{'all passed' if report.all_passed else 'FAILURES'} "
          f"({report.wall_time:.2f}s)")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
