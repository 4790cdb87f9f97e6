"""Frozen output directories of the CLI presets, and the comparison that
tier-1 makes against them.

After a change that moves outputs on purpose, regenerate them with

    PYTHONPATH=src python tests/reference.py

which reruns every preset of ``cubiclab.cli.PRESETS`` into
``tests/data/presets/<preset>/`` and drops ``wall_time`` from each
report.json.

What must match: file names, text, check ids and pass flags, exactly;
numbers to 1e-12 relative.  Roundoff-level values need only stay within
their tolerance: a check's ``measured`` value below 1e-9 within the check's
tolerance, a ``residual`` column within the 1e-10 that ``decay_experiment``
solves to, and a reference number below 1e-15 in magnitude (a rounded zero,
such as an isometry shift of -5.6e-17) below 1e-15.
"""

import csv
import json
import math
import re
import shutil
from pathlib import Path

from cubiclab.cli import PRESETS, main

DATA = Path(__file__).resolve().parent / "data" / "presets"
REL = 1e-12
MEASURED_ROUNDOFF = 1e-9
RESIDUAL_TOL = 1e-10
ZERO = 1e-15
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(ref: float, new: float) -> bool:
    if ref == new or (math.isnan(ref) and math.isnan(new)):
        return True
    if abs(ref) < ZERO:
        return abs(new) < ZERO
    return abs(new - ref) <= REL * max(abs(ref), abs(new))


def _diff_json(ref, new, where, out) -> None:
    if isinstance(ref, dict) and isinstance(new, dict):
        if ref.keys() != new.keys():
            out.append(f"{where}: keys {sorted(ref)} != {sorted(new)}")
            return
        if ({"measured", "tolerance"} <= ref.keys()
                and abs(ref["measured"]) < MEASURED_ROUNDOFF):
            if not abs(new["measured"]) <= new["tolerance"]:
                out.append(f"{where}.measured: {new['measured']!r} exceeds "
                           f"the tolerance {new['tolerance']!r}")
            ref = {k: v for k, v in ref.items() if k != "measured"}
        for k in ref:
            _diff_json(ref[k], new[k], f"{where}.{k}", out)
    elif isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            out.append(f"{where}: {len(new)} entries, reference {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, new)):
            _diff_json(a, b, f"{where}[{i}]", out)
    elif _is_number(ref) and _is_number(new):
        if not _close(ref, new):
            out.append(f"{where}: {new!r}, reference {ref!r}")
    elif type(ref) is not type(new) or ref != new:
        out.append(f"{where}: {new!r}, reference {ref!r}")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _diff_csv(ref_text, new_text, where, out) -> None:
    ref_rows = list(csv.reader(ref_text.splitlines()))
    new_rows = list(csv.reader(new_text.splitlines()))
    if len(ref_rows) != len(new_rows) or ref_rows[:1] != new_rows[:1]:
        out.append(f"{where}: header or row count differs")
        return
    header = ref_rows[0]
    for r, (ref_row, new_row) in enumerate(zip(ref_rows, new_rows)):
        if len(ref_row) != len(new_row):
            out.append(f"{where} row {r}: {new_row}, reference {ref_row}")
            continue
        for col, a, b in zip(header, ref_row, new_row):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                ok = a == b
            elif col == "residual":
                ok = abs(y) <= RESIDUAL_TOL
            else:
                ok = _close(x, y)
            if not ok:
                out.append(f"{where} row {r} {col}: {b}, reference {a}")


def _diff_text(ref_text, new_text, where, out) -> None:
    ref_parts = _NUMBER.split(ref_text)
    new_parts = _NUMBER.split(new_text)
    if len(ref_parts) != len(new_parts):
        out.append(f"{where}: text differs")
        return
    # split with one group alternates text (even) and numbers (odd)
    for i, (a, b) in enumerate(zip(ref_parts, new_parts)):
        if a != b and (i % 2 == 0 or not _close(float(a), float(b))):
            out.append(f"{where}: {b!r}, reference {a!r}")


def compare_with_reference(name: str, out_dir: Path) -> list[str]:
    """The differences of a preset's output directory from its frozen
    reference, one line each; empty when they match."""
    ref_dir = DATA / name
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    new_files = sorted(p.name for p in Path(out_dir).iterdir())
    if ref_files != new_files:
        return [f"{name}: files {new_files}, reference {ref_files}"]
    diffs = []
    for fname in ref_files:
        ref_text = (ref_dir / fname).read_text()
        new_text = (Path(out_dir) / fname).read_text()
        where = f"{name}/{fname}"
        if fname.endswith(".json"):
            new = json.loads(new_text)
            if fname == "report.json":
                new.pop("wall_time")
            _diff_json(json.loads(ref_text), new, where, diffs)
        elif fname.endswith(".csv"):
            _diff_csv(ref_text, new_text, where, diffs)
        else:
            _diff_text(ref_text, new_text, where, diffs)
    return diffs


def regenerate() -> None:
    shutil.rmtree(DATA, ignore_errors=True)
    for name in sorted(PRESETS):
        out = DATA / name
        if main([PRESETS[name]["command"], "--preset", name,
                  "--out", str(out)]) != 0:
            raise SystemExit(f"preset {name} failed")
        report = out / "report.json"
        data = json.loads(report.read_text())
        del data["wall_time"]
        report.write_text(json.dumps(data, indent=1))


if __name__ == "__main__":
    regenerate()
