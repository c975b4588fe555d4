"""Write `repr(CalibrationResult)` (or the exception) for 300 calibration
configs, one line each, so that two checkouts can be compared.

    PYTHONPATH=<checkout>/src python3 tools/calibration_survey.py out.txt

Run it once per checkout and compare the two files (`cmp a.txt b.txt`).
The configs cross six ensemble-I and five ensemble-II resonance angles,
five relative azimuths and two scan steps.
"""

import itertools
import sys

from cavitybus.calibrate import calibrate_geometry
from cavitybus.config import default_config


def main(path):
    base, lines = default_config(), []
    grid = itertools.product(
        (79, 60, 55, 45, 30, 85), (23, 10, 35, 45, 55), (24.2, 60, -60, 0, 90), (0.25, 1.0)
    )
    for a1, a2, rel, step in grid:
        cfg = base.with_updates(
            {
                "calibration.resonance_angle_i_deg": float(a1),
                "calibration.resonance_angle_ii_deg": float(a2),
                "calibration.relative_azimuth_deg": float(rel),
            }
        )
        try:
            text = repr(calibrate_geometry(cfg, step))
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
        lines.append(f"{a1} {a2} {rel} {step}: {text}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
