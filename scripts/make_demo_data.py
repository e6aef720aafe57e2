#!/usr/bin/env python3
"""Regenerate the demo calibration record shipped under data/.

A 45-day displacement/temperature record at 10-minute cadence, produced by
the quasistatic staircase model with known parameters plus 1% multiplicative
measurement noise.  Everything is seeded, so the files are reproducible.

Usage: python scripts/make_demo_data.py [OUT_DIR]   (default: data/)
"""

import sys
from pathlib import Path

import numpy as np

from stickslip import corrected_displacement, ou_path, stick_levels_on_grid

TRUTH = dict(z0=0.001, K=2e6, beta=1e-4, f_d=5000.0, f_s=8000.0)
K_BP = 5e6
N = 6481  # 45 days, 10-minute cadence
TEMP_SEED = 20250810
NOISE_SEED = 99


def main(out_dir: Path) -> None:
    out_dir.mkdir(exist_ok=True)

    times = 600.0 * np.arange(N)
    days = times / 86400.0
    ou = ou_path(N, 600 / 86400.0, TEMP_SEED)
    temps = 60 * np.sin(2 * np.pi * days / 18) + 8 * np.sin(2 * np.pi * days) \
        + 1.5 * np.asarray(ou.values)

    # the quasistatic stick levels at the samples, and their stick force
    K, beta = TRUTH["K"], TRUTH["beta"]
    levels = stick_levels_on_grid(temps, beta * temps[0], K, beta,
                                  TRUTH["f_d"], TRUTH["f_s"])
    friction = K * (beta * temps - levels)
    z = TRUTH["z0"] + corrected_displacement(levels, friction, K_BP)
    rng = np.random.default_rng(NOISE_SEED)
    z_obs = z * (1.0 + 0.01 * rng.standard_normal(N))

    record = out_dir / "demo_record.csv"
    with open(record, "w") as fh:
        fh.write("# synthetic bearing record: time_s, temperature_C, "
                 "displacement_m\n")
        fh.write("# generating parameters: z0=%g K=%g beta=%g f_d=%g f_s=%g; "
                 "bearing stiffness K_BP=%g; 1%% multiplicative noise\n"
                 % (TRUTH["z0"], TRUTH["K"], TRUTH["beta"], TRUTH["f_d"],
                    TRUTH["f_s"], K_BP))
        for row in zip(times, temps, z_obs):
            fh.write(",".join("%.12g" % v for v in row) + "\n")

    bounds = out_dir / "demo_bounds.txt"
    bounds.write_text(
        "# parameter lo hi\n"
        "z0 -0.05 0.05\n"
        "K 2e5 8e6\n"
        "beta 2e-5 5e-4\n"
        "f_d 1e3 2e4\n"
        "f_s 2e3 3e4\n")
    print(f"wrote {record} ({N} rows) and {bounds}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1
         else Path(__file__).resolve().parent.parent / "data")
