"""Set-up probe: a fresh interpreter runs one workload's set-up, then says so.

    python3 perfbench/probe.py <workload> <config.json>

Imports cdglab from the checkout, loads the config and builds the model,
schedule and encoder, then prints "ready". run.py times it from spawn to
that line. The probe then times the calibration kernel in the same
process and prints that time, so run.py can calibrate the set-up time.
"""

import sys
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    name, config_path = sys.argv[1], Path(sys.argv[2])
    workloads.import_cdglab(ROOT)
    workloads.WORKLOADS[name](config_path.parent, 0).setup(config_path)
    print("ready", flush=True)
    calibrate.kernel_seconds()  # first run pays one-time costs
    print(calibrate.kernel_seconds(int(sys.argv[3])), flush=True)
