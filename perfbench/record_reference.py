"""Record the reference outputs that every benchmark run compares against.

    python3 perfbench/record_reference.py

Runs each workload's first input(s) for the default seed and writes
perfbench/reference.json. Rerun it only when a change is meant to alter
the outputs beyond rounding, and say so in the change.
"""

import json
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out" / "reference"

if __name__ == "__main__":
    workloads.import_cdglab(HERE.parent)
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        config = cls(OUT, workloads.REFERENCE_SEED).setup_config()
        config_path = inputs.write_config(OUT / f"{name}_setup.json", config)
        reference[name] = workloads.reference_summary(name, OUT / name, config_path)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
