"""Write the frozen reference outputs of every workload at the default seed.

    python3 bench/freeze.py

Run from the root of a checkout whose outputs are the reference; every later
run at the default seed is compared with these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED)
        result = wl.run_pass()
        path = workloads.reference_path(name)
        if name == workloads.Frontier.name:
            path.write_text(json.dumps(wl.reference_doc(result.output), indent=1) + "\n")
        else:
            np.savez_compressed(path, **wl.reference_arrays(result.output))
        print(f"{name}: {result.seconds:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
