"""Record the invariants every benchmark run is checked against.

    python3 perfbench/record.py

Runs each workload once on its canonically labelled inputs and writes
invariants.json next to this file.  Re-record only when a change is
meant to alter mapscat's answers; a speed-up must leave the file as is.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main():
    recorded = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as workdir:
        for name in workloads.WORKLOADS:
            inputs = workloads.write_inputs(name, 0, workdir, identity=True)
            wl = workloads.make(name, inputs, workdir)
            recorded[name] = wl.summarize(wl.run())
            print(f"recorded {name}", file=sys.stderr)
    workloads.INVARIANTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
