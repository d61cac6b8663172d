"""Record perfbench/reference.json, the expected per-item results, from the
library in ../src:

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter results (topology, defects,
verdicts or witness face pairs); the benchmark fails every item that
differs from this file.  p2-sweep items share one family-level entry,
because every admissible (b, c) gives the same record.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import run


def record() -> dict:
    import numpy as np
    import workloads

    ref = {}
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for workload, setup in workloads.SETUP.items():
            entries: dict[str, dict] = {}
            for item in setup(np.random.default_rng(0), Path(tmp)):
                rec = item.run()
                first = entries.setdefault(item.ref_key, rec)
                bad = workloads.mismatches(rec, first)
                if bad:
                    raise SystemExit(f"{workload} {item.item_id} disagrees "
                                     f"with {item.ref_key}: {bad}")
            ref[workload] = entries
    return ref


def dump(ref: dict) -> str:
    """JSON with one item record per line."""
    blocks = []
    for workload, entries in ref.items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in entries.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    run.import_library()
    (run.HERE / "reference.json").write_text(dump(record()))


if __name__ == "__main__":
    main()
