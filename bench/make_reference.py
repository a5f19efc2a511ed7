"""Regenerate bench/reference.json, the campaign output digests the benchmark checks.

    python3 bench/make_reference.py

Writes the sha256 of every file that ``registry-stress`` and
``global-grid`` leave in their output directory, for campaign seeds
1..REFERENCE_SEEDS. Rerun only for a library change that is meant to
change campaign outputs, and say in the change which bytes moved and why.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    table = {}
    for name in ("registry-stress", "global-grid"):
        table[name] = {}
        for seed in range(1, run.REFERENCE_SEEDS + 1):
            workload = run.make_workload(name, seed)
            tracer = run.Tracer()
            workload.setup(tracer)
            run.OUT_DIR.mkdir(exist_ok=True)
            out_dir = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
            try:
                attempted, failed, rows = workload.execute(out_dir, tracer)
                if failed:
                    print(f"error: {name} seed {seed}: {failed} of {attempted} operations failed",
                          file=sys.stderr)
                    return 1
                table[name][str(seed)] = run.output_digests(out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            print(f"{name} seed {seed}: {rows} rows, {len(table[name][str(seed)])} files", flush=True)
    run.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
