"""Write digests.json: sha256 of every command variant's data outputs.

usage: python3 perfbench/freeze.py

The digests in the repository were frozen at commit ae1ce7b, and the
outputs are bit-reproducible, so every later commit must match them.
Re-freezing to fit a new kernel would defeat the check: run this only
to add a workload or an input variant, and keep every existing entry.
"""

import json
import shutil
import sys

import run


def main() -> int:
    work = run.BENCH / ".work" / "freeze"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for command in (c for session in run.WORKLOADS.values() for c in session):
            for variant in command.variants:
                inv = run.invoke(command, variant, work, False, run.HARD_LIMIT_S, None)
                key = run.variant_key(variant)
                if inv.exit_code != 0:
                    print(f"{command.name} [{key}]: {inv.problems}", file=sys.stderr)
                    return 1
                digests.setdefault(command.name, {})[key] = inv.outputs
                print(f"{command.name} [{key}] {inv.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
