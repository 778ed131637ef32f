"""Record the input and answer digests of seeds into expected.json.

Usage (from the repository root): python3 bench/record.py SEED [SEED ...]

Runs one untraced pass of every workload per seed and records the digests
only when every answer matches the reference. Run it on a commit whose
answers are trusted; run.py then fails a recorded seed whose inputs or
answers digest differently.
"""

import json
import shutil
import sys
from pathlib import Path

import gen
import run
import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main(seeds: list[int]) -> int:
    records = json.loads(EXPECTED.read_text())
    workdir = run.ROOT / ".bench_work" / "record"
    try:
        for workload in run.WORKLOADS:
            for seed in seeds:
                inputs = gen.build(workload, seed)
                result = run.run_pass(workload, seed, workdir / f"{workload}-{seed}", False, run.RUN_LIMIT_S)
                want = [workloads.expected(op, inputs["files"]) for op in inputs["ops"]]
                _, failures = workloads.tally([result], want)
                if failures or result["digest"] != gen.digest(inputs):
                    print(f"{workload} seed {seed}: {len(failures)} failed, not recorded", file=sys.stderr)
                    return 1
                records.setdefault(workload, {})[str(seed)] = {
                    "inputs": result["digest"],
                    "answers": gen.digest(result["answers"]),
                }
                print(f"{workload} seed {seed} recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
