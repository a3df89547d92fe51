"""Record the default-seed reference outputs that run.py compares against.

    python3 perfbench/record_reference.py

Runs one untraced iteration of every workload at the default seed, at the full
and the smoke sizes, refuses to record if any operation fails its property
checks, and rewrites perfbench/reference.json. Re-record only when a change is meant to alter the
library's results.
"""

import json
import shutil
import sys

import checkout


def main() -> int:
    checkout.import_modone()
    import tracing
    import workloads

    reference = {"full": {}, "smoke": {}}
    for mode, section in reference.items():
        for name, cls in workloads.WORKLOADS.items():
            work = checkout.WORK / f"reference-{name}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                cls.build(workloads.DEFAULT_SEED, mode, work)
                bench = cls(work, mode)
                it = workloads.Iteration(tracing.NullTracer(), cls.ops)
                bench.run(it)
                bench.check(it)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if it.failures:
                print(f"{mode}/{name}: not recorded, failures {it.failures}", file=sys.stderr)
                return 1
            section[name] = it.outputs
            print(f"{mode}/{name}: {len(it.outputs)} reference values")
    with open(workloads.REFERENCE, "w", encoding="ascii") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
