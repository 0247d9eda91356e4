"""Show that every workload's output checks can fail.

For each workload: set up on the given seed, run its minimum number of
rounds, confirm the checks pass, then corrupt the output of operation 0
(``Workload.corrupt``) and confirm the checks report it. Exits 1 if a
check passes a corrupted output or fails a clean one.

    python3 bench/check_checks.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    run.import_kmprop()
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        w = cls()
        workdir = os.path.join(run.OUT_DIR, f"check-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            w.setup(args.seed, workdir)
            ph = run.run_phase(w, seconds=0)
            clean = run.check_phase(w, ph)
            ph.outs[0] = w.corrupt(ph.outs[0])
            caught = run.check_phase(w, ph)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        good = not clean and bool(caught)
        ok &= good
        print(f"{name}: {ph.attempted} ops, clean problems {len(clean)}, "
              f"corrupted problems {len(caught)} -> {'ok' if good else 'FAIL'}")
        for line in clean + caught[:2]:
            print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
