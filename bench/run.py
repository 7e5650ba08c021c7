"""sdom benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an sdom source tree.  This launcher pins the run
environment (`SDOM_THREADS` unset, one BLAS/OpenMP thread,
`PYTHONPATH=src`) and starts `harness.py` in a fresh process of its own
session, which it kills, with its children, if the run overruns
``TIME_LIMIT_S``.  The harness prints the result as the last line.
"""

import os
import signal
import subprocess
import sys

import harness

TIME_LIMIT_S = 170


def main() -> int:
    harness.build_parser().parse_args()  # reject bad arguments before starting anything
    if not os.path.isfile(os.path.join("src", "sdom", "cli.py")):
        print("bench/run.py: no sdom sources at src/sdom; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH="src")
    env.pop("SDOM_THREADS", None)
    cmd = [sys.executable, os.path.join(harness.BENCH_DIR, "harness.py"), *sys.argv[1:]]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"bench/run.py: run exceeded {TIME_LIMIT_S} s and was stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
