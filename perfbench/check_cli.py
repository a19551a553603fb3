"""Shows that the benchmark does not change the program's results.

    python3 perfbench/check_cli.py [--seed 1]

Runs the compare_serial batch three ways: the benchmark's in-process pass,
the same pass with every span wrapper installed, and a plain
`python3 -m cooptrack.cli compare` in a fresh interpreter.  Exits 0 when
per_scene.csv and summary.csv are byte-identical across the three.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from measure import Ledger  # noqa: E402
from run import WORK, child_env  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Compare  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work = os.path.join(WORK, "check_cli")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    compare = Compare(args.seed, work)
    ledger = Ledger()
    compare.run_pass(ledger)               # untraced
    untraced = compare.last
    with Tracer().tracing(0):
        compare.run_pass(ledger)
    if compare.last != untraced:
        ledger.failures.append("traced tables differ from the untraced ones")
    plain = os.path.join(work, "plain")
    subprocess.run([sys.executable, "-m", "cooptrack.cli", "--config",
                    compare.cfg, "compare", "--out", plain], env=child_env(),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    if compare.tables(plain) != untraced:
        ledger.failures.append("plain CLI tables differ from the benchmark's")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(f"seed={args.seed} config={compare.config_hash} "
          f"tables digest={compare.digest()} "
          f"{'identical' if not ledger.failures else 'DIFFERENT'}")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if ledger.failures else 0


if __name__ == "__main__":
    sys.exit(main())
