"""Run the koszulator CLI in this process, then record its peak resident set.

    python3 bench/launch.py PEAK_FILE <koszulator arguments...>

This is what the `koszulator` console script does (`koszulator.cli:main`),
plus one step at exit: it writes the process's peak resident set in KiB
(VmHWM from /proc/self/status) to PEAK_FILE.  The benchmark cannot use the
ru_maxrss that wait4 reports, because Linux folds the peak of the address
space a process had before exec into it: every child would read at least
the size of the benchmark process that started it, which holds sympy and
numpy.  VmHWM belongs to the address space the command itself built.
"""

from __future__ import annotations

import sys


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    peak_path, cli_args = argv[0], argv[1:]
    from koszulator.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
