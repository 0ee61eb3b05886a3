#!/usr/bin/env python3
"""coinbench entry point; see README.md beside this file."""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The program under test is built from source: the checkout's own src/.
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]


def spill_directory() -> str:
    """Where the engine's anonymous spill files go (64 per spilled hash join).

    RAM-backed when the host has such a directory: this host's disk is shared,
    and with the files on it ``scan_stream`` spread by 26-42 % from run to run
    (3-6 % off it).  Otherwise a directory of the benchmark's own.
    """
    shared_memory = "/dev/shm"
    try:
        # Opened the way the engine will: permission bits alone do not say
        # whether a sandboxed process may create a file there.
        tempfile.TemporaryFile(dir=shared_memory).close()
        return shared_memory
    except OSError:
        pass
    fallback = HERE / "out" / "tmp"
    fallback.mkdir(parents=True, exist_ok=True)
    return str(fallback)


if __name__ == "__main__":
    # String hashes lay out every dict, set and spill partition: fixed, so two
    # processes do the same work.  Both settings are read at interpreter start.
    steady = {"PYTHONHASHSEED": "0", "TMPDIR": spill_directory()}
    if any(os.environ.get(name) != value for name, value in steady.items()):
        os.environ.update(steady)
        os.execv(sys.executable, [sys.executable] + sys.argv)

    from coinbench.cli import main

    sys.exit(main())
