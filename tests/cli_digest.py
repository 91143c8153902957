"""One hash over the CLI's stdout, stderr and exit code on a fixed set of commands.

For each target in TARGETS the digest runs, in this process through
cli.main, compile (json and csv), factor (default and --paper-pairing),
spectrum --points 11 and one sweep per axis (g, T and M), and takes in
each command line, its exit code, its stdout and its stderr.  A change
that must not move any printed byte is checked by printing the digest
before and after it:

    PYTHONPATH=src python tests/cli_digest.py

The JSON of factor prints floats as full reprs, whose last digits may
differ between BLAS builds, so compare hashes made on one machine with
one numpy and BLAS; the hash is not a fixed constant for every build.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from adiafact.cli import main as cli_main

TARGETS = (35, 77, 121, 143, 323, 899, 3599)
SWEEPS = (("g", "0.3", "0.9"), ("T", "5", "10"), ("M", "5", "10"))


def commands(target: int) -> list[list[str]]:
    n = str(target)
    lines = [
        ["compile", n],
        ["compile", n, "--format", "csv"],
        ["factor", n],
        ["factor", n, "--paper-pairing"],
        ["spectrum", n, "--points", "11"],
    ]
    lines += [["sweep", n, "--axis", axis, "--values", *values] for axis, *values in SWEEPS]
    return lines


def cli_digest(targets=TARGETS) -> tuple[str, int, int]:
    """Return (sha256 hex digest, commands run, bytes printed) over the targets, in order."""
    digest = hashlib.sha256()
    runs = printed = 0
    for target in targets:
        for argv in commands(target):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            runs += 1
            printed += len(out.getvalue()) + len(err.getvalue())
            digest.update(f"{' '.join(argv)}\n{code}\n".encode())
            for stream in (out, err):
                text = stream.getvalue().encode()
                digest.update(f"{len(text)}\n".encode() + text)
    return digest.hexdigest(), runs, printed


def main(argv: list[str]) -> None:
    targets = tuple(int(a) for a in argv) or TARGETS
    hexdigest, runs, printed = cli_digest(targets)
    print(f"{hexdigest}  {runs} commands on {', '.join(map(str, targets))}: "
          f"{printed} characters printed")


if __name__ == "__main__":
    main(sys.argv[1:])
