"""One hash over the CLI's stdout, stderr, exit code and written files on a fixed set of commands.

For each target in TARGETS the digest runs, in this process through
cli.main, compile (json and csv), factor (default and --paper-pairing),
spectrum --points 11, one sweep per axis (g, T and M), simulate with
its trace CSV written by --out, and simulate --system on the document
that compile --out writes for the split factor anneals.  It takes in
each command line, its exit code, its stdout, its stderr and the bytes
of the file it wrote.  Written files go to a temporary directory, and
the hashed command line names each by its role (OUTPUTS) instead of its
path.  A change that must not move any printed or written byte is
checked by printing the digest before and after it:

    PYTHONPATH=src python tests/cli_digest.py

The JSON of factor prints floats as full reprs, whose last digits may
differ between BLAS builds, so compare hashes made on one machine with
one numpy and BLAS; the hash is not a fixed constant for every build.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from adiafact import select_split
from adiafact.cli import main as cli_main

TARGETS = (35, 77, 121, 143, 323, 899, 3599)
SWEEPS = (("g", "0.3", "0.9"), ("T", "5", "10"), ("M", "5", "10"))
# the files the commands write and read, by role; each is a path in a temporary directory
OUTPUTS = ("trace.csv", "system.json")


def commands(target: int, widths: tuple[int, int]) -> list[list[str]]:
    """The command lines of one target; widths is the split factor anneals."""
    n = str(target)
    lines = [
        ["compile", n],
        ["compile", n, "--format", "csv"],
        ["factor", n],
        ["factor", n, "--paper-pairing"],
        ["spectrum", n, "--points", "11"],
    ]
    lines += [["sweep", n, "--axis", axis, "--values", *values] for axis, *values in SWEEPS]
    lines += [
        ["simulate", n, "--checkpoints", "0", "7", "20", "--out", "trace.csv"],
        ["compile", n, "--widths", *map(str, widths), "--out", "system.json"],
        ["simulate", "--system", "system.json"],
    ]
    return lines


def cli_digest(targets=TARGETS) -> tuple[str, int, int]:
    """Return (sha256 hex digest, commands run, bytes printed) over the targets, in order."""
    digest = hashlib.sha256()
    runs = printed = 0
    with tempfile.TemporaryDirectory() as scratch:
        paths = {role: Path(scratch, role) for role in OUTPUTS}
        for target in targets:
            for argv in commands(target, select_split(target)[0].widths):
                written = paths[argv[argv.index("--out") + 1]] if "--out" in argv else None
                if written is not None:
                    written.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli_main([str(paths.get(arg, arg)) for arg in argv])
                runs += 1
                printed += len(out.getvalue()) + len(err.getvalue())
                digest.update(f"{' '.join(argv)}\n{code}\n".encode())
                texts = [stream.getvalue().encode() for stream in (out, err)]
                if written is not None:
                    texts.append(written.read_bytes() if written.exists() else b"")
                for text in texts:
                    digest.update(f"{len(text)}\n".encode() + text)
    return digest.hexdigest(), runs, printed


def main(argv: list[str]) -> None:
    targets = tuple(int(a) for a in argv) or TARGETS
    hexdigest, runs, printed = cli_digest(targets)
    print(f"{hexdigest}  {runs} commands on {', '.join(map(str, targets))}: "
          f"{printed} characters printed")


if __name__ == "__main__":
    main(sys.argv[1:])
