#!/usr/bin/env python3
"""Build the rdca benchmark from source and run one workload.

Run from the root of an rdca checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

The benchmark program (perfbench/main.ml) is built with dune inside the
checkout, then run with the same arguments; its standard output, whose
last line is the result object, passes through unchanged.  Build output goes to
standard error.  Without the repository's sources next to it (no
dune-project or lib/), the script exits with status 2 and prints no
result.
"""

import ctypes
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def source_digest():
    """SHA-256 over the library, CLI and benchmark sources, for provenance
    where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def fixed_layout():
    """Turn off address-space randomisation for main.exe (Linux
    personality flag ADDR_NO_RANDOMIZE).  With it on, each process gets a
    different heap and stack placement, and the cache conflicts that
    follow made the same inputs run at two distinct speeds from one
    process to the next."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)
    except (OSError, AttributeError):
        pass


def revision():
    # Only a checkout that is itself a git work tree has a revision; git
    # would otherwise report whatever repository encloses the directory.
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an rdca checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rev = f"{revision()}+src.{source_digest()}"
    try:
        run = subprocess.run(
            [EXE, *sys.argv[1:], "--rev", rev], env=env, timeout=RUN_TIMEOUT_S,
            preexec_fn=fixed_layout,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
