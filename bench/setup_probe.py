"""What every `rateaudit` invocation pays before it computes: a fresh
interpreter imports rateaudit.cli and loads its input files.

Usage: python3 bench/setup_probe.py ROOT [SPEC_FILE ...]

Prints time.monotonic() once the inputs are loaded; the caller subtracts its
own monotonic reading from just before it started this interpreter.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

from rateaudit.cli import load_spec_file  # noqa: E402

for path in sys.argv[2:]:
    load_spec_file(path)

print(repr(time.monotonic()))
