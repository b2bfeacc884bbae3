"""Compare two `report_matrix.py` output directories under the report-digit policy.

Usage: python scripts/report_drift.py OLD NEW

For each report file that differs it prints the largest relative numeric
drift |new - old| / max(1, |old|), with the drift of witness fields listed
separately.  Exits 1 if a directory is missing or neither holds a report,
if a file is missing on either side, or if any argv, exit code, stderr
line, status or other non-numeric field differs, or if a number outside a
witness drifts by more than 1e-12 max(1, |old|); exits 0 otherwise.
Witness drift is reported but not judged: a witness may move within a
degenerate eigenspace, and is checked by replaying it.
"""
from __future__ import annotations

import json
import math
import pathlib
import re
import sys

LIMIT = 1e-12
# a JSON-style number, or a float as `str.format` and `repr` print it
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def split_report(text: str) -> dict:
    """The argv, exit, stdout and stderr parts of one report file."""
    head, rest = text.split("\n--- stdout\n", 1)
    stdout, stderr = rest.rsplit("--- stderr\n", 1)
    argv, code = head.split("\n", 1)
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}


def drift(old: float, new: float) -> float:
    if math.isnan(old) and math.isnan(new):
        return 0.0
    if old == new:  # equal infinities too
        return 0.0
    return abs(new - old) / max(1.0, abs(old))


class Comparison:
    """Walks two parsed reports side by side and records what moved."""

    def __init__(self):
        self.mismatches = []  # non-numeric differences: (path, old, new)
        self.worst = (0.0, "")  # largest non-witness drift and its path
        self.worst_witness = (0.0, "")

    def numbers(self, path: str, old: float, new: float) -> None:
        value = (drift(old, new), path)
        if "witness" in path:
            self.worst_witness = max(self.worst_witness, value)
        else:
            self.worst = max(self.worst, value)

    def walk(self, path: str, old, new) -> None:
        numeric = (int, float)
        if isinstance(old, bool) or isinstance(new, bool) or not (
                isinstance(old, numeric) and isinstance(new, numeric)):
            if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
                for key in old:
                    self.walk(f"{path}.{key}", old[key], new[key])
            elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
                for i, (a, b) in enumerate(zip(old, new)):
                    self.walk(f"{path}[{i}]", a, b)
            elif old != new or type(old) is not type(new):
                self.mismatches.append((path, old, new))
            return
        self.numbers(path, float(old), float(new))

    def text(self, path: str, old: str, new: str) -> None:
        """Plain text: the words must match, the numbers in them may drift."""
        old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
        if NUMBER.sub("#", old) != NUMBER.sub("#", new) or len(old_nums) != len(new_nums):
            self.mismatches.append((path, old, new))
            return
        for i, (a, b) in enumerate(zip(old_nums, new_nums)):
            self.numbers(f"{path}#{i}", float(a), float(b))

    @property
    def failed(self) -> bool:
        return bool(self.mismatches) or self.worst[0] > LIMIT


def compare(old_text: str, new_text: str) -> Comparison:
    cmp = Comparison()
    old, new = split_report(old_text), split_report(new_text)
    for part in ("argv", "exit", "stderr"):
        if old[part] != new[part]:
            cmp.mismatches.append((part, old[part], new[part]))
    try:
        old_doc, new_doc = json.loads(old["stdout"]), json.loads(new["stdout"])
    except json.JSONDecodeError:
        cmp.text("stdout", old["stdout"], new["stdout"])
    else:
        cmp.walk("stdout", old_doc, new_doc)
    return cmp


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_dir, new_dir = map(pathlib.Path, argv)
    old_names = {p.name for p in old_dir.glob("*.txt")}
    new_names = {p.name for p in new_dir.glob("*.txt")}
    missing = [d for d in (old_dir, new_dir) if not d.is_dir()]
    for d in missing:
        print(f"{d}: no such directory")
    failed = bool(missing) or not old_names | new_names  # nothing compared is no pass
    for name in sorted(old_names ^ new_names):
        print(f"{name}: only in {old_dir if name in old_names else new_dir}")
        failed = True
    moved = 0
    for name in sorted(old_names & new_names):
        old_text = (old_dir / name).read_text()
        new_text = (new_dir / name).read_text()
        if old_text == new_text:
            continue
        moved += 1
        cmp = compare(old_text, new_text)
        failed = failed or cmp.failed
        line = (f"{name}: max drift {cmp.worst[0]:.3g} ({cmp.worst[1] or '-'}); "
                f"witness max drift {cmp.worst_witness[0]:.3g} ({cmp.worst_witness[1] or '-'})")
        if cmp.worst[0] > LIMIT:
            line += f"  DRIFT > {LIMIT:g}"
        print(line)
        for path, a, b in cmp.mismatches:
            print(f"  differs at {path}: {a!r} -> {b!r}")
    total = len(old_names & new_names)
    print(f"{total} reports compared, {moved} moved: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
