#!/usr/bin/env python3
"""Require every JSON file under the given directories to be strict JSON.

    python3 scripts/check_strict_json.py DIR...

Python's json module writes and reads NaN, Infinity and -Infinity, which
strict JSON does not allow. The first `*.json` file under any DIR that holds
such a token, or is not JSON at all, ends the check with `<path>: <reason>`
and exit status 1; otherwise it prints how many files it read.
"""

import json
import pathlib
import sys


def refuse(token):
    raise ValueError(f"holds {token}, which strict JSON does not allow")


def main(dirs: list[str]) -> None:
    paths = sorted(p for d in dirs for p in pathlib.Path(d).rglob("*.json"))
    for path in paths:
        try:
            json.loads(path.read_text(), parse_constant=refuse)
        except ValueError as exc:
            sys.exit(f"{path}: {exc}")
    print(f"{len(paths)} JSON files, every one strict")


if __name__ == "__main__":
    main(sys.argv[1:])
