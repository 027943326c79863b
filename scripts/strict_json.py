#!/usr/bin/env python3
"""Check that every named file is standard JSON: no Infinity or NaN token.

    python scripts/strict_json.py FILE [FILE ...]

Prints how many files parsed.  Exits 1, naming the file, at the first one
that is missing or does not parse, and when no file is named.
"""

import json
import sys
from pathlib import Path


def reject(token):
    raise ValueError(f"non-standard token {token}")


def main(paths: list[str]) -> int:
    for path in paths:
        try:
            json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
    print(len(paths), "files parse as standard JSON")
    return 0 if paths else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
