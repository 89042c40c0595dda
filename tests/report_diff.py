"""Name each leaf that differs between two verify reports:

    python tests/report_diff.py before.json after.json

prints one line per changed leaf, its JSON path with the old and the new
value, and exits 1 when anything differs.  A key or list entry that only
one report holds shows as ``(absent)`` on the other side.  Leaves compare
as JSON text, so -0.0 differs from 0.0 and 1 from 1.0, as ``cmp`` sees
them.  Reports with the same leaves whose files still differ (key order,
formatting) print one line that says so.  Empty output and exit 0 mean
the two files are byte for byte the same.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterator, Tuple

ABSENT = object()


def _text(value) -> str:
    return "(absent)" if value is ABSENT else json.dumps(value)


def diff(old, new, path: str = "$") -> Iterator[Tuple[str, str, str]]:
    """(path, old, new) of each leaf where the two JSON values differ, the
    values as JSON text, in the old report's order, then the new keys."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from diff(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from diff(old[i] if i < len(old) else ABSENT,
                            new[i] if i < len(new) else ABSENT, f"{path}[{i}]")
    elif _text(old) != _text(new):
        yield path, _text(old), _text(new)


def main(argv) -> int:
    before, after = (Path(p).read_text(encoding="utf-8") for p in argv)
    changed = list(diff(json.loads(before), json.loads(after)))
    for path, old, new in changed:
        print(f"{path}: {old} -> {new}")
    if not changed and before != after:
        print("same leaves, different text (key order or formatting)")
        return 1
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
