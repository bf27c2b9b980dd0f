#!/usr/bin/env python3
"""Compares two saved perfbench reports, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

The reports are the files perfbench/run.py saves under
<build dir>/results/.  Two results are comparable only when their
environment blocks agree on everything but the code under test (git
revision and source digest): same workload, seed, thread count, host core
count, compiler, build type and contract level.  Otherwise this refuses and
exits 2.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import REVISION_FIELDS  # noqa: E402


def env_differences(base, new):
    """Environment fields (other than the revision) whose values differ."""
    keys = sorted(set(base) | set(new))
    return [k for k in keys
            if k not in REVISION_FIELDS and base.get(k) != new.get(k)]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    differ = env_differences(base["env"], new["env"])
    if differ:
        for k in differ:
            print(f"env.{k}: {base['env'].get(k)!r} != {new['env'].get(k)!r}",
                  file=sys.stderr)
        print("refusing to compare results from different environments",
              file=sys.stderr)
        return 2
    for section in ("end_to_end", "per_layer"):
        for name, b in base.get(section, {}).items():
            n = new.get(section, {}).get(name)
            if n is None:
                continue
            change = ((n["value"] - b["value"]) / b["value"]
                      if b["value"] else float("nan"))
            print(f"{name:40s} {b['value']:>16.6g} {n['value']:>16.6g} "
                  f"{change:+8.2%} {b['unit']} [{b['tag']}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
