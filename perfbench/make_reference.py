"""Regenerate reference.json: the probe outputs of every workload.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/make_reference.py

Each workload's probes (the leading ops of the default seed's stream) run in
a fresh process with nothing timed before them, so a later run that
reproduces them from a warm process also shows that results do not depend
on cache state.
"""

import json
import os
import sys
import time

import run


def main():
    root = os.getcwd()
    ref = {}
    for name in run.WORKLOADS:
        deadline = time.monotonic() + run.TIME_LIMIT_S
        probe = run.spawn(root, deadline, "probe", name, 0, 0)["probe"]
        ref[name] = {"outputs": probe["outputs"]}
        print(f"{name}: {len(probe['outputs'])} probe ops, "
              f"physics errors {probe['physics_errs']}")
    ref["_commit"] = run.git_commit(root)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
