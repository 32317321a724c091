"""Codimension-one witness for a k = 2 shoot result (acceptance criterion 8).

Usage: python3 witness.py SHOOT_JSON GRID

Perturbs the trapped lower-mode initial by +-100 tol and evaluates the full
PDE exit map with the evaluator settings the command line uses.  Prints one
JSON object: the exit s on each side and whether both sides exit.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from stefanlab import reduced
from stefanlab.weighted import RadialGrid


def main() -> int:
    path, grid_n = sys.argv[1], int(sys.argv[2])
    with open(path) as fh:
        shot = json.load(fh)
    evaluator = reduced.TrapEvaluator(shot["k"], shot["b_k0"], RadialGrid(grid_n),
                                      ceiling=shot["ceiling"], tol=shot["tol"])
    exits = []
    for sign in (+1, -1):
        lower = np.array(shot["found_initials"])
        lower[0] += sign * 100.0 * shot["tol"]
        exits.append(evaluator.evaluate(lower).exit_s)
    print(json.dumps({"exit_s": exits,
                      "passed": all(s is not None for s in exits)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
