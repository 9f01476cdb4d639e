"""Time dcflow's set-up in a fresh interpreter.

Set-up is importing ``dcflow``, loading and validating every config with
``load_config`` and building each problem with ``build_problem``.  The
interpreter's own start-up is not counted.

Usage::

    python3 bench/setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Prints ``{"setup_s": <seconds>}`` as its last line.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    src, paths = argv[0], argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from dcflow.cli import build_problem, load_config

    for path in paths:
        build_problem(load_config(path)["problem"])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
