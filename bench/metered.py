"""Run a module as `python -m` would, under the speedometer.

    python bench/metered.py OUT.json -m MODULE [ARG ...]
    python bench/metered.py OUT.json -i MODULE

`-m` runs MODULE as `__main__` with the given arguments, exactly as
`python -m MODULE ARG ...` does; `-i` only imports it.  While it runs, a
`speed.Speedometer` samples the machine's speed; OUT.json receives the exit
code, the reference time spent inside the process and every reference unit
time, from which `bench/run.py` turns the process's wall time into
reference seconds.
"""

from __future__ import annotations

import importlib
import json
import runpy
import sys

from speed import Speedometer


def main() -> int:
    out, mode, module, *args = sys.argv[1:]
    meter = Speedometer()
    meter.start()
    code = 0
    try:
        if mode == "-i":
            importlib.import_module(module)
        else:
            sys.argv = [module, *args]
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        meter.stop()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "spent_s": sum(meter.times),
                   "unit_times": meter.times}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
