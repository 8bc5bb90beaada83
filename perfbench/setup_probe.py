"""One cold set-up of a workload, in a fresh interpreter.

Times importing ``repro``, constructing the workload's plan, server or
stream policy, and its first cold operation.  Generating the inputs is
excluded.  Prints one JSON line; run by ``run.py``, not by hand:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    mod = importlib.import_module(name)
    t = time.perf_counter()
    inputs = getattr(mod, "cold_inputs", mod.make_inputs)(seed)
    generated = time.perf_counter() - t
    state = mod.setup(inputs)
    try:
        mod.cold(state, inputs)
        total = time.perf_counter() - T0 - generated
    finally:
        mod.teardown(state)
    print(json.dumps({"setup_s": total, "input_s": generated}))


if __name__ == "__main__":
    main()
