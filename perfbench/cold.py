"""Cold start of one benchmark op in a fresh interpreter.

Usage: cold.py '<op spec as JSON>'. The spec is {"cli": argv} for a
thermoflow command line or {"lib": function, "npz": path} for a compiler call
on the arrays a and b saved at path. Prints time.monotonic() at the end of the
op, so the parent can time interpreter start, import and the first call
together; exits with the op's exit code.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])

import thermoflow.cli  # noqa: E402  (the import is part of what is timed)

if "cli" in spec:
    code = thermoflow.cli.main(spec["cli"])
else:
    import numpy as np

    with np.load(spec["npz"]) as arrays:
        getattr(thermoflow.compiler, spec["lib"])(arrays["a"], arrays["b"])
    code = 0
print(repr(time.monotonic()))
sys.exit(code)
