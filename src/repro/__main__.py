"""Process entry for ``python -m repro`` and the ``repro`` script.

It runs :func:`repro.runner.cli.main`, the in-process API that leaves
``gc`` alone, with the cyclic garbage collector's full passes off, and
freezes the heap before returning.  The stage cache keeps every
circuit, DAG and braid plan a command builds alive until exit, and
none of them is ever cyclic garbage, so full passes and interpreter
shutdown would only re-walk them.  The young passes still run.  They
free the cycles the standard library leaves (argparse, and one per
indented ``json.dumps``, so one per disk record) while those are
young, so what a command leaves behind stays small even though a
sweep writes a record per cache entry (141 on a cold ``sweep --preset
fig6x``).
"""

import gc
import sys
from typing import Optional, Sequence

# A full pass runs once the middle generation has been collected more
# times than the oldest generation's threshold since the last full
# pass; CPython's largest threshold (a C int) is never reached.
_NO_FULL_PASSES = 2**31 - 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    young, middle, _ = gc.get_threshold()
    gc.set_threshold(young, middle, _NO_FULL_PASSES)
    try:
        # Imported here so that importing the CLI runs no full pass.
        from .runner.cli import main as cli_main

        return cli_main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
