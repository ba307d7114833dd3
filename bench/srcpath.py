"""Put the checkout's own `src/` first on `sys.path`, or stop.

The benchmark must measure the library of the checkout it sits in, never an
installed copy, so every entry script calls `require_src()` before it imports
`hkbinomial`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_src() -> None:
    if not os.path.isfile(os.path.join(SRC, "hkbinomial", "__init__.py")):
        print(f"error: no library source at {os.path.join(SRC, 'hkbinomial')}", file=sys.stderr)
        sys.exit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def check_imported(module) -> None:
    """Stop if `module` was imported from somewhere other than `src/`."""
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        print(f"error: {module.__name__} imported from {module.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
