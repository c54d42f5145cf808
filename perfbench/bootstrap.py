"""Locate the checkout and make its ``src/`` importable.

Every entry point of the benchmark imports this module first.  It refuses to
run when the checkout holds no ``src/fptsim`` package, so the benchmark never
silently measures some other installed copy of the library.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for CLI artifacts and span dumps (git-ignored).
OUT = ROOT / ".bench_out"


def require_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` or exit with code 2."""
    if not (SRC / "fptsim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fptsim package under {SRC}; nothing to measure\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit with code 2 if ``module`` was not imported from ``<checkout>/src``."""
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        sys.stderr.write(f"perfbench: {module.__name__} imported from {origin}, not {SRC}\n")
        raise SystemExit(2)
