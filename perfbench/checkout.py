"""Locate the checkout the benchmark runs in and import modone from its src/.

The benchmark must measure the library of the checkout it sits in, never a
copy installed elsewhere, so the import is checked against the path.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class CheckoutError(RuntimeError):
    pass


def import_modone():
    if not (SRC / "modone" / "__init__.py").is_file():
        raise CheckoutError(f"no modone package under {SRC}")
    sys.path.insert(0, str(SRC))
    modone = importlib.import_module("modone")
    if Path(modone.__file__).resolve().parent != (SRC / "modone").resolve():
        raise CheckoutError(f"modone imported from {modone.__file__}, not {SRC}")
    return modone
