"""``python -m pathcalc``: the ``pathcalc`` command line, runnable from a checkout."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
