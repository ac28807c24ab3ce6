"""``python -m mpjl``: the command-line harness of :mod:`mpjl.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
