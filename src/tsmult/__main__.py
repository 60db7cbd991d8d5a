"""Entry point of ``python -m tsmult`` and of the installed ``tsmult`` script."""

import os

# tsmult calls no BLAS routine, and an idle OpenBLAS pool spins at start-up;
# a value the user set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy must load after the setting)

if __name__ == "__main__":
    raise SystemExit(main())
