"""Entry point of ``python -m tsmult`` and of the installed ``tsmult`` script."""

import gc
import os

# tsmult calls no BLAS routine, and an idle OpenBLAS pool spins at start-up;
# a value the user set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy must load after the setting)

# what is imported by now lives until exit: moved out of the collector's
# reach, it is swept neither by each command's collections nor at exit;
# the command's own objects are still collected
gc.freeze()

if __name__ == "__main__":
    raise SystemExit(main())
