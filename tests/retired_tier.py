"""The environment variable that once picked a kernel tier.

Nothing in :mod:`repro` reads it: every batch takes its kind's one batch path.
An environment written for an older checkout may still set it, to one of
the old tier names (``scalar``, ``vectorised``, ``compiled``) or to anything
else.  Tests that run under :func:`stale_tier` hold the code to results
that are the same whatever the variable says.
"""

import contextlib
import os
from unittest import mock

#: The retired variable's name.
RETIRED_VAR = "REPRO_KERNEL_TIER"


@contextlib.contextmanager
def stale_tier(value):
    """Set the retired variable to ``value`` inside the block (None: unset it)."""
    with mock.patch.dict(os.environ):
        os.environ.pop(RETIRED_VAR, None)
        if value is not None:
            os.environ[RETIRED_VAR] = value
        yield
