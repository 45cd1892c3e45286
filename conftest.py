"""Hooks shared by every test suite in the repository."""

import numpy as np

# Every pinned records digest was made with this numpy.  Another version may
# draw other streams from ``np.random.Generator`` for the same seeds, and then
# the pins fail although the simulator is unchanged.
PINNED_NUMPY = "2.4.6"


def pytest_report_header(config):
    header = f"numpy {np.__version__}"
    if np.__version__ != PINNED_NUMPY:
        header += (f": every pinned digest assumes numpy {PINNED_NUMPY}'s Generator "
                   f"streams, so a digest mismatch may come from the numpy version")
    return header
