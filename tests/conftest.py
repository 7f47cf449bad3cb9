"""Suite-wide settings: numpy's ComplexWarning is an error.

A strategy whose imaginary parts are all +0.0 is stored real, so a
complex result written into a real buffer would lose its imaginary part
with only this warning to show for it.
"""

import numpy as np

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25 has no numpy.exceptions
    ComplexWarning = np.ComplexWarning


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}")
