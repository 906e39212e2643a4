"""Session setup shared by every test module."""

import numpy as np


def pytest_report_header(config):
    # The golden files and the bitwise tests are tied to the numpy and BLAS
    # that rounded them; name both, so a failure on another machine shows
    # which library pair rounds differently.
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}"
