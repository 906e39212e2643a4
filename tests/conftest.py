"""Session setup shared by every test module."""

import numpy as np


def pytest_report_header(config):
    # The golden files and the bitwise tests are tied to the numpy and BLAS
    # that rounded them; name both, so a failure on another machine shows
    # which library pair rounds differently. The line count of the package
    # is the size that ROADMAP tracks from change to change.
    from pathlib import Path
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = Path(__file__).resolve().parent.parent / "src" / "uwbfde"
    lines = sum(len(path.read_bytes().splitlines()) for path in src.glob("*.py"))
    return (f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"src/uwbfde/*.py {lines} lines")
