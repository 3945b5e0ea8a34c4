"""Any warning raised while a test in this directory runs fails it.

The filter is added per test rather than in pyproject.toml, so that it
does not reach the benchmark's checks under bench/tests, which read the
same pytest settings.
"""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
