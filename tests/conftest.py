"""Any warning raised while a test in this directory runs fails it.

The filter is added per test rather than in pyproject.toml, so that it
does not reach the benchmark's checks under bench/tests, which read the
same pytest settings.

Property tests run under one hypothesis profile: a fixed example
sequence (no example database), no deadline, and a bounded number of
examples, so the suite stays deterministic and its run time bounded.
"""

import pathlib

import pytest
from hypothesis import settings

_HERE = pathlib.Path(__file__).resolve().parent

settings.register_profile("pensive", derandomize=True, database=None,
                          deadline=None, max_examples=120)
settings.load_profile("pensive")


# hypothesis imports libcst to print a patch for a failing property, and
# that import warns; the warning would turn the failure into a crash of
# the whole session
_ERROR = pytest.mark.filterwarnings(
    "error",
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _HERE in item.path.resolve().parents:
            item.add_marker(_ERROR)
