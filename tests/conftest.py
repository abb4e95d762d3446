"""One hypothesis profile for every run: the same examples each time, no
example database and no deadline (a cold example builds its preparation).
Pass `--hypothesis-profile=default` for fresh draws.

numpy's ComplexWarning is an error in every test: the run path computes in
the dtype its factors force, and a complex value written into a real array
would lose its imaginary part with only that warning. The class lives in
`numpy.exceptions` from numpy 1.25 and at the top level before it, so the
filter is registered here rather than in pyproject.toml."""

import numpy as np

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("repro", derandomize=True, deadline=None, database=None)
    settings.load_profile("repro")


def pytest_configure(config):
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line(
        "filterwarnings", f"error::{warning.__module__}.{warning.__qualname__}"
    )
