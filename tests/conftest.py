"""One hypothesis profile for every run: the same examples each time, no
example database and no deadline (a cold example builds its preparation).
Pass `--hypothesis-profile=default` for fresh draws."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("repro", derandomize=True, deadline=None, database=None)
    settings.load_profile("repro")
