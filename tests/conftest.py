"""Session set-up shared by every test module.

When a hypothesis test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to suggest a patch, and that module's libcst
import warns "mypy_extensions.TypedDict is deprecated". pyproject.toml turns
every DeprecationWarning into an error, so the import raised inside the
plugin, pytest stopped with INTERNALERROR and no later test ran. The module
is imported here once, with DeprecationWarning ignored for that import
alone; the filter stays in force for every test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst hypothesis suggests no patch and imports nothing
        pass
