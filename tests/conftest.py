"""Shared pytest setup.

With the CI environment variable set, hypothesis runs derandomized: each
property test draws the same examples on every run, so a property test
cannot fail in CI on an example no local run has seen.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
