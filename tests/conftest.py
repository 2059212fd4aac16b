"""Suite-wide hypothesis profiles, and the differential harness's count.

``HYPOTHESIS_PROFILE=long`` loads the ``long`` profile: every property
that takes its example count from :func:`tests.examples` runs 2,000
examples instead of its tier-1 count, as do properties that set none.
Tier-1 runs hypothesis's own ``default`` profile.
"""

from __future__ import annotations

import os

from hypothesis import settings

from repro.bench.harness import CHECKED

settings.register_profile("long", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    if CHECKED:
        arms = ", ".join(f"{name} {count}" for name, count in CHECKED.items())
        terminalreporter.write_line(
            f"differential: {sum(CHECKED.values())} (statement, arm) pairs checked ({arms})"
        )
