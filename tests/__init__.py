from hypothesis import settings


def examples(tier1: int) -> int:
    """A property's example count: ``tier1`` under the default profile,
    the loaded profile's under any other (``HYPOTHESIS_PROFILE=long``,
    tests/conftest.py)."""
    if settings.get_current_profile_name() == "default":
        return tier1
    return settings.default.max_examples
