"""Hypothesis profiles of the test suite.

``pytest tests/test_library_contract.py --hypothesis-profile contract``
drives every public entry point of the library contract with 1000 examples;
without the profile that test draws a few examples per entry point.
"""

from hypothesis import settings

settings.register_profile("contract", max_examples=1000, deadline=None)
