"""Analyses degrade to NaN or flagged results, never to numerical
warnings: in this directory a ``RuntimeWarning`` (an all-NaN or empty
reduction, a division by zero, an invalid value) fails the test."""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # The hook receives every collected item, so mark only this
    # directory's tests.
    for item in items:
        if _HERE in pathlib.Path(item.path).resolve().parents:
            item.add_marker(
                pytest.mark.filterwarnings("error::RuntimeWarning")
            )
