"""The package namespace: ``pjet.__all__`` names only what ``pjet`` holds."""

import pytest

import pjet


@pytest.mark.parametrize("name", pjet.__all__)
def test_exported_name_resolves(name):
    assert hasattr(pjet, name)


def test_no_name_exported_twice():
    assert len(set(pjet.__all__)) == len(pjet.__all__)
