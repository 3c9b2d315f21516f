"""The package root's public names: ``__all__`` and the import block agree."""

import types

import emoharness


def test_all_holds_no_duplicates():
    assert len(emoharness.__all__) == len(set(emoharness.__all__))


def test_every_listed_name_resolves():
    assert [name for name in emoharness.__all__ if not hasattr(emoharness, name)] == []


def test_every_public_binding_is_listed():
    bound = {
        name
        for name, value in vars(emoharness).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(emoharness.__all__)) == []
