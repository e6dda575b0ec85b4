"""The package's public surface: ``f3sum.__all__`` names what it exports and
nothing the runtime keeps only for its own modules."""

import f3sum

# The package's own helpers, which tests import from their modules, and the
# deleted coerce_number: none is part of the public surface.
INTERNAL = (
    "coerce_number",
    "combo_degree",
    "dd_weight",
    "entry_value",
    "is_integer_valued",
    "pochhammer_product",
)


def test_every_export_resolves():
    missing = [name for name in f3sum.__all__ if not hasattr(f3sum, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert f3sum.__all__ == sorted(set(f3sum.__all__))


def test_star_import():
    namespace = {}
    exec("from f3sum import *", namespace)
    assert set(f3sum.__all__) <= set(namespace)


def test_internal_helpers_are_not_exported():
    assert not set(INTERNAL) & set(f3sum.__all__)
    assert not [name for name in INTERNAL if hasattr(f3sum, name)]
