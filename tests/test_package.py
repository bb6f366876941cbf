"""The package's public surface."""

import tariff_complex


def test_public_names_resolve_unique_and_sorted():
    names = tariff_complex.__all__
    assert [n for n in names if not hasattr(tariff_complex, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
