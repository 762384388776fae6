"""The package's public names and layers: every name in ``froblab.__all__``
resolves on the package, and every public name ``froblab/__init__.py``
imports is listed, so a name deleted from one place but not the other fails
here; and only the modules that define packed monomials read them."""

import ast
from pathlib import Path

import froblab


def _imported_names():
    tree = ast.parse(Path(froblab.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_listed_name_resolves_on_the_package():
    assert len(froblab.__all__) == len(set(froblab.__all__))
    assert [name for name in froblab.__all__ if not hasattr(froblab, name)] == []


def test_every_public_name_the_package_imports_is_listed():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert sorted(public - set(froblab.__all__)) == []


def test_only_polyring_and_groebner_read_packed_terms():
    """A polynomial's ``_terms`` are packed monomials; every other module
    reads them through ``terms()``, ``total_degree`` and ``ring.monomial``.
    The same holds for the packed layout (``packing``, ``pack``,
    ``unpack``) and a basis's packed ``divisors``: the ideal and quotient
    layers reach leads, standard monomials and normal-form coordinates
    through ``GroebnerBasis`` methods."""

    def readers(attributes):
        return {
            path.name
            for path in Path(froblab.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in attributes
        }

    assert readers({"_terms"}) <= {"polyring.py", "groebner.py"}
    assert readers({"divisors", "packing", "pack", "unpack"}) <= {"polyring.py", "groebner.py"}
