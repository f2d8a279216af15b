"""Every name a corrlab module exports in ``__all__`` exists, so a stale
export of a removed name fails here rather than at a user's import, and
the names moved to tests/reference.py resolve nowhere in the library;
tensor products have one constructor call; and the validating
constructors are called only at the trust boundary."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import corrlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(corrlab.__path__, "corrlab."))


def test_every_module_is_listed():
    assert "corrlab.modules" in MODULES and "corrlab.extension" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names {missing}"


def callers(tree, name):
    """Names of the functions (or <module>) holding a call of ``name``."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", getattr(f, "attr", None)) == name:
                    out.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return out


def test_tensor_products_are_built_only_by_tensor_corrs():
    """The product kept per pair, and the per-layer benchmark's span around
    tensor_corrs, both count on TensorProduct(...) being called nowhere else."""
    found = [
        (path.name, scope)
        for path in sorted(pathlib.Path(corrlab.__file__).parent.glob("*.py"))
        for scope in callers(ast.parse(path.read_text()), "TensorProduct")
    ]
    assert found == [("modules.py", "tensor_corrs")]


def test_validating_constructors_are_called_only_at_the_trust_boundary():
    """make_star_hom, make_correspondence, make_iso and a checked CorrIso(...)
    run where data comes from outside: JSON load and the CLI, the make_*
    bodies, and the two intertwiners the library solves for rather than
    writes in closed form.  What the library and its generators build goes
    through the certified constructors (StarHom, _bratteli_hom,
    Correspondence, CorrIso._trusted), so a generator that starts
    re-validating its own output fails here.  The dense trace that reads a
    hom's multiplicities off its matrix, _traced_mult, runs only on a matrix
    from outside: in make_star_hom and in the two unchecked parses of a hom
    and a left action; every builder passes the multiplicities it knows."""
    found = {
        (path.name, scope)
        for path in sorted(pathlib.Path(corrlab.__file__).parent.glob("*.py"))
        if path.name not in ("serialize.py", "cli.py")
        for name in ("make_star_hom", "make_correspondence", "make_iso", "CorrIso")
        for scope in callers(ast.parse(path.read_text()), name)
    }
    assert found == {
        ("modules.py", "make_correspondence"),
        ("modules.py", "make_iso"),
        ("bicategory.py", "find_corr_iso"),
        ("nerve.py", "_solve_pentagon"),
    }
    traced = [
        (path.name, scope)
        for path in sorted(pathlib.Path(corrlab.__file__).parent.glob("*.py"))
        for scope in callers(ast.parse(path.read_text()), "_traced_mult")
    ]
    assert traced == [
        ("algebra.py", "make_star_hom"),
        ("serialize.py", "hom_from_json"),
        ("serialize.py", "corr_from_json"),
    ]


def test_no_library_path_applies_a_hom():
    """A hom's value on a matrix unit is a column of its matrix, read through
    FdCstarAlgebra.block_rows, and phi(1) is the matrix times the unit's
    coordinates (algebra._unit_image); no module calls an ``apply`` or
    ``matrix_unit`` to push an element through a whole hom."""
    found = [
        (path.name, scope, name)
        for path in sorted(pathlib.Path(corrlab.__file__).parent.glob("*.py"))
        for name in ("apply", "matrix_unit")
        for scope in callers(ast.parse(path.read_text()), name)
    ]
    assert found == []


# Moved to tests/reference.py (the chains are AugChains): module-level
# names, then methods.
REMOVED = (
    "AlgElement",
    "SubsetChain",
    "enumerate_sd",
    "random_element",
    "corner_algebra",
    "CornerPresentation",
)
REMOVED_METHODS = {
    "FdCstarAlgebra": (
        "zero", "identity", "block_unit", "matrix_unit", "basis_triples", "from_vec"
    ),
    "StarHom": ("apply", "__call__"),
}


@pytest.mark.parametrize("name", ["corrlab"] + MODULES)
def test_removed_names_do_not_resolve(name):
    module = importlib.import_module(name)
    found = [x for x in REMOVED if hasattr(module, x) or x in getattr(module, "__all__", ())]
    assert not found, f"{name} still has {found}"


def test_removed_methods_do_not_resolve():
    # dir, not hasattr: every class object has the metaclass's __call__
    found = [
        (cls, x)
        for cls, names in REMOVED_METHODS.items()
        for x in names
        if x in dir(getattr(corrlab, cls))
    ]
    assert not found
