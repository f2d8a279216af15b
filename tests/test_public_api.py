"""Every name a corrlab module exports in ``__all__`` exists, so a stale
export of a removed name fails here rather than at a user's import, and
the names moved to tests/reference.py resolve nowhere in the library;
tensor products have one constructor call; the validating
constructors are called only at the trust boundary; derived data
(kernels, frames, products, Gamma) takes no eps; every endpoint check in
nerve.py runs at its caller's eps; an extension run has one tolerance,
which reaches every check it makes; the simplicial operators are checked
by one rule, in nerve; and the library stays within its line budget."""

import ast
import importlib
import inspect
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


def raised(tree):
    """(function, exception name, literal text of its message) for each
    ``raise Name(...)`` in tree; the text joins an f-string's constant parts."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                args = child.exc.args[:1]
                parts = args[0].values if args and isinstance(args[0], ast.JoinedStr) else args
                text = "".join(p.value for p in parts if isinstance(p, ast.Constant))
                out.append((scope, getattr(child.exc.func, "id", None), str(text)))
            visit(child, scope)

    visit(tree, "<module>")
    return out


def test_the_simplicial_operators_have_one_rule():
    """Every vertex map (NotMonotone) and every face or degeneracy index
    (IndexOutOfRange "... index ... out of range") in the library is refused
    by nerve's one check for it, and every horn of the wrong kind by
    HornSpec's one rule, so no operator keeps a copy of its own."""
    found = [
        (path.name, scope, name, text)
        for path in sorted(pathlib.Path(corrlab.__file__).parent.glob("*.py"))
        for scope, name, text in raised(ast.parse(path.read_text()))
    ]

    def where(keep):
        return {(f, scope) for f, scope, name, text in found if keep(name, text)}

    assert where(lambda name, text: name == "NotMonotone") == {("nerve.py", "_vertex_map")}
    index = where(
        lambda name, text: name == "IndexOutOfRange" and " index " in text and "out of range" in text
    )
    assert index == {("nerve.py", "_index")}
    kinds = ("is not an inner horn", "is not a special outer horn", "special outer horn below")
    horn = where(lambda name, text: name == "Unfillable" and any(k in text for k in kinds))
    assert horn == {("nerve.py", "_check_kind")}


ENDPOINT_CHECKS = ("compose_isos", "tensor_iso", "associator", "corr_close", "pentagon_residual")


def test_every_endpoint_check_in_nerve_takes_the_callers_eps():
    """``--eps`` is the one tolerance of a simplex's checks: every call in
    nerve.py of a check that compares endpoints passes ``eps`` (by keyword,
    or as the name ``eps``), so none falls back to the default.  The
    unitors are left out: inside a simplex their identity test is an
    ``is``."""
    tree = ast.parse(pathlib.Path(corrlab.nerve.__file__).read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ENDPOINT_CHECKS
    ]
    at_default = [
        (getattr(c.func, "id", getattr(c.func, "attr", None)), c.lineno)
        for c in calls
        if not any(k.arg == "eps" for k in c.keywords)
        and not any(isinstance(a, ast.Name) and a.id == "eps" for a in c.args)
    ]
    assert len(calls) > 20 and not at_default


RUN_CHECKS = (
    "equal",
    "fill_inner_horn",
    "fill_special_outer_horn",
    "fill_boundary",
    "guided_fill",
    "assemble_boundary",
    "find_corr_iso",
    "equivalence_inverse",
    "_check_uncovered",
    "_bad_face",
    "chain",
    "certificate",
    "bar_F",
    "extend_bar_G",
    "subdivision_functor",
)


def test_every_check_in_extension_takes_the_runs_eps():
    """eps is the one tolerance of an extension run: every call in
    extension.py of an oracle comparison or fill, a functor's chain or
    certificate, a run, or a check passes ``eps`` (by keyword, or as a name
    ending in ``eps``), so none falls back to the default."""
    tree = ast.parse(pathlib.Path(corrlab.extension.__file__).read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in RUN_CHECKS
    ]
    at_default = [
        (getattr(c.func, "id", getattr(c.func, "attr", None)), c.lineno)
        for c in calls
        if not any(k.arg == "eps" for k in c.keywords)
        and not any(
            getattr(a, "id", getattr(a, "attr", "")).endswith("eps") for a in c.args
        )
    ]
    assert len(calls) > 21 and not at_default


def test_a_run_has_one_tolerance():
    """Neither NCorrOracle nor gamma_functor holds an eps; every oracle
    method that compares or fills, and every functor's chain and
    certificate, takes the run's eps as a keyword with the default EPS."""
    from corrlab import acceptance, extension

    assert "__init__" not in vars(extension.NCorrOracle)
    assert list(inspect.signature(extension.NCorrOracle).parameters) == []
    assert list(inspect.signature(extension.gamma_functor).parameters) == ["arrows"]
    methods = ("equal", "fill_inner_horn", "fill_special_outer_horn", "fill_boundary", "guided_fill")
    callables = [
        getattr(cls, m)
        for cls in (extension.QCOracle, extension.K0Oracle, extension.NCorrOracle)
        for m in methods
    ]
    functors = [extension.k0_functor(), extension.gamma_functor()]
    functors.append(acceptance.conjugated_k0(None)[0])
    callables += [f for F in functors for f in (F.chain, F.certificate)]
    for f in callables:
        eps = inspect.signature(f).parameters["eps"]
        assert (eps.kind, eps.default) == (eps.KEYWORD_ONLY, corrlab.linalg.EPS), f


# Moved to tests/reference.py (the chains are AugChains; the helpers at the
# end have no library caller): module-level names, then methods.
REMOVED = (
    "AlgElement",
    "SubsetChain",
    "enumerate_sd",
    "random_element",
    "corner_algebra",
    "CornerPresentation",
    "is_equivalence",
    "direct_sum_corrs",
    "phi_star",
    "is_nondegenerate",
    "connecting_hom",
    "dump_value",
    "_gram",
)
REMOVED_METHODS = {
    "FdCstarAlgebra": (
        "zero", "identity", "block_unit", "matrix_unit", "basis_triples", "from_vec"
    ),
    "StarHom": ("apply", "__call__"),
    "CstFunctor": ("edge",),
    "BarExtension": ("__call__",),
    "AugChain": ("entry",),
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


def test_the_extension_run_is_one_class_with_no_unused_options():
    """``BarExtension`` is the run (no ``_Builder`` behind it), the relative
    extension always takes its boundaries from ``bar_F``, and K-theory takes
    no diagram."""
    from corrlab import extension

    assert not hasattr(extension, "_Builder")
    assert "boundary" not in inspect.signature(extension.extend_relative).parameters
    assert list(inspect.signature(extension.k0_functor).parameters) == []


def test_derived_data_takes_no_eps():
    """The rank kernels, the tensor frame, the products and Gamma read every
    rank off the multiplicities, so none takes a tolerance, and the frame
    is kept in one slot, not per eps; eps stays in the checks alone."""
    from corrlab import bicategory, linalg, modules

    derived = [
        linalg.orthonormal_range,
        linalg.gram_onb,
        modules.Correspondence._frame,
        modules.TensorProduct,
        modules.tensor_corrs,
        bicategory.gamma_isometries,
        bicategory.gamma_of_hom,
        bicategory.gamma_multiplicativity,
        bicategory.u_of_corr,
    ]
    takes_eps = [f.__name__ for f in derived if "eps" in inspect.signature(f).parameters]
    assert not takes_eps
    assert "_frames" not in modules.Correspondence.__slots__
    assert not hasattr(modules.Correspondence, "_frames")
    assert "eps" in inspect.signature(corrlab.algebra.hom_normal_form).parameters


def test_algebras_and_modules_compare_by_identity():
    """FdCstarAlgebra and HilbertModule are hash-consed, one live object per
    key, so neither defines __eq__; both keep their hash by value, which
    fixes dict and set order."""
    from corrlab.algebra import FdCstarAlgebra
    from corrlab.modules import HilbertModule

    for cls in (FdCstarAlgebra, HilbertModule):
        assert "__eq__" not in vars(cls) and "__init__" not in vars(cls)
        assert "__hash__" in vars(cls) and "__weakref__" in cls.__slots__
    assert "label" not in FdCstarAlgebra.__slots__


LINE_BUDGET = 5251


def test_library_stays_within_its_line_budget():
    """src/corrlab/*.py totals at most LINE_BUDGET lines, the standing
    constraint on the library's size."""
    total = sum(
        len(path.read_text().splitlines())
        for path in pathlib.Path(corrlab.__file__).parent.glob("*.py")
    )
    assert total <= LINE_BUDGET, f"src/corrlab is {total} lines, over {LINE_BUDGET}"
