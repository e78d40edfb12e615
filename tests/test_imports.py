"""Import boundaries between the package's modules, read from their sources with ast."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import egain

SOURCES = Path(egain.__file__).parent
MODULES = sorted(path.stem for path in SOURCES.glob("*.py"))
# the certificate's parts, which only symplectic._certified puts together
CERTIFICATE_PARTS = {"_spectrum_and_factor", "_require_decidable"}


def imports(module):
    """(module, name) for each name the module imports; a plain ``import x`` gives (x, None)."""
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # a relative import names a module of this package
                source = f"egain.{source}" if source else "egain"
            found += [(source, alias.name) for alias in node.names]
    return found


def test_every_module_is_read():
    assert {"symplectic", "gaussian", "channels", "fock", "classical", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", ["symplectic", "gaussian", "channels"])
def test_phase_space_core_imports_no_oracle_and_no_cli(module):
    banned = {f"egain.{name}" for name in ("fock", "classical", "cli")}
    for source, name in imports(module):
        assert source not in banned, (module, source)
        assert not (source == "egain" and f"egain.{name}" in banned), (module, name)


def test_classical_imports_neither_the_fock_oracle_nor_the_cli():
    # classical takes its whole-number refusals from errors, as fock does, so the routes stay uncoupled
    banned = {"egain.fock", "egain.cli"}
    for source, name in imports("classical"):
        assert source not in banned, source
        assert not (source == "egain" and f"egain.{name}" in banned), name


def test_fock_takes_only_the_gaussian_counterpart_from_the_core():
    # the independence rule: the Fock route reads the phase-space core only for the references
    # of its checks, the Gaussian counterpart of a dilation and its Gaussian gains
    core = {f"egain.{name}" for name in ("channels", "gaussian", "symplectic")}
    taken = {(source, name) for source, name in imports("fock") if source in core}
    assert taken == {
        ("egain.channels", "GaussianChannel"),
        ("egain.channels", "_apply"),
        ("egain.channels", "preset_channel"),
        ("egain.gaussian", "_entropies"),
        ("egain.symplectic", "DEFAULT_TOL"),
        ("egain.symplectic", "_uncertainty_cert"),
        ("egain.symplectic", "symplectic_eigenvalues"),
    }


@pytest.mark.parametrize("module", [m for m in MODULES if m != "symplectic"])
def test_only_symplectic_assembles_a_certificate(module):
    assert not {name for _, name in imports(module)} & CERTIFICATE_PARTS, module


def called_names(module):
    """Names the module calls, as ``name(...)`` or as ``anything.name(...)``."""
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {getattr(func, "id", getattr(func, "attr", None)) for func in calls}


def test_symplectic_builds_certificates():
    assert "HermitianCert" in called_names("symplectic")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "symplectic"])
def test_only_symplectic_builds_a_certificate(module):
    assert "HermitianCert" not in called_names(module), module


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_dataclasses(module):
    # records are named tuples: a dataclass costs about 1 ms of start-up to build at import
    assert "dataclasses" not in {source for source, _ in imports(module)}, module



def reference(node):
    """The name a Name or an attribute access refers to, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_every_private_definition_is_used():
    # a private function or class that nothing in the package refers to outside its own body is
    # dead code: a second path that no caller takes
    trees = {module: ast.parse((SOURCES / f"{module}.py").read_text()) for module in MODULES}
    counts = Counter(reference(node) for tree in trees.values() for node in ast.walk(tree))
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and counts[node.name] == sum(reference(inner) == node.name for inner in ast.walk(node))
    ]
    assert unused == []
