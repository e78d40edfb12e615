"""Import boundaries between the package's modules, read from their sources with ast."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import egain

SOURCES = Path(egain.__file__).parent
MODULES = sorted(path.stem for path in SOURCES.glob("*.py"))
# the certificate's parts, which only symplectic._certified puts together
CERTIFICATE_PARTS = {"_spectrum_from_factor", "_require_decidable"}
# the one part used elsewhere: gaussian reads a Hamiltonian's frequencies off its stored factor
FREQUENCIES = {"gaussian": {"_spectrum_from_factor"}}


def imports(module, nodes=ast.walk):
    """(module, name) for each name the module imports; a plain ``import x`` gives (x, None).

    ``nodes`` picks the statements read from the parsed module: all of them, or
    ``lambda tree: tree.body`` for the module-level ones.
    """
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    found = []
    for node in nodes(tree):
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


def taken_names(module, sources):
    """(source, name) for each name the module takes from ``sources``: imported by name, or read as
    an attribute of a module it imports whole (``from . import channels`` then ``channels.name``)."""
    found = imports(module)
    taken = {(source, name) for source, name in found if source in sources}
    whole = {name for source, name in found if source == "egain" and f"egain.{name}" in sources}
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in whole:
            taken.add((f"egain.{node.value.id}", node.attr))
    return taken


def test_fock_takes_only_the_gaussian_counterpart_from_the_core():
    # the independence rule: the Fock route reads the phase-space core only for the references
    # of its checks, the Gaussian counterpart of a dilation and its Gaussian gains
    core = {f"egain.{name}" for name in ("channels", "gaussian", "symplectic")}
    taken = taken_names("fock", core)
    assert ("egain.channels", "preset_channel") in taken  # read as an attribute
    assert taken <= {
        ("egain.channels", "GaussianChannel"),
        ("egain.channels", "_apply"),
        ("egain.channels", "preset_channel"),
        ("egain.gaussian", "_entropies"),
        ("egain.symplectic", "DEFAULT_TOL"),
        ("egain.symplectic", "_uncertainty_cert"),
        ("egain.symplectic", "symplectic_eigenvalues"),
    }


# the modules `import egain` registers to run on first use; all but matio import numpy
LAZY = {f"egain.{name}" for name in ("symplectic", "gaussian", "channels", "matio", "fock", "classical")}


@pytest.mark.parametrize("module", ["__init__", "cli", "__main__", "errors", "presets", "records", "matio"])
def test_what_runs_before_the_argv_refusals_imports_no_numpy(module):
    # `egain --help`, every refusal that argv alone decides and every matrix-file refusal end
    # before numpy would load
    found = imports(module, lambda tree: tree.body)
    assert not [source for source, _ in found if source == "numpy" or source.startswith("numpy.")], module


@pytest.mark.parametrize("module", ["__init__", "errors"])
def test_import_egain_does_not_run_the_preset_domain(module):
    # what `import egain` runs is compiled in every process; the domain only where a preset is read
    found = imports(module)
    assert "egain.presets" not in {source for source, _ in found} | {f"{source}.{name}" for source, name in found}


@pytest.mark.parametrize("module", ["__init__", "cli", "fock", "channels"])
def test_the_lazy_modules_are_imported_as_modules_only(module):
    # one module-level `from .channels import name` would run that module, and numpy, in every
    # process that runs this one; fock and channels run the core only where they call it
    assert not [(source, name) for source, name in imports(module, lambda tree: tree.body) if source in LAZY]


def test_every_reexported_name_is_read_from_its_module(monkeypatch):
    assert len(egain._REEXPORTED) == 49
    for name, module in egain._REEXPORTED.items():
        value = getattr(module, name)
        assert getattr(egain, name) is value, name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name  # its home module
        monkeypatch.setattr(module, name, object())  # a stub is seen through the package too
        assert getattr(egain, name) is getattr(module, name), name


@pytest.mark.parametrize("module", [m for m in MODULES if m != "symplectic"])
def test_only_symplectic_assembles_a_certificate(module):
    taken = {name for _, name in imports(module)} & CERTIFICATE_PARTS
    assert taken <= FREQUENCIES.get(module, set()), module


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


def test_one_stack_refusal_is_defined_in_records_and_imported_by_every_user():
    # the three numpy layers refuse a stack's first flagged entry one way, written once, in the
    # numpy-free module that all of them import
    trees = {module: ast.parse((SOURCES / f"{module}.py").read_text()) for module in MODULES}
    defined = [
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_refuse"
    ]
    assert defined == ["records"]
    users = {module for module, tree in trees.items() if "_refuse" in map(reference, ast.walk(tree))} - {"records"}
    assert {"symplectic", "gaussian", "fock", "classical"} <= users
    for module in users:
        assert ("egain.records", "_refuse") in imports(module, lambda tree: tree.body), module


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    # a report depends only on its argv and its input files, so equal runs give equal bytes
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    names = {reference(node) for node in ast.walk(tree)} | {name for _, name in imports(module)}
    assert not names & {"environ", "environb", "getenv"}, module
