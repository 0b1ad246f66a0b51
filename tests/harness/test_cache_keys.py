"""The one key rule of the on-disk caches: coordinates plus a source digest.

Every trace, tape and verdict entry is keyed by what it was computed from
and by :func:`~repro.harness.tracecache.source_digest` of the code that
computed it.  The hashed package lists are written by hand, so these tests
keep them honest: each producer's ``repro.*`` import closure must lie
inside its cache's list, and editing a hashed file must move exactly the
keys that depend on it.  Edits go to a temporary copy of the package,
never to the source tree.
"""

import ast
import shutil
from pathlib import Path

import pytest

from repro.common.config import MachineConfig
from repro.common.events import Site, Trace, read, write
from repro.harness import tracecache
from repro.harness.experiment import ExperimentRunner
from repro.harness.tracecache import (
    TAPE_SOURCES,
    TRACE_SOURCES,
    TapeCache,
    TraceCache,
)

#: cache -> (its hashed packages, the modules that produce its entries).
PRODUCERS = {
    "trace": (
        TRACE_SOURCES,
        (
            "repro.workloads.registry",
            "repro.workloads.injection",
            "repro.threads.runtime",
            "repro.threads.scheduler",
            "repro.common.coltrace",
        ),
    ),
    "tape": (TAPE_SOURCES, ("repro.engine.tape",)),
}


def module_path(name: str) -> Path | None:
    """The source file of a ``repro.*`` module or package, if there is one."""
    base = tracecache._PACKAGE_ROOT.joinpath(*name.split(".")[1:])
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    return None


def imports_of(name: str) -> set[str]:
    """Every ``repro.*`` module one module imports, anywhere in its body.

    ``from package import name`` counts ``package.name`` too when that is
    a module.  The parent packages' ``__init__`` files are not followed:
    ``repro/__init__.py`` re-exports the whole API.
    """
    path = module_path(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module or ""
            found.add(target)
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return {
        module
        for module in found
        if module.split(".")[0] == "repro" and module_path(module) is not None
    }


def import_closure(roots) -> set[str]:
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(imports_of(name))
    return seen


def hashed(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


@pytest.mark.parametrize("cache", sorted(PRODUCERS))
def test_hashed_sources_cover_the_import_closure(cache):
    packages, roots = PRODUCERS[cache]
    closure = import_closure(roots)
    assert set(roots) <= closure
    missing = sorted(m for m in closure if not hashed(m, packages))
    assert missing == [], f"the {cache} key does not hash {missing}"


def test_closure_walk_follows_lazy_and_from_imports():
    # events.py imports the columnar encoding inside a method, and the
    # registry reaches the fuzz generator by a from-import.
    assert "repro.common.coltrace" in imports_of("repro.common.events")
    assert "repro.fuzz.generator" in import_closure(["repro.workloads.registry"])


@pytest.fixture(autouse=True)
def fresh_digests():
    """Every test starts and ends with an empty source-digest memo."""
    tracecache.source_digest.cache_clear()
    yield
    tracecache.source_digest.cache_clear()


def copy_sources(tmp_path: Path, monkeypatch) -> Path:
    """Point :func:`source_digest` at a private copy of the package."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(
        tracecache._PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(tracecache, "_PACKAGE_ROOT", root)
    tracecache.source_digest.cache_clear()
    return root


def cache_keys(directory: Path) -> dict[str, Path]:
    """The trace, tape and verdict entry paths of one fixed cell."""
    site = Site("k.c", 1)
    trace = Trace(num_threads=2)
    trace.append(0, write(0x100, site))
    trace.append(1, read(0x100, site))
    runner = ExperimentRunner(cache_dir=directory)
    return {
        "trace": TraceCache(directory).path_for(
            "raytrace", 0, *runner._trace_key("raytrace", 0)
        ),
        "tape": TapeCache(directory).path_for(trace.columns(), MachineConfig()),
        "verdict": runner.verdict_cache.path_for(
            "raytrace", 0, "hard-default;v2", *runner._trace_key("raytrace", 0)
        ),
    }


@pytest.mark.parametrize(
    "edited, moved",
    [
        ("workloads/raytrace.py", {"trace", "verdict"}),
        ("fuzz/generator.py", {"trace", "verdict"}),
        ("threads/scheduler.py", {"trace", "verdict"}),
        ("sim/machine.py", {"tape", "verdict"}),
        ("engine/tape.py", {"tape", "verdict"}),
        ("common/coltrace.py", {"trace", "tape", "verdict"}),
        ("core/detector.py", {"verdict"}),
    ],
)
def test_editing_a_hashed_source_moves_its_keys(
    tmp_path, monkeypatch, edited, moved
):
    root = copy_sources(tmp_path, monkeypatch)
    before = cache_keys(tmp_path / "cache")
    path = root / edited
    path.write_bytes(path.read_bytes() + b"\n# edited\n")
    tracecache.source_digest.cache_clear()
    after = cache_keys(tmp_path / "cache")
    assert {name for name in before if before[name] != after[name]} == moved


def test_a_byte_identical_copy_keeps_every_key(tmp_path, monkeypatch):
    original = cache_keys(tmp_path / "cache")
    copy_sources(tmp_path, monkeypatch)
    assert cache_keys(tmp_path / "cache") == original
