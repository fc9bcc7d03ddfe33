"""Every code reference in README.md names something vprkit defines.

A reference is an inline code span that starts with a dotted name whose
first part is `vprkit`, one of its modules or one of its classes:
`places.PAYLOAD_BLOCK_BYTES`, `vprkit.cli.DEFAULT_CONFIG`,
`aggregators.pool(kind, params, fmaps)`, `PlacesDB.payload_blocks`. A
span that starts with any other name, such as a config key (`train.grid`),
a file (`payloads.vprk`) or numpy (`np.isin`), is not one, nor is any
text in a fenced code block. A function or class reached through a module
must be defined there, not only imported (the package's own `vprkit.X`
re-exports aside). So a renamed, moved or deleted name cannot stay
documented.
"""

import dataclasses
import importlib
import pkgutil
import re
import types
from pathlib import Path

import vprkit

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name: importlib.import_module(f"vprkit.{info.name}")
           for info in pkgutil.iter_modules(vprkit.__path__)}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if isinstance(obj, type) and obj.__module__ == module.__name__}
ROOTS = {"vprkit": vprkit, **MODULES, **CLASSES}

_FENCED = re.compile(r"^```.*?^```", re.M | re.S)
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def references(text: str) -> list[str]:
    """The dotted names that start the inline code spans of markdown `text` and name a root."""
    spans = _FENCED.sub("", text).split("`")[1::2]
    return [m.group() for m in map(_DOTTED.match, spans)
            if m and m.group().split(".")[0] in ROOTS]


def resolves(reference: str) -> bool:
    """Each part is an attribute of the one before it, and defined there when it is a function
    or class of a module other than the package; the last may be a dataclass field."""
    first, *parts = reference.split(".")
    obj = ROOTS[first]
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            owner, obj = obj, getattr(obj, part)
            if (isinstance(owner, types.ModuleType) and owner is not vprkit
                    and isinstance(obj, (type, types.FunctionType))
                    and obj.__module__ != owner.__name__):
                return False
        else:
            fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
            return i == len(parts) - 1 and part in fields
    return True


def test_every_readme_reference_resolves():
    found = references(README.read_text(encoding="utf-8"))
    assert len(found) > 20  # the README is read as the parser expects
    assert [name for name in found if not resolves(name)] == []


def test_references_are_found_and_checked():
    text = ("Calls `places.stage_payloads(db, index, stage)`, reads\n`PlacesDB.rows` and "
            "`vprkit.tensorio.gone`, sets `train.grid`, writes `payloads.vprk`.\n"
            "```sh\necho `places.not_a_reference`\n```\n`Batch.gone` and `np.isin`.\n")
    found = references(text)
    assert found == ["places.stage_payloads", "PlacesDB.rows", "vprkit.tensorio.gone",
                     "Batch.gone"]
    assert [name for name in found if not resolves(name)] == ["vprkit.tensorio.gone", "Batch.gone"]


def test_a_name_a_module_only_imports_does_not_resolve():
    assert resolves("embeddings.normalize_backward")
    assert resolves("vprkit.embeddings.normalize_backward")
    assert not resolves("aggregators.normalize_backward")  # imported from embeddings
    assert not resolves("vprkit.aggregators.normalize_backward")
    assert not resolves("losses.MinedSet")  # a class, imported from mining
    assert resolves("vprkit.GroundTruthMatcher")  # a re-export of the package itself
