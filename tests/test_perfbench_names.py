"""The benchmark tracer patches zetakit by name: each (owner, attribute)
it wraps must be defined in that owner's own namespace, or installing the
tracer raises KeyError.  Reads perfbench/ and changes nothing in it."""

from pathlib import Path

from zetakit import varieties

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    """tracer.LAYERS, from the source (no bytecode is written)."""
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_name_is_in_its_owners_namespace():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in _layers() if attr not in vars(owner)]
    assert missing == []
    assert "points" in vars(varieties.PointEnumeration)
