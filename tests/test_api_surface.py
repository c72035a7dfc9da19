"""The public API, one line per name in `weierstrass.__all__`, against a golden.

Each function shows its signature, each class its bases and constructor
signature followed by one line per public method, classmethod, staticmethod
and property it defines, and each other name its `repr`. A parameter, option
or name added, renamed or removed therefore shows up in the golden's diff.
After a deliberate change of the API, rebuild the golden with
`PYTHONPATH=src python tests/test_api_surface.py` and review the diff.
"""

import inspect
import types
from pathlib import Path

import weierstrass

GOLDEN = Path(__file__).parent / "data" / "golden" / "api.txt"

_MEMBER_KINDS = (
    (classmethod, "classmethod"),
    (staticmethod, "staticmethod"),
    (property, "property"),
    (types.FunctionType, "method"),
)


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except ValueError:  # exceptions and other types built on C constructors
        return ""


def _class_lines(name: str, cls: type) -> list[str]:
    bases = ", ".join(base.__name__ for base in cls.__bases__ if base is not object)
    head = f"class {name}" + (f"({bases})" if bases else "")
    signature = _signature(cls)
    lines = [f"{head}: {signature}" if signature else head]
    for member, value in vars(cls).items():
        if member.startswith("_"):
            continue
        for kind_type, kind in _MEMBER_KINDS:
            if isinstance(value, kind_type):
                target = value.fget if kind == "property" else getattr(cls, member)
                lines.append(f"{name}.{member}: {kind} {_signature(target)}")
                break
    return lines


def api_lines() -> list[str]:
    lines = []
    for name in weierstrass.__all__:
        obj = getattr(weierstrass, name)
        if inspect.isclass(obj):
            lines.extend(_class_lines(name, obj))
        elif callable(obj) and not isinstance(obj, types.GenericAlias):
            lines.append(f"{name}{_signature(obj)}")
        else:
            lines.append(f"{name} = {obj!r}")
    return lines


def test_public_api_matches_the_golden():
    assert api_lines() == GOLDEN.read_text().splitlines()


def regenerate() -> None:
    GOLDEN.write_text("".join(line + "\n" for line in api_lines()))


if __name__ == "__main__":
    regenerate()
