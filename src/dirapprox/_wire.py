"""How a value read from a JSON input becomes a Python value.

This module alone decides it:
- a number is a JSON int or float, never a bool;
- an integer is an integral number, 150 or 150.0 (errors.integral); an
  artifact this program wrote, such as a schedule, is read back as it was
  written, with JSON ints only;
- a bool is a JSON bool, and a string is a JSON string;
- a complex value is a list of two numbers, [re, im];
- a config dataclass is read field by field through _FIELDS, keyed by the
  field's annotation: an unknown key is rejected by name, and a field with
  a default may be absent.

Every reader raises InvalidInputError naming `what`.  Standard library
only, so importing dirapprox.cli still loads no numpy; dataclasses, which
loads inspect and would slow every CLI start, is imported where it is used.
"""

import numbers

from .errors import InvalidInputError
from .errors import integral as integer


def obj(raw, what: str) -> dict:
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def array(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise InvalidInputError(f"{what} must be a JSON list, got {type(raw).__name__}")
    return raw


def require(d, key: str, read=None):
    """d[key] of the JSON object d, through read(d[key], key) when given;
    a missing key is invalid input."""
    if key not in obj(d, f"the object holding {key!r}"):
        raise InvalidInputError(f"input JSON is missing the {key!r} field")
    return d[key] if read is None else read(d[key], key)


def number(raw, what: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise InvalidInputError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def written_integer(raw, what: str) -> int:
    """A JSON int, as this program writes one: 1.0 is not one here."""
    if type(raw) is not int:
        raise InvalidInputError(f"{what} must be an integer, got {raw!r}")
    return raw


def integers(raw, what: str) -> list[int]:
    return [integer(x, what) for x in array(raw, what)]


def boolean(raw, what: str) -> bool:
    if not isinstance(raw, bool):
        raise InvalidInputError(f"{what} must be true or false, got {raw!r}")
    return raw


def string(raw, what: str) -> str:
    if not isinstance(raw, str):
        raise InvalidInputError(f"{what} must be a string, got {raw!r}")
    return raw


def pair(raw, what: str) -> tuple[float, float]:
    """[a, b], a list of two numbers."""
    if len(array(raw, what)) != 2:
        raise InvalidInputError(f"{what} must be a list of two numbers, got {raw!r}")
    return number(raw[0], what), number(raw[1], what)


def complex_number(raw, what: str) -> complex:
    return complex(*pair(raw, what))


def complexes(raw, what: str) -> list[complex]:
    return [complex_number(z, what) for z in array(raw, what)]


# (reader, writer) of the JSON form of each config dataclass field annotation
_FIELDS = {
    "str": (string, str),
    "bool": (boolean, bool),
    "int": (integer, int),
    "float": (number, float),
    "float | None": (number, float),  # an override: absent keeps the default None
    "tuple[int, ...]": (lambda raw, what: tuple(integers(raw, what)), list),
    "tuple[tuple[float, float], ...]": (
        lambda raw, what: tuple(pair(p, what) for p in array(raw, what)),
        lambda pairs: [[a, b] for a, b in pairs],
    ),
}
_WRITTEN = {**_FIELDS, "int": (written_integer, int)}


def read_fields(cls, raw, what: str, *, written: bool = False):
    """cls(**raw), each field read by its annotation's reader.

    written=True reads an artifact this program wrote, with JSON ints only.
    """
    from dataclasses import MISSING, fields

    d = obj(raw, what)
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(annotations))
    if unknown:
        raise InvalidInputError(f"{what}: unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if missing:
        raise InvalidInputError(f"{what}: missing keys {missing}")
    table = _WRITTEN if written else _FIELDS
    return cls(**{k: table[annotations[k]][0](v, f"{what}: {k}") for k, v in d.items()})


def write_fields(instance) -> dict:
    """The JSON form of a config dataclass, which read_fields reads back."""
    from dataclasses import fields

    return {f.name: _FIELDS[f.type][1](getattr(instance, f.name)) for f in fields(instance)}
