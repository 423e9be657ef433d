"""Reading and writing spaces as small JSON documents.

A document carries named elements, order-generating pairs (the reflexive
transitive closure is taken, so either covers or the full relation work),
and the involution as either name pairs or a permutation array::

    {
      "elements": ["x", "zx"],
      "leq": [["x", "zx"]],
      "zeta": [["x", "zx"]]
    }

Human-readable names live only here; the core modules work with indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BadParams, ParseError
from .order import Poset
from .space import Space

#: Most elements a document may list.  Closing and validating a dense order
#: takes time quadratic in the count: at this cap a chain parses in about
#: 0.4 s, at 4,096 elements in 14 s; a sparse document (512 two-element
#: chains) takes 0.01 s, at 4,096 elements 0.05 s (Python 3.11, 2-vCPU Xeon).
#: A one-megabyte file can name about 100,000 elements.
MAX_ELEMENTS = 1024


@dataclass(frozen=True)
class NamedSpace:
    """A space plus the printable names of its elements."""

    space: Space
    names: tuple[str, ...]

    def name_of(self, index: int) -> str:
        return self.names[index]

    def set_names(self, xs) -> list[str]:
        return sorted(self.names[x] for x in xs)


def parse_space(text: str) -> NamedSpace:
    """Parse a JSON space document; raises :class:`ParseError` on malformed
    input or more than :data:`MAX_ELEMENTS` elements, and the usual
    validation errors on an illegal order or involution."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at position {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    try:
        elements = doc["elements"]
        leq = doc["leq"]
        zeta_field = doc["zeta"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError("elements must be a list of strings")
    if len(elements) > MAX_ELEMENTS:
        raise ParseError(
            f"a document may list at most {MAX_ELEMENTS} elements, got {len(elements)}"
        )
    if len(set(elements)) != len(elements):
        raise ParseError("element names must be unique")
    index = {name: i for i, name in enumerate(elements)}
    n = len(elements)

    def resolve(name) -> int:
        if not isinstance(name, str):
            raise ParseError(f"element names must be strings, got {name!r}")
        if name not in index:
            raise ParseError(f"unknown element name {name!r}")
        return index[name]

    pairs = []
    if not isinstance(leq, list):
        raise ParseError("leq must be a list of name pairs")
    for entry in leq:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"leq entries must be pairs, got {entry!r}")
        pairs.append((resolve(entry[0]), resolve(entry[1])))

    zeta = [-1] * n
    if isinstance(zeta_field, list) and all(isinstance(z, str) for z in zeta_field):
        if len(zeta_field) != n:
            raise ParseError("zeta permutation array must list every element")
        zeta = [resolve(z) for z in zeta_field]
    elif isinstance(zeta_field, list):
        for entry in zeta_field:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"zeta entries must be pairs, got {entry!r}")
            a, b = resolve(entry[0]), resolve(entry[1])
            for x, y in ((a, b), (b, a)):
                if zeta[x] not in (-1, y):
                    raise ParseError(f"zeta assigns {elements[x]!r} twice")
                zeta[x] = y
        if -1 in zeta:
            missing = elements[zeta.index(-1)]
            raise ParseError(f"zeta is not total: {missing!r} has no image")
    else:
        raise ParseError("zeta must be a list of pairs or a permutation array")

    poset = Poset.from_pairs(n, pairs)
    return NamedSpace(Space(poset, zeta), tuple(elements))


def format_space(space: Space, names: Optional[Sequence[str]] = None) -> str:
    """Emit a document for ``space``; the order is written as cover pairs.
    ``names``, when given, must be ``space.n`` distinct strings."""
    names = [f"e{i}" for i in range(space.n)] if names is None else list(names)
    strings = all(isinstance(x, str) for x in names)
    if not strings or len(names) != len(set(names)) or len(names) != space.n:
        raise BadParams(f"names must be {space.n} distinct strings, got {names!r}")
    doc = {
        "elements": names,
        "leq": [[names[a], names[b]] for a, b in space.poset.covers()],
        "zeta": [names[space.zeta[x]] for x in range(space.n)],
    }
    return json.dumps(doc, indent=2)
