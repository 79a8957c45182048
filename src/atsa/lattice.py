"""Totally ordered classification schemes and the domination check.

A scheme is a ladder of levels with contiguous ranks 0..N-1. Names and
aliases resolve case-insensitively to ranks; a server clearance ``s`` meets a
requirement ``r`` exactly when rank(s) >= rank(r). Nothing else about a
level takes part in a decision: the scheme carries no compartments or
releasability markings, and a scheme file's ``compartments`` and ``markings``
keys are ignored like any other unknown key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._json import read_json

__all__ = [
    "BUILTIN_SCHEME_NAMES",
    "ClassificationLevel",
    "ClassificationScheme",
    "LevelNotFoundError",
    "SchemeError",
    "get_builtin_scheme",
    "levels_up_to",
    "load_scheme",
]


class SchemeError(ValueError):
    """A scheme definition violates the lattice rules."""


class LevelNotFoundError(SchemeError):
    """A level name does not resolve in the active scheme."""


@dataclass(frozen=True)
class ClassificationLevel:
    rank: int
    canonical_name: str
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "aliases", tuple(self.aliases))
        if not self.canonical_name:
            raise SchemeError("level name must be non-empty")
        if self.rank < 0:
            raise SchemeError(f"rank must be non-negative, got {self.rank}")


@dataclass(frozen=True)
class ClassificationScheme:
    """Validated level ladder. Construction rejects non-contiguous ranks and
    name or alias collisions (case-insensitive)."""

    name: str
    levels: tuple[ClassificationLevel, ...]
    _ranks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(sorted(self.levels, key=lambda l: l.rank)))
        if not self.name:
            raise SchemeError("scheme name must be non-empty")
        if not self.levels:
            raise SchemeError("scheme must define at least one level")
        ranks = [level.rank for level in self.levels]
        if ranks != list(range(len(ranks))):
            raise SchemeError(
                f"scheme {self.name!r}: ranks must be contiguous 0..{len(ranks) - 1}, got {sorted(set(ranks))}"
            )
        table: dict[str, int] = {}
        for level in self.levels:
            for name in (level.canonical_name, *level.aliases):
                key = name.casefold()
                if key in table:
                    raise SchemeError(f"scheme {self.name!r}: duplicate level name {name!r}")
                table[key] = level.rank
        object.__setattr__(self, "_ranks", table)

    def resolve(self, name: str) -> int | None:
        """Rank for a canonical name or alias, matched case-insensitively.
        Returns None when the name is not in the scheme."""
        if not isinstance(name, str):
            return None
        return self._ranks.get(name.casefold())

    def meets(self, server_level: str, required_level: str) -> bool:
        """Domination check: does ``server_level`` satisfy ``required_level``?
        Raises LevelNotFoundError when either side does not resolve."""
        server_rank = self.resolve(server_level)
        if server_rank is None:
            raise LevelNotFoundError(f"level {server_level!r} not in scheme {self.name!r}")
        required_rank = self.resolve(required_level)
        if required_rank is None:
            raise LevelNotFoundError(f"level {required_level!r} not in scheme {self.name!r}")
        return server_rank >= required_rank


_BUILTINS = {
    scheme.name: scheme
    for scheme in (
        ClassificationScheme(
            name="default",
            levels=(
                ClassificationLevel(0, "PUBLIC"),
                ClassificationLevel(1, "INTERNAL", ("CUI",)),
                ClassificationLevel(2, "CONFIDENTIAL"),
                ClassificationLevel(3, "RESTRICTED", ("SECRET",)),
                ClassificationLevel(4, "RESTRICTED-PLUS"),
                ClassificationLevel(5, "SCI"),
            ),
        ),
        ClassificationScheme(
            name="us-government",
            levels=(
                ClassificationLevel(0, "UNCLASSIFIED"),
                ClassificationLevel(1, "CUI"),
                ClassificationLevel(2, "CONFIDENTIAL"),
                ClassificationLevel(3, "SECRET"),
                ClassificationLevel(4, "TOP SECRET"),
                ClassificationLevel(5, "TS//SCI"),
            ),
        ),
        ClassificationScheme(
            name="healthcare-hipaa",
            levels=(
                ClassificationLevel(0, "PUBLIC"),
                ClassificationLevel(1, "INTERNAL"),
                ClassificationLevel(2, "PHI"),
                ClassificationLevel(3, "SENSITIVE-PHI"),
                ClassificationLevel(4, "RESEARCH-EMBARGOED"),
            ),
        ),
        ClassificationScheme(
            name="financial-services",
            levels=(
                ClassificationLevel(0, "PUBLIC"),
                ClassificationLevel(1, "INTERNAL"),
                ClassificationLevel(2, "CONFIDENTIAL"),
                ClassificationLevel(3, "MNPI"),
            ),
        ),
        ClassificationScheme(
            name="generic-3-tier",
            levels=(
                ClassificationLevel(0, "LOW"),
                ClassificationLevel(1, "MEDIUM"),
                ClassificationLevel(2, "HIGH"),
            ),
        ),
    )
}

BUILTIN_SCHEME_NAMES = tuple(_BUILTINS)


def get_builtin_scheme(name: str) -> ClassificationScheme:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise SchemeError(f"unknown builtin scheme {name!r}; known: {', '.join(_BUILTINS)}") from None


def levels_up_to(scheme: ClassificationScheme, name: str) -> tuple[str, ...]:
    """Canonical names of every level up to and including ``name``. Useful for
    materializing an 'approved up to X' signer policy as an explicit list."""
    ceiling = scheme.resolve(name)
    if ceiling is None:
        raise LevelNotFoundError(f"level {name!r} not in scheme {scheme.name!r}")
    return tuple(level.canonical_name for level in scheme.levels if level.rank <= ceiling)


def load_scheme(raw: bytes | str) -> ClassificationScheme:
    """Load a scheme from its JSON file form, applying full validation."""
    data = read_json(raw, SchemeError, "scheme file is not valid JSON")
    if not isinstance(data, dict):
        raise SchemeError("scheme file must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SchemeError("scheme 'name' must be a non-empty string")
    raw_levels = data.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise SchemeError("scheme 'levels' must be a non-empty array")
    levels = []
    for entry in raw_levels:
        if not isinstance(entry, dict):
            raise SchemeError("each level must be a JSON object")
        rank = entry.get("rank")
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise SchemeError("level 'rank' must be an integer")
        canonical = entry.get("canonicalName")
        if not isinstance(canonical, str) or not canonical:
            raise SchemeError("level 'canonicalName' must be a non-empty string")
        aliases = entry.get("aliases", [])
        if not isinstance(aliases, list) or any(not isinstance(a, str) or not a for a in aliases):
            raise SchemeError("level 'aliases' must be an array of non-empty strings")
        levels.append(ClassificationLevel(rank, canonical, tuple(aliases)))
    return ClassificationScheme(name=name, levels=tuple(levels))
