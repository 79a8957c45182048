"""Classification schemes: rank resolution, domination, and validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsa import (
    BUILTIN_SCHEME_NAMES,
    LevelNotFoundError,
    SchemeError,
    get_builtin_scheme,
    levels_up_to,
    load_scheme,
)

EXPECTED_LADDERS = {
    "default": ["PUBLIC", "INTERNAL", "CONFIDENTIAL", "RESTRICTED", "RESTRICTED-PLUS", "SCI"],
    "us-government": ["UNCLASSIFIED", "CUI", "CONFIDENTIAL", "SECRET", "TOP SECRET", "TS//SCI"],
    "healthcare-hipaa": ["PUBLIC", "INTERNAL", "PHI", "SENSITIVE-PHI", "RESEARCH-EMBARGOED"],
    "financial-services": ["PUBLIC", "INTERNAL", "CONFIDENTIAL", "MNPI"],
    "generic-3-tier": ["LOW", "MEDIUM", "HIGH"],
}


def test_builtin_names():
    assert tuple(BUILTIN_SCHEME_NAMES) == tuple(EXPECTED_LADDERS)
    assert [get_builtin_scheme(name).name for name in BUILTIN_SCHEME_NAMES] == list(EXPECTED_LADDERS)


@pytest.mark.parametrize("name", sorted(EXPECTED_LADDERS))
def test_builtin_ladders(name):
    scheme = get_builtin_scheme(name)
    assert [lv.canonical_name for lv in scheme.levels] == EXPECTED_LADDERS[name]
    assert [lv.rank for lv in scheme.levels] == list(range(len(scheme.levels)))


def test_default_aliases():
    scheme = get_builtin_scheme("default")
    assert scheme.resolve("CUI") == scheme.resolve("INTERNAL") == 1
    assert scheme.resolve("SECRET") == scheme.resolve("RESTRICTED") == 3


def test_resolution_is_case_insensitive():
    scheme = get_builtin_scheme("default")
    for name in ("restricted-plus", "Restricted-Plus", "RESTRICTED-PLUS", "cui", "Secret"):
        assert scheme.resolve(name) is not None


def test_resolve_unknown_returns_none():
    scheme = get_builtin_scheme("default")
    assert scheme.resolve("no-such-level") is None
    assert scheme.resolve("") is None


def test_meets_is_a_rank_comparison():
    scheme = get_builtin_scheme("default")
    assert scheme.meets("restricted-plus", "internal")
    assert scheme.meets("internal", "internal")
    assert not scheme.meets("internal", "restricted-plus")
    # aliases compare by resolved rank
    assert scheme.meets("SECRET", "confidential")
    assert scheme.meets("CUI", "internal") and scheme.meets("internal", "CUI")


def test_meets_unresolvable_name_raises_either_side():
    scheme = get_builtin_scheme("default")
    with pytest.raises(LevelNotFoundError):
        scheme.meets("made-up", "public")
    with pytest.raises(LevelNotFoundError):
        scheme.meets("public", "made-up")


def test_top_level():
    assert get_builtin_scheme("default").levels[-1].canonical_name == "SCI"
    assert get_builtin_scheme("generic-3-tier").levels[-1].canonical_name == "HIGH"


def test_levels_up_to():
    scheme = get_builtin_scheme("default")
    assert levels_up_to(scheme, "confidential") == ("PUBLIC", "INTERNAL", "CONFIDENTIAL")
    assert levels_up_to(scheme, "CUI") == ("PUBLIC", "INTERNAL")
    with pytest.raises(LevelNotFoundError):
        levels_up_to(scheme, "nope")


def _scheme_json(levels, name="custom", **extra):
    """The scheme file form that ``load_scheme`` reads."""
    return json.dumps(
        {
            "name": name,
            "levels": [
                {"rank": rank, "canonicalName": canonical, "aliases": list(aliases)}
                for rank, canonical, aliases in levels
            ],
            **extra,
        }
    )


def _scheme_file(scheme):
    return _scheme_json(
        [(level.rank, level.canonical_name, level.aliases) for level in scheme.levels],
        scheme.name,
    )


def test_load_custom_scheme_round_trip():
    raw = _scheme_json([(0, "BRONZE", ["B"]), (1, "SILVER", []), (2, "GOLD", ["AU"])])
    scheme = load_scheme(raw)
    assert scheme.resolve("au") == 2
    assert scheme.meets("GOLD", "b")
    again = load_scheme(_scheme_file(scheme))
    assert again == scheme


@pytest.mark.parametrize(
    "extra",
    [
        {"compartments": ["VAULT"], "markings": ["NO-EXPORT"]},
        {"compartments": 5, "markings": {"not": "a list"}},
    ],
)
def test_load_ignores_keys_outside_the_ladder(extra):
    levels = [(0, "BRONZE", ["B"]), (1, "GOLD", [])]
    assert load_scheme(_scheme_json(levels, **extra)) == load_scheme(_scheme_json(levels))


@pytest.mark.parametrize(
    "levels",
    [
        [(0, "A", []), (2, "B", [])],            # gap
        [(1, "A", []), (2, "B", [])],            # does not start at zero
        [(0, "A", []), (0, "B", [])],            # duplicate rank
        [(0, "A", []), (1, "a", [])],            # duplicate name modulo case
        [(0, "A", ["X"]), (1, "B", ["x"])],      # duplicate alias modulo case
        [(0, "A", ["b"]), (1, "B", [])],         # alias collides with a name
        [],                                       # empty ladder
    ],
)
def test_load_rejects_broken_ladders(levels):
    with pytest.raises(SchemeError):
        load_scheme(_scheme_json(levels))


def test_builtins_round_trip_through_loader():
    for name in BUILTIN_SCHEME_NAMES:
        scheme = get_builtin_scheme(name)
        assert load_scheme(_scheme_file(scheme)) == scheme


def test_load_rejects_malformed_json():
    with pytest.raises(SchemeError):
        load_scheme("not json")
    with pytest.raises(SchemeError):
        load_scheme('{"name":"x"}')


_scheme_names = st.sampled_from(tuple(EXPECTED_LADDERS))


def _spoken_forms(scheme):
    forms = []
    for level in scheme.levels:
        forms.append(level.canonical_name)
        forms.extend(level.aliases)
    return forms


@st.composite
def _scheme_and_two_names(draw):
    scheme = get_builtin_scheme(draw(_scheme_names))
    forms = _spoken_forms(scheme)
    a = draw(st.sampled_from(forms))
    b = draw(st.sampled_from(forms))
    casing = draw(st.sampled_from((str.lower, str.upper, str.title, lambda s: s)))
    return scheme, a, b, casing


@settings(max_examples=200, deadline=None)
@given(_scheme_and_two_names())
def test_meets_invariant_under_alias_and_case(case):
    scheme, a, b, casing = case
    plain = scheme.meets(a, b)
    assert scheme.meets(casing(a), casing(b)) == plain
    assert plain == (scheme.resolve(a) >= scheme.resolve(b))


@settings(max_examples=100, deadline=None)
@given(_scheme_and_two_names())
def test_meets_total_order_laws(case):
    scheme, a, b, _ = case
    assert scheme.meets(a, a)
    assert scheme.meets(a, b) or scheme.meets(b, a)
