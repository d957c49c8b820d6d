from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from steercert.boxworld import (
    GptAssemblage,
    GptState,
    box_to_json,
    chsh_value,
    joint_from_assemblage,
    load_box,
    mix_assemblages,
    prbox_assemblage,
    uniform_assemblage,
)
from steercert.errors import InputError

HALF = Fraction(1, 2)


def test_gpt_state_validation():
    table = {(0, 0): HALF, (0, 1): HALF, (1, 0): Fraction(1), (1, 1): Fraction(0)}
    s = GptState(2, 2, table)
    assert s.prob(1, 0) == 1
    with pytest.raises(InputError):
        GptState(2, 2, {**table, (0, 0): Fraction(3, 4)})  # row sums to 5/4
    with pytest.raises(InputError):
        GptState(2, 2, {**table, (0, 0): Fraction(-1, 2), (0, 1): Fraction(3, 2)})


def test_prbox_table_and_weights():
    asm = prbox_assemblage()
    for x in range(2):
        for a in range(2):
            assert asm.weight(x, a) == HALF
            state = asm.state(x, a)
            for y in range(2):
                for b in range(2):
                    expected = Fraction(1) if b == a ^ (x & y) else Fraction(0)
                    assert state.prob(y, b) == expected


def test_prbox_no_signalling_is_exact():
    report = prbox_assemblage().no_signalling
    assert report.passed and report.max_deviation == 0.0


def test_assemblage_rejects_signalling_entries():
    pr = prbox_assemblage()
    entries = dict(pr.entries)
    det0 = GptState(2, 2, {(y, b): Fraction(1) if b == 0 else Fraction(0) for y in range(2) for b in range(2)})
    entries[(1, 0)] = (HALF, det0)
    entries[(1, 1)] = (HALF, det0)  # marginal for x=1 now differs from x=0
    with pytest.raises(InputError):
        GptAssemblage(2, 2, entries)


def _uniform_state(y_settings, b_outcomes):
    table = {(y, b): Fraction(1, b_outcomes) for y in range(y_settings) for b in range(b_outcomes)}
    return GptState(y_settings, b_outcomes, table)


@pytest.mark.parametrize("first, second", [((2, 2), (3, 2)), ((3, 2), (2, 2)), ((2, 2), (2, 3)), ((2, 3), (2, 2))])
def test_assemblage_rejects_mixed_table_shapes(first, second):
    # the two outcomes of one setting carry tables over different Bob inputs or outputs
    entries = {(0, 0): (HALF, _uniform_state(*first)), (0, 1): (HALF, _uniform_state(*second))}
    with pytest.raises(InputError, match=r"^entry \(x=0, a=1\) has"):
        GptAssemblage(1, 2, entries)


def test_assemblage_table_holds_the_subnormalised_entries_in_order():
    asm = mix_assemblages(Fraction(1, 3), prbox_assemblage(), uniform_assemblage(2, 2, 2, 2))
    keys = list(itertools.product(range(2), repeat=4))
    assert list(asm.table) == keys
    assert all(asm.table[x, a, y, b] == asm.weight(x, a) * asm.state(x, a).prob(y, b) for x, a, y, b in keys)


def test_chsh_values_exact():
    assert chsh_value(joint_from_assemblage(prbox_assemblage())) == 4
    assert chsh_value(joint_from_assemblage(uniform_assemblage())) == 0
    for lam in (Fraction(1, 4), HALF, Fraction(7, 8)):
        mixed = mix_assemblages(lam, prbox_assemblage(), uniform_assemblage())
        assert chsh_value(joint_from_assemblage(mixed)) == 4 * lam


def test_chsh_requires_normalized_slices():
    joint = joint_from_assemblage(prbox_assemblage())
    joint[(0, 0, 0, 0)] += Fraction(1, 8)
    with pytest.raises(InputError):
        chsh_value(joint)
    # a float entry is not an exact rational
    joint = joint_from_assemblage(prbox_assemblage())
    joint[(0, 0, 0, 0)] = 0.5
    with pytest.raises(InputError, match="exact rational"):
        chsh_value(joint)


def test_box_json_round_trip_is_exact():
    asm = mix_assemblages(Fraction(257, 512), prbox_assemblage(), uniform_assemblage())
    doc = box_to_json(asm)
    back = load_box(doc)
    for key, (weight, state) in asm.entries.items():
        w2, s2 = back.entries[key]
        assert w2 == weight
        assert s2.table == state.table


def test_load_box_errors():
    doc = box_to_json(prbox_assemblage())
    broken = {k: v for k, v in doc.items() if k != "y_settings"}
    with pytest.raises(InputError):
        load_box(broken)
    doc2 = box_to_json(prbox_assemblage())
    doc2["entries"][0][0]["weight"] = "x/y"
    with pytest.raises(InputError):
        load_box(doc2)


def test_mix_assemblages_rejects_bad_weight():
    with pytest.raises(InputError):
        mix_assemblages(Fraction(3, 2), prbox_assemblage(), uniform_assemblage())


@pytest.mark.parametrize(
    "text, want",
    [
        ("3", "p(a=0|x=0) = 3 is outside [0, 1]"),
        ("007/10", Fraction(7, 10)),
        (" 1/2", HALF),
        ("+1/2", HALF),
        ("-1/2", "p(a=0|x=0) = -1/2 is outside [0, 1]"),
        ("1/0", "not a rational number: '1/0'"),
        ("0/0", "not a rational number: '0/0'"),
        ("1.5", "p(a=0|x=0) = 3/2 is outside [0, 1]"),
        ("\u00b2/3", "not a rational number: '\u00b2/3'"),
        ("1_0/20", HALF),
        ("\u0663/4", Fraction(3, 4)),
        ("1/", "not a rational number: '1/'"),
        ("/2", "not a rational number: '/2'"),
        ("", "not a rational number: ''"),
    ],
)
def test_load_box_reads_probability_strings(text, want):
    # parse_rational reads plain ASCII "digits/digits" with int(); every
    # other string must load, or fail, as the Fraction constructor has it
    comp = "1/2" if isinstance(want, str) else str(1 - want)
    doc = {
        "x_settings": 1, "a_outcomes": 2, "y_settings": 1, "b_outcomes": 1,
        "entries": [[{"weight": text, "table": [["1/1"]]}, {"weight": comp, "table": [["1"]]}]],
    }
    if isinstance(want, str):
        with pytest.raises(InputError) as exc:
            load_box(doc)
        assert str(exc.value) == want
    else:
        weight = load_box(doc).weight(0, 0)
        assert type(weight) is Fraction and weight == want


def test_load_box_digit_strings_beyond_the_int_limit_fail_as_fraction_does():
    text = "1" * 5000 + "/3"
    try:
        value = Fraction(text)
    except ValueError:
        want = f"not a rational number: {text!r}"
    else:
        want = f"p(a=0|x=0) = {value} is outside [0, 1]"
    doc = {
        "x_settings": 1, "a_outcomes": 2, "y_settings": 1, "b_outcomes": 1,
        "entries": [[{"weight": text, "table": [["1"]]}, {"weight": "0", "table": [["1"]]}]],
    }
    with pytest.raises(InputError) as exc:
        load_box(doc)
    assert str(exc.value) == want


def test_assemblage_counts_share_one_least_denominator():
    asm = mix_assemblages(Fraction(1, 3), prbox_assemblage(), uniform_assemblage(2, 2, 2, 2))
    table = asm.table
    assert asm.den == math.lcm(*(v.denominator for v in table.values()))
    assert all(type(c) is int for c in asm.counts)
    assert [Fraction(c, asm.den) for c in asm.counts] == list(table.values())
