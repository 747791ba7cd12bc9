"""Tests for the GW <-> enumerative transforms and table IO."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realgw.gw_convert import (
    InvariantTable,
    TableParseError,
    bundled_table,
    bundled_tables,
    bundled_text,
    e_from_gw,
    emit_table,
    emit_tables,
    gw_from_e,
    integrality_check,
    load_table,
    load_tables,
    parity_check,
    parse_tables,
)


def table_from(flavor, kind, entries):
    t = InvariantTable(flavor, kind)
    t.entries.update({k: Fraction(v) for k, v in entries.items()})
    return t


def test_invariant_table_value_semantics():
    # Equal by value, unhashable since mutable, and each table gets its own
    # entries dict; an unknown flavor or kind raises.
    a, b = InvariantTable("real", "GW"), InvariantTable("real", "GW")
    assert a == b and a.entries == {} and a.entries is not b.entries
    a.entries[(0, 1)] = Fraction(1)
    assert a != b and a == InvariantTable("real", "GW", {(0, 1): Fraction(1)})
    assert a != InvariantTable("complex", "GW", {(0, 1): Fraction(1)})
    assert repr(b) == "InvariantTable(flavor='real', kind='GW', entries={})"
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(ValueError, match="unknown flavor"):
        InvariantTable("imaginary", "GW")
    with pytest.raises(ValueError, match="unknown kind"):
        InvariantTable("real", "F")


# -- worked conversions ----------------------------------------------------------


def test_real_degree7_column():
    gw = table_from(
        "real",
        "GW",
        {(0, 7): -85, (2, 7): Fraction(-1345, 24), (4, 7): Fraction(-2475, 128)},
    )
    e = e_from_gw(gw)
    assert e.entries == {(0, 7): -85, (2, 7): -10, (4, 7): -1}


def test_real_degree8_column():
    gw = table_from(
        "real",
        "GW",
        {(1, 8): -1000, (3, 8): Fraction(-2840, 3), (5, 8): Fraction(-1400, 3)},
    )
    e = e_from_gw(gw)
    assert e.entries == {(1, 8): -1000, (3, 8): -280, (5, 8): -40}


def test_real_degree4_forward():
    e = table_from("real", "E", {(1, 4): -1, (3, 4): 0, (5, 4): 0})
    gw = gw_from_e(e)
    assert gw.entries[(3, 4)] == Fraction(-1, 3)
    assert gw.entries[(5, 4)] == Fraction(-19, 360)


def test_real_degree3_forward():
    e = table_from("real", "E", {(0, 3): -1, (2, 3): 0, (4, 3): 0})
    gw = gw_from_e(e)
    assert gw.entries[(2, 3)] == Fraction(-5, 24)
    assert gw.entries[(4, 3)] == Fraction(-23, 1152)


def test_complex_degree1_forward():
    e = table_from("complex", "E", {(0, 1): 1, (1, 1): 0, (2, 1): 0, (3, 1): 0})
    gw = gw_from_e(e)
    assert gw.entries[(1, 1)] == Fraction(-1, 12)
    assert gw.entries[(2, 1)] == Fraction(1, 360)
    assert gw.entries[(3, 1)] == Fraction(-1, 20160)


def test_minimal_genus_fixed_point():
    e = table_from("real", "E", {(1, 4): -7})
    assert gw_from_e(e).entries[(1, 4)] == -7
    gw = table_from("complex", "GW", {(0, 5): 105})
    assert e_from_gw(gw).entries[(0, 5)] == 105


def test_round_trip_on_random_tables():
    rng = random.Random(43)
    for flavor in ("real", "complex"):
        t = InvariantTable(flavor, "E")
        for d in (1, 3, 4):
            for g in range(6):
                if flavor == "real" and (d - g) % 2 == 0:
                    continue
                t.entries[(g, d)] = Fraction(rng.randint(-50, 50), rng.randint(1, 6))
        back = e_from_gw(gw_from_e(t))
        assert back.entries == t.entries
        # and the other composition
        gw = gw_from_e(t)
        assert gw_from_e(e_from_gw(gw)).entries == gw.entries


@st.composite
def gw_tables(draw):
    """A GW table with every entry the inverse transform needs: for each
    degree, all genera up to a bound (only d - g odd in the real flavor,
    whose other entries are implied zeros)."""
    flavor = draw(st.sampled_from(("real", "complex")))
    t = InvariantTable(flavor, "GW")
    for d in draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)):
        for g in range(draw(st.integers(0, 6)) + 1):
            if flavor == "real" and (d - g) % 2 == 0:
                continue
            t.entries[(g, d)] = Fraction(
                draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**4))
            )
    return t


@settings(max_examples=100, deadline=None, database=None)
@given(gw_tables())
def test_round_trip_property(t):
    back = gw_from_e(e_from_gw(t))
    assert (back.flavor, back.kind) == (t.flavor, t.kind)
    assert back.entries == t.entries


def test_real_transform_never_mixes_parities():
    base = table_from(
        "real", "GW", {(g, 5): Fraction(1, g + 1) for g in (0, 2, 4)}
    )
    perturbed = table_from("real", "GW", dict(base.entries))
    perturbed.entries[(2, 5)] += 7
    e0, e1 = e_from_gw(base), e_from_gw(perturbed)
    assert e0.entries[(0, 5)] == e1.entries[(0, 5)]
    assert e0.entries[(2, 5)] != e1.entries[(2, 5)]
    assert e0.entries[(4, 5)] != e1.entries[(4, 5)]
    # odd genera of the other parity are untouched (implied zeros)
    assert e1.value(1, 5) == 0


def test_missing_lower_genus_entry_is_error():
    gw = table_from("complex", "GW", {(2, 3): Fraction(1, 12)})
    with pytest.raises(KeyError):
        e_from_gw(gw)


def test_parity_rule_implies_zeros():
    gw = table_from("real", "GW", {(2, 1): Fraction(1, 24)})
    # g=0 entry is implied by parity? no: d-g = 1 odd, so it is required
    with pytest.raises(KeyError):
        e_from_gw(gw)
    gw2 = table_from("real", "GW", {(3, 4): Fraction(-1, 3), (1, 4): -1})
    assert e_from_gw(gw2).entries[(3, 4)] == 0


@pytest.mark.parametrize("key", [(-1, 5), (0, 0), (3, -1)])
def test_value_rejects_keys_outside_the_range(key):
    # d - g is even for each key, but genus < 0 or degree < 1 is never an
    # entry, so the parity rule implies no zero there.
    with pytest.raises(KeyError, match="missing real GW entry"):
        bundled_table(2, "GW").value(*key)


@pytest.mark.parametrize("kind, transform", [("GW", e_from_gw), ("E", gw_from_e)])
def test_transforms_reject_real_parity_violation(kind, transform):
    t = table_from("real", kind, {(0, 1): 1, (1, 1): Fraction(1, 2), (3, 1): 5})
    with pytest.raises(ValueError, match=f"real {kind} entries with d - g even"
                       r" must be 0: g=1 d=1: 1/2; g=3 d=1: 5$"):
        transform(t)


@pytest.mark.parametrize(
    "kind, check, message",
    [
        ("E", e_from_gw, "e_from_gw expects a GW table"),
        ("GW", gw_from_e, "gw_from_e expects an E table"),
        ("GW", integrality_check, "integrality_check applies to E tables"),
    ],
    ids=["e_from_gw", "gw_from_e", "integrality_check"],
)
def test_kind_mismatch_is_rejected(kind, check, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(table_from("real", kind, {(0, 1): 1}))


def test_parity_check_flags_bad_entries():
    ok = bundled_table(2, "GW")
    assert parity_check(ok) == []
    bad = table_from("real", "GW", {(1, 1): 5})
    assert parity_check(bad) == [(1, 1, 5)]
    with pytest.raises(ValueError):
        parity_check(bundled_table(1, "GW"))


def test_integrality_check():
    assert integrality_check(bundled_table(1, "E")) == []
    bad = table_from("complex", "E", {(0, 1): Fraction(1, 2)})
    assert integrality_check(bad) == [(0, 1, Fraction(1, 2))]


# -- bundled data -----------------------------------------------------------------


def test_bundled_tables_reproduce_each_other():
    for which in (1, 2):
        gw, e = bundled_tables(which)
        assert e_from_gw(gw).entries == e.entries
        assert gw_from_e(e).entries == gw.entries


def test_bundled_spot_values():
    t1e = bundled_table(1, "E")
    assert t1e.entries[(3, 6)] == 11
    assert t1e.entries[(4, 8)] == 980100
    t2e = bundled_table(2, "E")
    assert t2e.entries[(2, 7)] == -10
    assert t2e.entries[(5, 8)] == -40
    t2gw = bundled_table(2, "GW")
    assert t2gw.entries[(2, 3)] == Fraction(-5, 24)


def _p3_genus0(max_degree):
    """Genus-0 invariants N[d, b] = <(H^2)^a (H^3)^b>_(0,d) of P^3, lines
    and points, a = 4d - 2b, for d <= max_degree, by the WDVV equations
    (Kontsevich and Manin, 1994).

    With T_e = H^e, the potential is the classical cubic, whose third
    derivatives are Phi_ijk = [i + j + k = 3], plus
    Gamma = sum N_d(a, b) t2^a t3^b / (a! b!) e^(d t1), so a derivative by t1
    gives a factor d, by t2 or t3 shifts a or b, and one by t0 gives 0.
    WDVV reads sum_e Phi_ije Phi_(3-e)kl = sum_e Phi_ike Phi_(3-e)jl with
    the metric g^(ef) = [e + f = 3].  Its terms of one classical and one
    Gamma factor are Gamma_((i+j)kl) + Gamma_(ij(k+l)), an index above 3
    giving none, so the index tuples (1,1,2,2) and (1,1,2,3) read, at the
    coefficient of e^(d t1) t2^A t3^B / (A! B!),

        N_d(A+3, B) - 2d N_d(A+1, B+1) + w1 = 0,
        N_d(A+2, B+1) - d N_d(A, B+2) + w2 = 0,

    w1 and w2 the products of two Gamma factors, of lower degrees.  So with
    x(b) = N_d(4d - 2b, b): x(b) - 2d x(b+1) = -w1 for b <= 2d - 2 and
    x(b) - d x(b+1) = -w2 for 1 <= b <= 2d - 1.  Both together give
    x(2) .. x(2d-1); then the second gives x(2d) from x(2d-1), seeded by
    one line through two points at d = 1, and x(1), and the first x(0).
    """
    N = {}

    def gamma(idx, d, a, b):
        # The coefficient of e^(d t1) t2^a t3^b / (a! b!) in Gamma_idx.
        a, b = a + idx.count(2), b + idx.count(3)
        if 0 in idx or a < 0 or a + 2 * b != 4 * d:
            return 0
        return d ** idx.count(1) * N[d, b]

    def products(i, j, k, l, d, a, b):
        # sum_e Gamma_ije Gamma_(3-e)kl at (d, a, b), both degrees positive.
        total = 0
        for d1 in range(1, d):
            for b1 in range(b + 1):
                for e in range(4):
                    left = (i, j, e)
                    a1 = 4 * d1 - 2 * (b1 + left.count(3)) - left.count(2)
                    if 0 <= a1 <= a:
                        total += (
                            math.comb(a, a1)
                            * math.comb(b, b1)
                            * gamma(left, d1, a1, b1)
                            * gamma((3 - e, k, l), d - d1, a - a1, b - b1)
                        )
        return total

    def w1(d, b):
        a = 4 * d - 2 * b - 3
        return products(1, 1, 2, 2, d, a, b) - products(1, 2, 1, 2, d, a, b)

    def w2(d, b):
        a = 4 * d - 2 * b - 2
        return products(1, 1, 2, 3, d, a, b - 1) - products(1, 2, 1, 3, d, a, b - 1)

    for d in range(1, max_degree + 1):
        for b in range(1, 2 * d - 1):
            N[d, b + 1] = Fraction(w1(d, b) - w2(d, b), d)
        N[d, 2 * d] = 1 if d == 1 else (N[d, 2 * d - 1] + w2(d, 2 * d - 1)) / d
        N[d, 1] = d * N[d, 2] - w2(d, 1)
        N[d, 0] = 2 * d * N[d, 1] - w1(d, 0)
    return N


def test_bundled_complex_genus0_row_by_wdvv():
    # An oracle that shares no code with the package: the bundled complex
    # genus-0 row counts rational curves through 2d points, and WDVV gives
    # it from one seed.  The counts of curves meeting 4d lines come out on
    # the way: 2 lines, 92 conics, 80,160 twisted cubics.
    N = _p3_genus0(8)
    assert all(v.denominator == 1 for v in N.values())
    row = [1, 0, 1, 4, 105, 2576, 122129, 7397760]
    assert [N[d, 2 * d] for d in range(1, 9)] == row
    assert [bundled_table(1, "GW").value(0, d) for d in range(1, 9)] == row
    assert (N[1, 0], N[2, 0], N[3, 0]) == (2, 92, 80160)


# -- encoding ---------------------------------------------------------------------


def test_csv_round_trip_is_byte_identical():
    for which in (1, 2):
        text = bundled_text(which)
        assert emit_tables(parse_tables(text)) == text


def test_rational_parsing():
    (t,) = parse_tables("real,GW\n2,1,1/24\n")
    assert t.entries[(2, 1)] == Fraction(1, 24)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TableParseError) as err:
        parse_tables("real,GW\n1,2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(TableParseError):
        parse_tables("0,1,5\n")
    with pytest.raises(TableParseError):
        parse_tables("real,GW\n0,1,5\n0,1,6\n")
    with pytest.raises(TableParseError):
        parse_tables("purple,GW\n")
    with pytest.raises(TableParseError) as err:
        parse_tables("real,GW\n0,1,five\n")
    assert "line 2" in str(err.value)
    with pytest.raises(TableParseError) as err:
        parse_tables("real,GW\n0,1,5\nreal,GW,E\n")
    assert "line 3" in str(err.value) and "malformed header" in str(err.value)


@pytest.mark.parametrize("row", ["-1,1,1", "0,0,1", "1,-1,0"])
def test_rows_outside_the_genus_degree_range_are_rejected(row):
    with pytest.raises(TableParseError) as err:
        parse_tables(f"real,GW\n0,1,1\n{row}\n")
    assert "line 3" in str(err.value)


def test_load_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"real,GW\n0,1,\xff\n")
    with pytest.raises(UnicodeDecodeError):
        load_tables(path)


def test_load_single_and_multi_section(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("real,GW\n0,1,1\n", encoding="utf-8")
    assert load_table(path).entries == {(0, 1): 1}
    multi = tmp_path / "m.csv"
    multi.write_text("real,GW\n0,1,1\nreal,E\n0,1,1\n", encoding="utf-8")
    assert len(load_tables(multi)) == 2
    assert load_table(multi, kind="E").kind == "E"
    with pytest.raises(ValueError):
        load_table(multi)
    twice = tmp_path / "twice.csv"
    twice.write_text("real,GW\n0,1,1\nreal,GW\n0,1,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected exactly one E section"):
        load_table(path, kind="E")
    with pytest.raises(ValueError, match="expected exactly one GW section"):
        load_table(twice, kind="GW")


def test_bundled_table_rejects_unknown_kind():
    with pytest.raises(ValueError, match="no X section"):
        bundled_table(2, "X")


def test_markdown_layout():
    md = emit_table(table_from("real", "GW", {(0, 1): 1, (0, 2): 0}), "markdown")
    lines = md.splitlines()
    assert lines[0] == "| d | 1 | 2 |"
    assert lines[2] == "| GW^phi[0,d] | 1 | 0 |"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_table(bundled_table(1, "E"), "tsv")
