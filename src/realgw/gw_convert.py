"""Triangular transforms between GW-invariants and enumerative counts, plus
CSV/Markdown ingestion and emission of the bundled invariant tables.

Both transforms are lower triangular with unit diagonal in the genus:

* real flavor:     GW_g = sum over h <= g with g - h even of
                   coeff_real(h, 4d, (g-h)/2) * E_h,
* complex flavor:  GW_g = sum over h <= g of coeff_cx(h, 4d, g-h) * E_h,

so each is inverted by back substitution.  Both directions build one kernel
series per (h, d), through the table's top genus, and read every
coefficient of that exponent off it, so no coefficient is computed by its
own kernel power.  Real tables obey the parity rule:
entries vanish whenever d - g is even, and such missing entries may be
treated as implied zeros.  Both transforms reject a real table with a
nonzero entry of that parity (``ValueError``).  All other missing
lower-genus entries are errors (``KeyError``).

The bundled data files (one per table, the complex and the real invariants of
projective 3-space with point constraints, degrees 1..8) each hold a GW
section and an E section; the real GW values for degrees 5..8 come from the
localization computations delegated to a companion work and are shipped as
data, not recomputed here.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_arith import Record
from .series_ids import _kernel

FLAVORS = ("real", "complex")
KINDS = ("GW", "E")


class InvariantTable(Record):
    """A (genus, degree) -> exact value grid of one flavor and kind."""

    __slots__ = ("flavor", "kind", "entries")

    def __init__(
        self,
        flavor: str,
        kind: str,
        entries: dict[tuple[int, int], Fraction] | None = None,
    ) -> None:
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.flavor = flavor
        self.kind = kind
        self.entries = {} if entries is None else entries

    def genera(self) -> list[int]:
        return sorted({g for g, _ in self.entries})

    def value(self, genus: int, degree: int) -> Fraction:
        """Entry lookup; real-flavor entries forced to zero by parity are
        implied rather than required.  A key with genus < 0 or degree < 1
        is never an entry and raises ``KeyError`` like a missing one."""
        key = (genus, degree)
        if key in self.entries:
            return self.entries[key]
        if self.flavor == "real" and genus >= 0 and degree >= 1 and (degree - genus) % 2 == 0:
            return Fraction(0)
        raise KeyError(f"missing {self.flavor} {self.kind} entry at g={genus}, d={degree}")


def _lower_terms(table: InvariantTable):
    """Each entry (g, d) of the table in genus order, with the pairs (h,
    coefficient of E_h in GW_g) over its lower genera h.

    One kernel series per (h, d), built through the table's top genus, is
    read for every g."""
    # GW_g takes E_h times the t^(g-h) coefficient of the real kernel of
    # (h, 4d), or the t^(2(g-h)) coefficient of the complex one.
    step, width = (2, 1) if table.flavor == "real" else (1, 2)
    top = max((g for g, _ in table.entries), default=0)
    for g, d in sorted(table.entries):
        terms = []
        for h in range(g - step, -1, -step):
            kernel = _kernel(table.flavor, h, 4 * d, width * (top - h))
            terms.append((h, kernel[width * (g - h)]))
        yield g, d, terms


def gw_from_e(table: InvariantTable) -> InvariantTable:
    """Forward transform: GW from enumerative counts, genus by genus."""
    if table.kind != "E":
        raise ValueError("gw_from_e expects an E table")
    _check_parity(table)
    out = InvariantTable(table.flavor, "GW")
    for g, d, terms in _lower_terms(table):
        total = table.value(g, d)
        for h, c in terms:
            total += c * table.value(h, d)
        out.entries[(g, d)] = total
    return out


def e_from_gw(table: InvariantTable) -> InvariantTable:
    """Inverse transform: strip lower-genus contributions off GW entries.

    Solves the unit-diagonal triangular system downward in the genus; all
    lower-genus GW entries of the correct parity must be present (or implied
    zero by the real parity rule), and a missing one raises ``KeyError``
    naming that GW entry.  A real table that breaks the parity rule raises
    ``ValueError`` naming the offending entries.
    """
    if table.kind != "GW":
        raise ValueError("e_from_gw expects a GW table")
    _check_parity(table)
    out = InvariantTable(table.flavor, "E")
    for g, d, terms in _lower_terms(table):
        value = table.value(g, d)
        for h, c in terms:
            # E(h, d) exists exactly when GW(h, d) does; the input lookup
            # names the entry the user has to supply.
            table.value(h, d)
            value -= c * out.value(h, d)
        out.entries[(g, d)] = value
    return out


def parity_check(table: InvariantTable) -> list[tuple[int, int, Fraction]]:
    """Real-flavor sanity check: nonzero entries with d - g even are flagged."""
    if table.flavor != "real":
        raise ValueError("parity_check applies to real tables")
    return [
        (g, d, v)
        for (g, d), v in sorted(table.entries.items())
        if (d - g) % 2 == 0 and v != 0
    ]


def _check_parity(table: InvariantTable) -> None:
    bad = parity_check(table) if table.flavor == "real" else []
    if bad:
        entries = "; ".join(f"g={g} d={d}: {v}" for g, d, v in bad)
        raise ValueError(
            f"real {table.kind} entries with d - g even must be 0: {entries}"
        )


def integrality_check(table: InvariantTable) -> list[tuple[int, int, Fraction]]:
    """Enumerative counts must be integers; returns offending entries."""
    if table.kind != "E":
        raise ValueError("integrality_check applies to E tables")
    return [
        (g, d, v)
        for (g, d), v in sorted(table.entries.items())
        if v.denominator != 1
    ]


# ---------------------------------------------------------------------------
# CSV and Markdown encoding
#
# A table section is a header line "<flavor>,<kind>" followed by rows
# "genus,degree,value" with the value a plain integer or p/q rational.
# A file may concatenate several sections (the bundled files hold GW then E).
# ---------------------------------------------------------------------------


def emit_table(table: InvariantTable, format: str = "csv") -> str:
    if format == "csv":
        lines = [f"{table.flavor},{table.kind}"]
        for g, d in sorted(table.entries):
            lines.append(f"{g},{d},{table.entries[(g, d)]}")
        return "\n".join(lines) + "\n"
    if format == "markdown":
        return _emit_markdown([table])
    raise ValueError(f"unknown format {format!r}")


def emit_tables(tables: list[InvariantTable], format: str = "csv") -> str:
    if format == "markdown":
        return _emit_markdown(tables)
    return "".join(emit_table(t, format) for t in tables)


def _emit_markdown(tables: list[InvariantTable]) -> str:
    """Markdown mirror of the bundled tables: degrees as columns, one row per
    (kind, genus).  A (genus, degree) cell without an entry, other than a
    parity-implied real zero, is left empty."""
    degrees = sorted({d for t in tables for _, d in t.entries})
    lines = ["| d | " + " | ".join(str(d) for d in degrees) + " |"]
    lines.append("|" + "---|" * (len(degrees) + 1))
    for t in tables:
        suffix = "^phi" if t.flavor == "real" else ""
        for g in t.genera():
            cells = [_markdown_cell(t, g, d) for d in degrees]
            lines.append(f"| {t.kind}{suffix}[{g},d] | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _markdown_cell(table: InvariantTable, genus: int, degree: int) -> str:
    try:
        return str(table.value(genus, degree))
    except KeyError:
        return ""


class TableParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_tables(text: str) -> list[InvariantTable]:
    """Parse one or more concatenated table sections."""
    tables: list[InvariantTable] = []
    current: InvariantTable | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if not fields[0].lstrip("-").isdigit():
            if len(fields) != 2:
                raise TableParseError(line_no, f"malformed header {line!r}")
            flavor, kind = fields[0].strip(), fields[1].strip()
            if flavor not in FLAVORS or kind not in KINDS:
                raise TableParseError(line_no, f"unknown flavor/kind {line!r}")
            current = InvariantTable(flavor, kind)
            tables.append(current)
            continue
        if current is None:
            raise TableParseError(line_no, "data row before the flavor,kind header")
        if len(fields) != 3:
            raise TableParseError(line_no, f"expected genus,degree,value, got {line!r}")
        try:
            g, d = int(fields[0]), int(fields[1])
            value = Fraction(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise TableParseError(line_no, str(exc)) from exc
        if g < 0 or d < 1:
            raise TableParseError(line_no, f"need genus >= 0 and degree >= 1, got {line!r}")
        if (g, d) in current.entries:
            raise TableParseError(line_no, f"duplicate entry g={g}, d={d}")
        current.entries[(g, d)] = value
    return tables


def load_tables(path) -> list[InvariantTable]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tables(fh.read())


def load_table(path, kind: str | None = None) -> InvariantTable:
    """Load a single table; for multi-section files, select by kind."""
    tables = load_tables(path)
    if kind is not None:
        matches = [t for t in tables if t.kind == kind]
        if len(matches) != 1:
            raise ValueError(f"{path}: expected exactly one {kind} section")
        return matches[0]
    if len(tables) != 1:
        raise ValueError(
            f"{path}: file has {len(tables)} sections; pass kind= or use load_tables"
        )
    return tables[0]


_BUNDLED = {1: "table1_complex.csv", 2: "table2_real.csv"}


def bundled_text(which: int) -> str:
    """Raw text of a bundled invariant table file (1 complex, 2 real)."""
    # Imported here: importlib.resources is a large share of the package's
    # cold import time, and only the bundled tables need it.
    from importlib import resources

    name = _BUNDLED[which]
    return (resources.files("realgw.data") / name).read_text(encoding="utf-8")


def bundled_tables(which: int) -> list[InvariantTable]:
    """The bundled GW and E tables (1 complex, 2 real)."""
    return parse_tables(bundled_text(which))


def bundled_table(which: int, kind: str) -> InvariantTable:
    for t in bundled_tables(which):
        if t.kind == kind:
            return t
    raise ValueError(f"no {kind} section in bundled table {which}")
