"""Exact spectral tables for constant-field Landau operators on closed
surfaces of constant curvature.

All arithmetic is in Fractions.  The area enters as a rational multiple of pi,
so the field strength B = 2*pi*degree/area and the curvature-like constant
S = 2*pi*(2-2*genus)/area are rational and every table entry is exact.

Validity is tracked row by row: the eigenvalue formula for level m needs
B + m*S > 0, and the multiplicity formula for that level needs
B + (m+1)*S > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .dimensions import dim_surface


@dataclass(frozen=True)
class SurfaceGeometry:
    """Closed oriented surface with constant curvature and a constant-field
    line bundle of integer degree."""

    genus: int
    degree: int
    area_over_pi: Fraction = Fraction(4)

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.area_over_pi <= 0:
            raise ValueError("area must be positive")
        object.__setattr__(self, "area_over_pi", Fraction(self.area_over_pi))

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus

    @property
    def B(self) -> Fraction:
        """Field strength 2*pi*degree/area."""
        return Fraction(2 * self.degree) / self.area_over_pi

    @property
    def S(self) -> Fraction:
        """Constant with S*area = 2*pi*chi."""
        return Fraction(2 * self.chi) / self.area_over_pi

    @classmethod
    def from_field(cls, genus: int, B, area_over_pi=Fraction(4)) -> "SurfaceGeometry":
        """Build from the field strength; the implied degree must be an integer."""
        B = Fraction(B)
        area_over_pi = Fraction(area_over_pi)
        d = B * area_over_pi / 2
        if d.denominator != 1:
            raise ValueError("B*area/(2*pi) = %s is not an integer" % d)
        return cls(genus, int(d), area_over_pi)


@dataclass
class SpectrumRow:
    m: int
    eigenvalue: Fraction
    multiplicity: int | None
    eigenvalue_valid: bool
    multiplicity_valid: bool
    flag: str = "interior"

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "eigenvalue": str(self.eigenvalue),
            "eigenvalue_float": float(self.eigenvalue),
            "multiplicity": self.multiplicity,
            "eigenvalue_valid": self.eigenvalue_valid,
            "multiplicity_valid": self.multiplicity_valid,
            "flag": self.flag,
        }


@dataclass
class SpectrumTable:
    geometry: SurfaceGeometry
    rows: list[SpectrumRow] = field(default_factory=list)
    stop_reason: str = ""

    def to_dict(self) -> dict:
        return {
            "genus": self.geometry.genus,
            "degree": self.geometry.degree,
            "area_over_pi": str(self.geometry.area_over_pi),
            "B": str(self.geometry.B),
            "S": str(self.geometry.S),
            "rows": [r.to_dict() for r in self.rows],
            "stop_reason": self.stop_reason,
        }


def landau_eigenvalue(geom: SurfaceGeometry, m: int) -> Fraction:
    """Level-m eigenvalue B*(1/2 + m) + S*m*(m+1)/2."""
    return geom.B * (Fraction(1, 2) + m) + geom.S * Fraction(m * (m + 1), 2)


def landau_multiplicity(geom: SurfaceGeometry, m: int):
    """Level-m multiplicity degree + (m + 1/2)*chi, the Riemann-Roch count
    of dimensions.dim_surface at k = 1, or None with a reason when the level
    sits outside the Landau regime.  B and S share the factor 2*pi/area, so
    B + (m+1)S > 0 is the count's condition degree + (m+1)*chi > 0."""
    count = dim_surface(1, geom.degree, geom.genus, m)
    if not count.threshold_ok:
        return None, "outside Landau regime (B + (m+1)S <= 0)"
    return count.value, ""


def landau_spectrum(geom: SurfaceGeometry, levels: int) -> SpectrumTable:
    """Rows m = 0, 1, ... while the strict validity condition B + m*S > 0
    holds, up to the requested number of levels."""
    table = SpectrumTable(geom)
    for m in range(levels):
        if geom.B + m * geom.S <= 0:
            table.stop_reason = ("validity lost at m=%d: B + mS = %s <= 0"
                                 % (m, geom.B + m * geom.S))
            break
        mult, _ = landau_multiplicity(geom, m)
        table.rows.append(SpectrumRow(
            m=m,
            eigenvalue=landau_eigenvalue(geom, m),
            multiplicity=mult,
            eigenvalue_valid=True,
            multiplicity_valid=mult is not None,
        ))
    else:
        table.stop_reason = "requested levels exhausted"
    return table


def weitzenbock_iterate(geom: SurfaceGeometry, max_steps: int) -> SpectrumTable:
    """Executable form of the twist-and-shift induction.

    Maintains (B_m, d_m) with B_{m+1} = B_m + S and d_{m+1} = d_m + chi.
    A row is emitted while B_m > 0; the boundary case B_m = 0 is emitted once,
    flagged, with unknown multiplicity, and the iteration then stops.
    """
    table = SpectrumTable(geom)
    B, S, chi = geom.B, geom.S, geom.chi
    lam = Fraction(0)
    for m in range(max_steps):
        Bm = B + m * S
        if Bm < 0:
            table.stop_reason = "positivity lost at step m=%d (B + mS = %s)" % (m, Bm)
            return table
        if m == 0:
            lam = B / 2
        else:
            lam = lam + (B + m * S)
        if Bm == 0:
            table.rows.append(SpectrumRow(
                m=m, eigenvalue=lam, multiplicity=None,
                eigenvalue_valid=False, multiplicity_valid=False,
                flag="boundary"))
            table.stop_reason = ("boundary reached at step m=%d (B + mS = 0); "
                                 "rows beyond are outside the regime" % m)
            return table
        mult, _ = landau_multiplicity(geom, m)
        table.rows.append(SpectrumRow(
            m=m, eigenvalue=lam, multiplicity=mult,
            eigenvalue_valid=True, multiplicity_valid=mult is not None))
    if chi >= 0:
        table.stop_reason = ("max steps reached; with chi >= 0 the iteration "
                             "continues indefinitely")
    else:
        table.stop_reason = "max steps reached"
    return table


def sphere_crosscheck(degree: int, max_level: int = 5) -> dict:
    """Compare the surface table on the round sphere (area 4*pi) against the
    directly known charge-q = degree/2 values: eigenvalue
    ((q+m)(q+m+1) - q^2)/2 with multiplicity degree + 2m + 1."""
    if not 1 <= degree <= 20:
        raise ValueError("degree must be between 1 and 20")
    if max_level > 5:
        raise ValueError("cross-check covers levels up to 5")
    q = Fraction(degree, 2)
    geom = SurfaceGeometry(genus=0, degree=degree)
    rows = []
    all_match = True
    for m in range(max_level + 1):
        table_val = landau_eigenvalue(geom, m)
        table_mult, _ = landau_multiplicity(geom, m)
        direct_val = ((q + m) * (q + m + 1) - q * q) / 2
        direct_mult = degree + 2 * m + 1
        ok = table_val == direct_val and table_mult == direct_mult
        all_match = all_match and ok
        rows.append({"m": m, "table_eigenvalue": str(table_val),
                     "direct_eigenvalue": str(direct_val),
                     "table_multiplicity": table_mult,
                     "direct_multiplicity": direct_mult,
                     "match": ok})
    return {"degree": degree, "rows": rows, "all_match": all_match}
