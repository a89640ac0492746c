import random
from fractions import Fraction

import pytest

from landau_lab.surfaces import (
    SurfaceGeometry,
    landau_eigenvalue,
    landau_multiplicity,
    landau_spectrum,
    sphere_crosscheck,
    weitzenbock_iterate,
)


def test_geometry_derived_constants():
    geom = SurfaceGeometry(genus=2, degree=5)
    assert geom.chi == -2
    assert geom.B == Fraction(5, 2)
    assert geom.S == Fraction(-1)
    sphere = SurfaceGeometry(genus=0, degree=4)
    assert sphere.B == 2 and sphere.S == 1


def test_from_field_requires_integer_degree():
    geom = SurfaceGeometry.from_field(genus=1, B=Fraction(5, 2))
    assert geom.degree == 5
    with pytest.raises(ValueError):
        SurfaceGeometry.from_field(genus=1, B=Fraction(5, 3))


def test_geometry_rejects_bad_input():
    with pytest.raises(ValueError):
        SurfaceGeometry(genus=-1, degree=3)
    with pytest.raises(ValueError):
        SurfaceGeometry(genus=0, degree=3, area_over_pi=Fraction(-2))


def test_genus_two_frozen_values():
    # field strength 5 on the genus-2 surface of area 4*pi (degree 10):
    # second eigenvalue 13/2 with multiplicity 7
    geom = SurfaceGeometry.from_field(genus=2, B=5)
    assert geom.degree == 10 and geom.S == Fraction(-1)
    assert landau_eigenvalue(geom, 0) == Fraction(5, 2)
    assert landau_eigenvalue(geom, 1) == Fraction(13, 2)
    assert landau_multiplicity(geom, 0) == (9, "")
    assert landau_multiplicity(geom, 1) == (7, "")


def test_sphere_frozen_values():
    geom = SurfaceGeometry(genus=0, degree=4)
    assert landau_multiplicity(geom, 0) == (5, "")
    assert landau_multiplicity(geom, 1) == (7, "")
    assert landau_eigenvalue(geom, 0) == Fraction(1)


def test_sphere_crosscheck_full_range():
    for degree in range(1, 21):
        rep = sphere_crosscheck(degree, max_level=5)
        assert rep["all_match"], rep
    with pytest.raises(ValueError):
        sphere_crosscheck(21)
    with pytest.raises(ValueError):
        sphere_crosscheck(4, max_level=6)


def test_iteration_matches_closed_form_random_geometries():
    """The twist-and-shift iteration and the closed-form rows must agree
    exactly wherever both are defined."""
    rng = random.Random(20)
    for _ in range(30):
        genus = rng.randrange(0, 4)
        degree = rng.randrange(1, 40)
        area = Fraction(rng.randrange(1, 12), rng.randrange(1, 5))
        geom = SurfaceGeometry(genus, degree, area)
        steps = rng.randrange(1, 8)
        table = weitzenbock_iterate(geom, steps)
        for row in table.rows:
            if row.flag != "interior":
                continue
            assert row.eigenvalue == landau_eigenvalue(geom, row.m)
            mult, _ = landau_multiplicity(geom, row.m)
            assert row.multiplicity == mult


def test_iteration_boundary_row_flagged():
    # B + mS hits zero at m = 1 for this geometry: degree 2, genus 2, B = 1,
    # S = -1; the iteration emits the boundary row and stops
    geom = SurfaceGeometry(genus=2, degree=2)
    table = weitzenbock_iterate(geom, 6)
    assert [r.m for r in table.rows] == [0, 1]
    assert table.rows[0].flag == "interior"
    assert table.rows[1].flag == "boundary"
    assert table.rows[1].multiplicity is None
    assert not table.rows[1].eigenvalue_valid
    assert "boundary" in table.stop_reason


def test_spectrum_strict_guard_stops_before_boundary():
    geom = SurfaceGeometry(genus=2, degree=2)
    table = landau_spectrum(geom, 6)
    # strict condition B + mS > 0 fails already at m = 1
    assert [r.m for r in table.rows] == [0]
    assert "validity lost" in table.stop_reason


def test_spectrum_torus_rows():
    geom = SurfaceGeometry(genus=1, degree=3, area_over_pi=Fraction(2))
    table = landau_spectrum(geom, 4)
    assert len(table.rows) == 4
    for row in table.rows:
        # chi = 0: evenly spaced levels B*(1/2 + m), multiplicity = degree
        assert row.eigenvalue == geom.B * (Fraction(1, 2) + row.m)
        assert row.multiplicity == 3


def test_table_serialization_round_trip():
    geom = SurfaceGeometry(genus=0, degree=2)
    table = landau_spectrum(geom, 3)
    d = table.to_dict()
    assert d["B"] == "1" and d["S"] == "1"
    assert len(d["rows"]) == 3
    assert d["rows"][1]["eigenvalue"] == str(landau_eigenvalue(geom, 1))
