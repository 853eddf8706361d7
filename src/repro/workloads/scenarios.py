"""Named scenarios: the paper's worked examples and two realistic view setups.

The paper's figures are reconstructed here as first-class objects so that the
test-suite and benchmark E9 can verify the claims made about them
(equivalences, redundancy, essential tagged tuples, simplification).  The
symbols follow the figures as closely as the source permits; where the
scanned text is ambiguous the reconstruction keeps the properties the
surrounding prose relies on (shared symbols, tags, target schemes).

Two additional scenarios — a university registry and a company directory —
give the examples and benchmarks workloads that look like the view-design
situations the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple as PyTuple

from repro.relalg.ast import Expression, Join, Projection, RelationRef
from repro.relalg.parser import parse_expression
from repro.relational.attributes import Attribute, Constant, DistinguishedSymbol
from repro.relational.schema import DatabaseSchema, RelationName
from repro.templates.substitution import TemplateAssignment
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template
from repro.views.view import View

__all__ = [
    "Example222",
    "example_2_2_2",
    "Example315",
    "example_3_1_5",
    "Example321",
    "example_3_2_1",
    "Section41Example",
    "section_4_1_example",
    "university_scenario",
    "company_scenario",
]


def _nd(attr: Attribute, label: str) -> Constant:
    """A named nondistinguished symbol, mirroring the paper's ``a1, b2, ...``."""

    return Constant(attr, label)


# --------------------------------------------------------------------------- 2.2.2
@dataclass(frozen=True)
class Example222:
    """The ingredients of Example 2.2.2 / Figure 1: ``T``, ``S1``, ``S2`` and ``beta``."""

    schema: DatabaseSchema
    outer: Template
    s1: Template
    s2: Template
    assignment: TemplateAssignment


def example_2_2_2() -> Example222:
    """Reconstruct Figure 1: the substitution ``T -> beta`` over attributes ABC."""

    a, b, c = Attribute("A"), Attribute("B"), Attribute("C")
    eta1 = RelationName("eta1", "AB")
    eta2 = RelationName("eta2", "ABC")
    eta3 = RelationName("eta3", "ABC")
    eta4 = RelationName("eta4", "ABC")
    schema = DatabaseSchema([eta1, eta2, eta3, eta4])

    tau1 = TaggedTuple({a: DistinguishedSymbol(a), b: _nd(b, "b1")}, eta1)
    tau2 = TaggedTuple(
        {a: _nd(a, "a1"), b: DistinguishedSymbol(b), c: _nd(c, "c2")}, eta2
    )
    tau3 = TaggedTuple(
        {a: _nd(a, "a1"), b: _nd(b, "b2"), c: DistinguishedSymbol(c)}, eta2
    )
    outer = Template([tau1, tau2, tau3])

    sigma1 = TaggedTuple(
        {a: _nd(a, "a3"), b: DistinguishedSymbol(b), c: _nd(c, "c3")}, eta3
    )
    sigma2 = TaggedTuple(
        {a: DistinguishedSymbol(a), b: _nd(b, "b3"), c: _nd(c, "c3")}, eta3
    )
    s1 = Template([sigma1, sigma2])

    sigma3 = TaggedTuple(
        {a: DistinguishedSymbol(a), b: DistinguishedSymbol(b), c: _nd(c, "c4")}, eta3
    )
    sigma4 = TaggedTuple(
        {a: _nd(a, "a4"), b: _nd(b, "b4"), c: DistinguishedSymbol(c)}, eta4
    )
    s2 = Template([sigma3, sigma4])

    assignment = TemplateAssignment({eta1: s1, eta2: s2})
    return Example222(schema=schema, outer=outer, s1=s1, s2=s2, assignment=assignment)


# --------------------------------------------------------------------------- 3.1.5
@dataclass(frozen=True)
class Example315:
    """Example 3.1.5: equivalent nonredundant views of different sizes."""

    schema: DatabaseSchema
    joined_view: View
    split_view: View
    s1: Expression
    s2: Expression
    s: Expression


def example_3_1_5() -> Example315:
    """The single-relation schema ``{q}`` with ``S1 = pi_AB(q)``, ``S2 = pi_BC(q)``."""

    q = RelationName("q", "ABC")
    schema = DatabaseSchema([q])
    s1 = parse_expression("pi{A,B}(q)", schema)
    s2 = parse_expression("pi{B,C}(q)", schema)
    s = Join((s1, s2))
    joined_view = View([(s, RelationName("lam", "ABC"))], schema)
    split_view = View(
        [(s1, RelationName("lam1", "AB")), (s2, RelationName("lam2", "BC"))], schema
    )
    return Example315(
        schema=schema,
        joined_view=joined_view,
        split_view=split_view,
        s1=s1,
        s2=s2,
        s=s,
    )


# --------------------------------------------------------------------------- 3.2.1
@dataclass(frozen=True)
class Example321:
    """Example 3.2.1 / Figure 2: the query set ``{S, T}`` and the outer template ``E``."""

    schema: DatabaseSchema
    s: Template
    t: Template
    outer: Template
    assignment: TemplateAssignment
    generators: Dict[RelationName, Template]


def example_3_2_1() -> Example321:
    """Reconstruct Figure 2: ``S`` (one row) and ``T`` (three rows, two components)."""

    a, b, c = Attribute("A"), Attribute("B"), Attribute("C")
    eta1 = RelationName("eta1", "AB")
    eta2 = RelationName("eta2", "ABC")
    schema = DatabaseSchema([eta1, eta2])

    # S: a single all-distinguished row on eta1 (it realises eta1 itself).
    s_row = TaggedTuple({a: DistinguishedSymbol(a), b: DistinguishedSymbol(b)}, eta1)
    s = Template([s_row])

    # T: components {tau1, tau2} (linked through b1) and {tau3}.
    tau1 = TaggedTuple({a: DistinguishedSymbol(a), b: _nd(b, "b1")}, eta1)
    tau2 = TaggedTuple(
        {a: _nd(a, "a1"), b: _nd(b, "b1"), c: DistinguishedSymbol(c)}, eta2
    )
    tau3 = TaggedTuple(
        {a: _nd(a, "a2"), b: DistinguishedSymbol(b), c: DistinguishedSymbol(c)}, eta2
    )
    t = Template([tau1, tau2, tau3])

    # Outer template E over fresh names lambda1 (typed AB) and lambda2, lambda3
    # (typed like T's target scheme ABC); beta maps lambda1 to S and the others to T.
    lam1 = RelationName("lambda1", "AB")
    lam2 = RelationName("lambda2", "ABC")
    lam3 = RelationName("lambda3", "ABC")
    eps1 = TaggedTuple({a: DistinguishedSymbol(a), b: _nd(b, "b2")}, lam1)
    eps2 = TaggedTuple(
        {a: _nd(a, "a3"), b: _nd(b, "b2"), c: DistinguishedSymbol(c)}, lam2
    )
    eps3 = TaggedTuple(
        {a: _nd(a, "a4"), b: DistinguishedSymbol(b), c: DistinguishedSymbol(c)}, lam3
    )
    outer = Template([eps1, eps2, eps3])
    assignment = TemplateAssignment({lam1: s, lam2: t, lam3: t})

    nu_s = RelationName("nuS", "AB")
    nu_t = RelationName("nuT", "BC")
    # T's target scheme is {B, C}? No: tau1 carries 0_A, tau2 carries 0_C and
    # tau3 carries 0_B and 0_C, so TRS(T) = {A, B, C}.
    nu_t = RelationName("nuT", t.target_scheme)
    nu_s = RelationName("nuS", s.target_scheme)
    generators = {nu_s: s, nu_t: t}
    return Example321(
        schema=schema,
        s=s,
        t=t,
        outer=outer,
        assignment=assignment,
        generators=generators,
    )


# --------------------------------------------------------------------------- 4.1
@dataclass(frozen=True)
class Section41Example:
    """The ABCD decomposition example opening Section 4.1."""

    schema: DatabaseSchema
    s: Expression
    t: Expression
    view: View


def section_4_1_example() -> Section41Example:
    """The schema over ``{A, B, C, D}`` with ``S = s1 |x| AC`` and ``T = t1 |x| t2``."""

    r_ad = RelationName("RAD", "AD")
    r_abc = RelationName("RABC", "ABC")
    r_ab = RelationName("RAB", "AB")
    r_bc = RelationName("RBC", "BC")
    r_ac = RelationName("RAC", "AC")
    schema = DatabaseSchema([r_ad, r_abc, r_ab, r_bc, r_ac])

    s1 = Projection(Join((RelationRef(r_ad), RelationRef(r_abc))), "BCD")
    t1 = Projection(Join((RelationRef(r_ab), RelationRef(r_bc))), "AB")
    t2 = Join((RelationRef(r_ac), RelationRef(r_bc)))
    s = Join((s1, RelationRef(r_ac)))
    t = Join((t1, t2))

    view = View(
        [
            (s, RelationName("VS", s.target_scheme)),
            (t, RelationName("VT", t.target_scheme)),
        ],
        schema,
    )
    return Section41Example(schema=schema, s=s, t=t, view=view)


# --------------------------------------------------------------------- realistic
def university_scenario() -> PyTuple[DatabaseSchema, View]:
    """A registrar database and the view handed to departmental advisers.

    Relations: ``Enrolled(S, C)``, ``Teaches(P, C)``, ``Meets(C, T)`` with
    attributes S(tudent), C(ourse), P(rofessor), T(imeslot).  Advisers see
    which students take which professor's courses and the course timetable,
    but not the professor-to-timeslot association directly.
    """

    enrolled = RelationName("Enrolled", "SC")
    teaches = RelationName("Teaches", "PC")
    meets = RelationName("Meets", "CT")
    schema = DatabaseSchema([enrolled, teaches, meets])

    student_prof = parse_expression("pi{S,P}(Enrolled & Teaches)", schema)
    timetable = parse_expression("Meets", schema)
    view = View(
        [
            (student_prof, RelationName("AdviseeProfessors", "PS")),
            (timetable, RelationName("Timetable", "CT")),
        ],
        schema,
    )
    return schema, view


def company_scenario() -> PyTuple[DatabaseSchema, View]:
    """A company directory and the view given to the internal phone-book app.

    Relations: ``WorksIn(E, D)``, ``Located(D, B)``, ``Manages(M, D)`` with
    attributes E(mployee), D(epartment), B(uilding), M(anager).  The app can
    resolve employees to buildings and departments to managers, but the raw
    department table is not exposed, and one of the defining queries below is
    deliberately redundant (derivable from the other two) so that the
    redundancy examples have something to find.
    """

    works_in = RelationName("WorksIn", "ED")
    located = RelationName("Located", "DB")
    manages = RelationName("Manages", "MD")
    schema = DatabaseSchema([works_in, located, manages])

    emp_building = parse_expression("pi{E,B}(WorksIn & Located)", schema)
    dept_manager = parse_expression("Manages", schema)
    emp_dept_building = parse_expression("WorksIn & Located", schema)
    view = View(
        [
            (emp_dept_building, RelationName("EmployeePlacement", "BDE")),
            (emp_building, RelationName("EmployeeBuilding", "BE")),
            (dept_manager, RelationName("DepartmentManager", "DM")),
        ],
        schema,
    )
    return schema, view
