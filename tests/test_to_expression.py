"""Tests for the expression-template recogniser/synthesiser (Proposition 2.4.6)."""

import pytest

from repro.exceptions import NotAnExpressionTemplateError
from repro.relalg.evaluate import expressions_equivalent
from repro.relalg.parser import parse_expression
from repro.relational.attributes import Attribute, Constant, DistinguishedSymbol
from repro.relational.schema import DatabaseSchema, RelationName
from repro.templates.from_expression import template_from_expression
from repro.templates.homomorphism import templates_equivalent
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template
from repro.templates.to_expression import expression_from_template, is_expression_template
from repro.workloads import SchemaSpec, random_expression, random_schema

ROUND_TRIP_EXPRESSIONS = [
    "R",
    "pi{A}(R)",
    "(R & S)",
    "pi{A,C}(R & S)",
    "pi{A,C}(pi{A,B}(R) & S)",
    "pi{B}(R & S)",
    "(pi{A}(R) & pi{C}(S))",
    "pi{C}(pi{B,C}(R & S) & S)",
    "(pi{A,B}(R) & pi{B,C}(S) & R)",
    "pi{A}(pi{A,B}(R & S) & R)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_EXPRESSIONS)
    def test_expression_templates_are_recognised(self, rs_schema, text):
        expression = parse_expression(text, rs_schema)
        template = template_from_expression(expression)
        recovered = expression_from_template(template)
        assert expressions_equivalent(recovered, expression)

    @pytest.mark.parametrize("text", ROUND_TRIP_EXPRESSIONS)
    def test_is_expression_template_true(self, rs_schema, text):
        template = template_from_expression(parse_expression(text, rs_schema))
        assert is_expression_template(template)

    @pytest.mark.parametrize("atoms", [2, 4, 8])
    def test_random_project_join_expressions_are_recognised(self, atoms):
        # Algorithm 2.1.1 yields at most one row per atom, and every
        # template it yields is an expression template (Proposition 2.4.6).
        schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=0)
        expression = random_expression(
            schema, atoms=atoms, projection_probability=0.5, seed=atoms + 7
        )
        template = template_from_expression(expression)
        assert len(template) <= atoms
        assert is_expression_template(template)

    def test_branch_internal_projection_orphan_component(self, rs_schema, triangle_schema):
        # pi_D-style case: a join branch whose own projection removes every
        # distinguished symbol of one of its components.
        schema = DatabaseSchema(
            [RelationName("R", "AB"), RelationName("W", "D"), RelationName("V", "ABD")]
        )
        expression = parse_expression("(pi{D}(R & W) & V)", schema)
        template = template_from_expression(expression)
        recovered = expression_from_template(template)
        assert expressions_equivalent(recovered, expression)


class TestNonExpressionTemplates:
    def _path_template(self):
        """A three-row template that no project-join expression can realise.

        The rows form a "path" ``R(x, 0_B) - S(x, y) - W(0_A, y)``: the symbol
        ``x`` would have to be created by a projection removing attribute A
        above rows R and S only, yet row W still carries ``0_A`` (so W cannot
        lie below that projection); symmetrically for ``y`` and attribute B.
        The two projection nodes would both have to contain row S while
        excluding each other's endpoints, which is impossible in a tree — this
        is the natural-join analogue of a query that needs attribute renaming.
        """

        a, b = Attribute("A"), Attribute("B")
        r = RelationName("R", "AB")
        s = RelationName("S", "AB")
        w = RelationName("W", "AB")
        x = Constant(a, "x")
        y = Constant(b, "y")
        row_r = TaggedTuple({a: x, b: DistinguishedSymbol(b)}, r)
        row_s = TaggedTuple({a: x, b: y}, s)
        row_w = TaggedTuple({a: DistinguishedSymbol(a), b: y}, w)
        return Template([row_r, row_s, row_w])

    def test_path_sharing_is_rejected(self):
        template = self._path_template()
        assert not is_expression_template(template)
        with pytest.raises(NotAnExpressionTemplateError):
            expression_from_template(template)

    def test_rejection_message_mentions_project_join(self):
        with pytest.raises(NotAnExpressionTemplateError) as excinfo:
            expression_from_template(self._path_template())
        assert "project-join" in str(excinfo.value)

    def test_triangle_sharing_is_an_expression_template(self):
        # Pairwise sharing across *different* attributes is fine: it arises from
        # nested projections, and the recogniser must find that witness.
        a, b, c = Attribute("A"), Attribute("B"), Attribute("C")
        r = RelationName("R", "AB")
        s = RelationName("S", "BC")
        t = RelationName("T", "AC")
        x, y, z = Constant(a, "x"), Constant(b, "y"), Constant(c, "z")
        head = TaggedTuple({a: DistinguishedSymbol(a), b: DistinguishedSymbol(b)}, r)
        template = Template(
            [
                TaggedTuple({a: x, b: y}, r),
                TaggedTuple({b: y, c: z}, s),
                TaggedTuple({a: x, c: z}, t),
                head,
            ]
        )
        assert is_expression_template(template)


class TestSynthesisedWitness:
    def test_witness_uses_only_template_relation_names(self, rs_schema):
        template = template_from_expression(parse_expression("pi{A,C}(R & S)", rs_schema))
        witness = expression_from_template(template)
        assert witness.relation_names <= template.relation_names

    def test_witness_matches_target_scheme(self, rs_schema):
        template = template_from_expression(parse_expression("pi{B}(R & S)", rs_schema))
        witness = expression_from_template(template)
        assert witness.target_scheme == template.target_scheme

    def test_reduction_happens_before_synthesis(self, rs_schema):
        # A redundant template still synthesises a witness for the reduced core.
        template = template_from_expression(parse_expression("(R & R & S)", rs_schema))
        witness = expression_from_template(template)
        assert templates_equivalent(template_from_expression(witness), template)

    def test_recogniser_works_over_view_vocabularies(self, q_schema):
        # Templates over freshly minted (view) names are handled the same way.
        v1 = RelationName("V1", "AB")
        v2 = RelationName("V2", "BC")
        a, b, c = Attribute("A"), Attribute("B"), Attribute("C")
        row1 = TaggedTuple({a: DistinguishedSymbol(a), b: DistinguishedSymbol(b)}, v1)
        row2 = TaggedTuple({b: DistinguishedSymbol(b), c: DistinguishedSymbol(c)}, v2)
        template = Template([row1, row2])
        witness = expression_from_template(template)
        assert witness.relation_names == {v1, v2}
