"""Evaluation of multirelational expressions over instantiations (Section 1.2).

``evaluate(E, alpha)`` computes the relation ``E(alpha)`` by structural
recursion:

* ``eta(alpha) = alpha(eta)``,
* ``pi_X(E)(alpha) = pi_X(E(alpha))``,
* ``(E_1 |x| ... |x| E_n)(alpha) = E_1(alpha) |x| ... |x| E_n(alpha)``.

The module also exposes :func:`expressions_equivalent`, which decides whether
two expressions realise the same expression mapping.  Following the paper
(Corollary 2.4.2) the decision is made on the template representations via
two-way homomorphisms, never by sampling instantiations.
"""

from __future__ import annotations

from repro.exceptions import ExpressionError
from repro.relalg.ast import Expression, Join, Projection, RelationRef
from repro.relational.instance import Instantiation
from repro.relational.operations import join_all, project
from repro.relational.tuples import Relation

__all__ = ["evaluate", "expressions_equivalent"]


def evaluate(expression: Expression, instantiation: Instantiation) -> Relation:
    """The relation ``E(alpha)`` produced by ``expression`` on ``instantiation``."""

    if isinstance(expression, RelationRef):
        return instantiation.relation(expression.name)
    if isinstance(expression, Projection):
        return project(evaluate(expression.child, instantiation), expression.target_scheme)
    if isinstance(expression, Join):
        return join_all(evaluate(operand, instantiation) for operand in expression.operands)
    raise ExpressionError(f"unknown expression node {expression!r}")


def expressions_equivalent(left: Expression, right: Expression) -> bool:
    """Whether two expressions realise the same expression mapping.

    The check converts both expressions to multirelational templates with
    Algorithm 2.1.1 and tests mutual containment via homomorphisms
    (Proposition 2.4.1 / Corollary 2.4.2).  Expressions over different
    relation-name sets are never equivalent (Section 1.2).
    """

    if left.relation_names != right.relation_names:
        return False
    if left.target_scheme != right.target_scheme:
        return False
    # Imported lazily to avoid a circular import: the template package builds
    # on the expression AST defined alongside this module.  The conversion is
    # raw because the memoised views.closure.as_template would make relalg
    # import views.
    from repro.templates.from_expression import template_from_expression
    from repro.templates.homomorphism import templates_equivalent

    return templates_equivalent(
        template_from_expression(left), template_from_expression(right)
    )
