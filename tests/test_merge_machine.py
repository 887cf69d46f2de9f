"""A stateful referee for merging: no plan, however it is edited or spliced, makes a merge lose a fact.

The machine builds small `testkit` bundles whose people repeat facts,
across people and as parallel edges, and plans merges on them. It then
edits, splices and overlaps the plans as a library caller could, and
applies them to their own bundles, to copies, equal, changed or
unsealed, and to other bundles. A plan merges only its own bundle:
`apply_merge` of it to any other must raise `StalePlanError`. On its
own bundle, a plan that `plan_merge` made must give `merge_by_rule`'s
merge, counts and all, and an edited plan must raise a `GraphError` or
give a merge that `verify_merge` passes and that holds exactly the
facts of its input, each absorbed person's under its representative.
`verify_merge` must refuse each plan that `apply_merge` refuses, with
the same exception type and text.
`--hypothesis-profile=deep` runs ten times as many examples.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, multiple, rule

from tapmerge import NetworkBundle, TimeInterval, VertexKind, apply_merge, plan_merge, rebuild, verify_merge
from tapmerge.graph import GraphError
from tapmerge.merge import GroupPlan, MergePlan, StalePlanError
from tapmerge.testkit import PlantMode, RandomBundleSpec, fully_active_characters, generate, plant_duplicates

from conftest import MACHINE_EXAMPLES
from merge_reference import merge_by_rule


class Case(NamedTuple):
    plan: MergePlan
    # the groups `plan_merge` made the plan from; None once the plan is edited
    groups: list[list[str]] | None


def facts(bundle: NetworkBundle, mapping: dict[str, str]) -> set[tuple]:
    """Every (person, entity, relation type, interval) fact, each absorbed person's under its representative."""
    return {(mapping.get(e.character, e.character), e.entity, e.relation_type, e.interval) for e in bundle.edges()}


def check_apply(bundle: NetworkBundle, case: Case) -> None:
    """Apply the case's plan to `bundle`: only its own bundle merges, and no merge loses a fact."""
    if bundle is not case.plan.source:
        with pytest.raises(StalePlanError, match="^plan was computed against a different bundle$"):
            apply_merge(bundle, case.plan)
        return
    try:
        merged = apply_merge(bundle, case.plan)
    except GraphError as refused:
        # only an edited plan is refused, and verify_merge refuses it alike
        assert case.groups is None
        with pytest.raises(GraphError) as verified:
            verify_merge(bundle, bundle, case.plan)
        assert (type(verified.value), str(verified.value)) == (type(refused), str(refused))
        return
    # a plan merges only when each of its members is a character, named once
    members = [member for group in case.plan.groups for member in (group.representative, *group.absorbed)]
    assert len(set(members)) == len(members)
    assert all(bundle.vertex(member).kind is VertexKind.CHARACTER for member in members)
    report = verify_merge(bundle, merged.bundle, case.plan)
    assert report.ok, report.violations
    assert facts(merged.bundle, {}) == facts(bundle, merged.audit.mapping)
    if case.groups is not None:
        expected, counts, _ = merge_by_rule(bundle, case.groups)
        assert list(merged.bundle.edges()) == list(expected.edges())
        assert merged.bundle.vertices() == expected.vertices()
        assert merged.audit._asdict() == counts


def edited(case: Case, groups: list[GroupPlan]) -> Case:
    """The case with its plan's groups replaced, once applied to the plan's own bundle."""
    case = Case(case.plan._replace(groups=groups), None)
    check_apply(case.plan.source, case)
    return case


def member_ids(plan: MergePlan) -> list[str]:
    """Ids an edit may put into a plan: the people of the plan's bundle, an entity of it and an unknown id."""
    entities = [vertex.id for vertex in plan.source.vertices(VertexKind.ENTITY)]
    return [*plan.source.character_ids(), *entities[:1], "ghost"]


class MergeMachine(RuleBasedStateMachine):
    bundles = Bundle("bundles")
    cases = Bundle("cases")

    @rule(
        target=bundles,
        characters=st.integers(4, 8),
        entities=st.integers(1, 2),
        relation_types=st.integers(1, 2),
        density=st.sampled_from([1.0, 2.0]),
        years=st.integers(0, 1),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(PlantMode),
        data=st.data(),
    )
    def build(self, characters, entities, relation_types, density, years, seed, mode, data):
        # few entities, one or two years and up to four edges per subnetwork repeat facts often
        spec = RandomBundleSpec(characters, entities, relation_types, density, (2000, 2000 + years), seed)
        bundle = generate(spec)
        k = data.draw(st.integers(0, min(len(fully_active_characters(bundle)), 2)))
        return plant_duplicates(bundle, k, mode, seed)[0]

    @rule(target=cases, bundle=bundles, data=st.data())
    def plan(self, bundle, data):
        people = data.draw(st.permutations(bundle.character_ids()))
        groups = []
        while people:
            size = data.draw(st.integers(1, 3))
            groups.append(list(people[:size]))
            people = people[size:]
        case = Case(plan_merge(bundle, groups), groups)
        check_apply(bundle, case)
        return case

    @rule(target=bundles, case=cases)
    def copy(self, case):
        """A sealed copy of a plan's bundle, every edge filed in the same order, which the plan must not merge."""
        bundle = case.plan.source
        copy = rebuild(bundle.vertices(), bundle.edges(), bundle.relation_types())
        check_apply(copy, case)
        return copy

    @rule(target=bundles, case=cases, data=st.data())
    def changed_copy(self, case, data):
        """A copy of a plan's bundle with one edge a year longer, which the plan must not merge."""
        bundle = case.plan.source
        edges = list(bundle.edges())
        if not edges:
            return multiple()
        i = data.draw(st.integers(0, len(edges) - 1))
        start, end = edges[i].interval
        edges[i] = edges[i]._replace(interval=TimeInterval(start, end + 1))
        changed = rebuild(bundle.vertices(), edges, bundle.relation_types())
        check_apply(changed, case)
        return changed

    @rule(case=cases)
    def unsealed_copy(self, case):
        """An unsealed copy of a plan's bundle, which can neither be planned on nor merged."""
        bundle = case.plan.source
        copy = NetworkBundle()
        for relation_type in bundle.relation_types():
            copy.declare_relation_type(relation_type)
        for v in bundle.vertices():
            copy.add_vertex(v.kind, v.type_label, v.display_name, vertex_id=v.id)
        for e in bundle.edges():
            copy.add_edge(e.character, e.entity, e.relation_type, e.interval, relation_id=e.relation_id)
        for call in (
            lambda: plan_merge(copy, []),
            lambda: apply_merge(copy, case.plan),
            lambda: apply_merge(copy, case.plan._replace(source=copy)),
        ):
            try:
                call()
            except GraphError:
                continue
            raise AssertionError("an unsealed bundle was planned on or merged")

    @rule(target=cases, case=cases, data=st.data())
    def edit_representative(self, case, data):
        groups = list(case.plan.groups)
        if not groups:
            return multiple()
        i = data.draw(st.integers(0, len(groups) - 1))
        groups[i] = groups[i]._replace(representative=data.draw(st.sampled_from(member_ids(case.plan))))
        return edited(case, groups)

    @rule(target=cases, case=cases, data=st.data())
    def edit_absorbed(self, case, data):
        groups = list(case.plan.groups)
        if not groups:
            return multiple()
        i = data.draw(st.integers(0, len(groups) - 1))
        absorbed = data.draw(
            st.one_of(
                st.permutations(groups[i].absorbed).map(tuple),
                st.lists(st.sampled_from(member_ids(case.plan)), max_size=3).map(tuple),
            )
        )
        groups[i] = groups[i]._replace(absorbed=absorbed)
        return edited(case, groups)

    @rule(target=cases, case=cases, data=st.data())
    def share(self, case, data):
        """Put a member of one group into a group as well, the same or another, as its representative or absorbed."""
        groups = list(case.plan.groups)
        if not groups:
            return multiple()
        source = data.draw(st.sampled_from(groups))
        member = data.draw(st.sampled_from([source.representative, *source.absorbed]))
        i = data.draw(st.integers(0, len(groups) - 1))
        if data.draw(st.booleans()):
            groups[i] = groups[i]._replace(representative=member)
        else:
            groups[i] = groups[i]._replace(absorbed=(*groups[i].absorbed, member))
        return edited(case, groups)

    @rule(target=cases, case=cases, data=st.data())
    def add_entity(self, case, data):
        """Put an entity of the plan's bundle into a group, as its representative or absorbed."""
        groups = list(case.plan.groups)
        entities = [vertex.id for vertex in case.plan.source.vertices(VertexKind.ENTITY)]
        if not groups or not entities:
            return multiple()
        entity = data.draw(st.sampled_from(entities))
        i = data.draw(st.integers(0, len(groups) - 1))
        if data.draw(st.booleans()):
            groups[i] = groups[i]._replace(representative=entity)
        else:
            groups[i] = groups[i]._replace(absorbed=(*groups[i].absorbed, entity))
        return edited(case, groups)

    @rule(target=cases, case=cases, data=st.data())
    def add_group(self, case, data):
        """Insert a two-member group, which may share a member with a group of the plan."""
        groups = list(case.plan.groups)
        ids = member_ids(case.plan)
        group = GroupPlan(data.draw(st.sampled_from(ids)), (data.draw(st.sampled_from(ids)),))
        groups.insert(data.draw(st.integers(0, len(groups))), group)
        return edited(case, groups)

    @rule(target=cases, case=cases, donor=cases)
    def splice_groups(self, case, donor):
        """Add the groups of another plan, perhaps made on another bundle."""
        return edited(case, [*case.plan.groups, *donor.plan.groups])

    @rule(target=cases, case=cases, bundle=bundles)
    def splice_source(self, case, bundle):
        """Claim that the plan was made on another bundle."""
        case = Case(case.plan._replace(source=bundle), None)
        check_apply(bundle, case)
        return case

    @rule(bundle=bundles, case=cases)
    def apply(self, bundle, case):
        check_apply(bundle, case)


TestMergeMachine = MergeMachine.TestCase
TestMergeMachine.settings = settings(
    # a run under the `deep` profile takes that profile's budget
    max_examples=settings.default.max_examples if settings.get_current_profile_name() == "deep" else MACHINE_EXAMPLES,
    stateful_step_count=12,
    deadline=None,
)
