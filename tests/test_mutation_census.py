"""The census harness in `mutation_census.py` records a raise and a flipped check."""

from tilefold import divcalc

import mutation_census as census


def mutant(name):
    return next(m for m in census.data_mutants() if m.name == name)


def test_a_raise_is_recorded_with_its_stage_path():
    table = divcalc.RULE_TOP_SELF
    assert census.run(mutant("divcalc.RULE_TOP_SELF['A'] 0->1"), "intersection table") == (
        "raised in intersection table > divcalc.solve_petersen: RuleConsistencyError: "
        "adjacency solution not unique: 0 found, constraint failures "
        "{'regularity': 63, 'stabilizer': 0, 'descent': 1, 'consistency': 0}"
    )
    assert divcalc.RULE_TOP_SELF is table


def test_a_check_reading_false_is_recorded_alone():
    outcome = census.run(mutant("divcalc.RULE_C_BASE[('C01', 'C01')] -1->0"), "intersection table")
    assert outcome == "False: intersection/tensor_descent_on_relations"
    # the mutated table is put back and no stage keeps what it computed
    assert divcalc.RULE_C_BASE[("C01", "C01")] == -1
    assert census.outcome("intersection table") == "survived"

