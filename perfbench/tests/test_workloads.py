from collections import Counter

from perfbench import workloads


def test_same_seed_same_inputs():
    assert workloads.certify_datums(7, 3) == workloads.certify_datums(7, 3)
    assert workloads.orbits_datums(7, 2) == workloads.orbits_datums(7, 2)
    assert workloads.identities_ops(7, 3) == workloads.identities_ops(7, 3)


def test_other_seed_other_inputs():
    assert workloads.certify_datums(7, 3) != workloads.certify_datums(8, 3)
    assert workloads.orbits_datums(7, 2) != workloads.orbits_datums(8, 2)
    assert workloads.identities_ops(7, 3) != workloads.identities_ops(8, 3)


def test_rounds_have_fixed_composition():
    items = workloads.certify_datums(3, 4)
    assert Counter(i["class"] for i in items) == Counter(workloads.CERTIFY_ROUND * 4)
    ops = workloads.identities_ops(3, 4)
    assert [op[0] for op in ops] == list(workloads.IDENTITIES_ROUND * 4)
    lo, hi = workloads.EHM_BOUNDS
    assert all(lo <= op[4] <= hi for op in ops if op[0] == "ehm")


def test_certify_datums_are_valid():
    for item in workloads.certify_datums(5, 6):
        gens = [tuple(g) for g in item["spec"]["generators"]]
        assert all(g[-1] >= 0 for g in gens)
        if item["line"]:
            e = tuple(1 if j == 0 else 0 for j in range(len(gens[0])))
            assert e in gens and tuple(-x for x in e) in gens
        else:
            assert all(g[-1] >= 1 for g in gens)
        if item["class"] == "rank4":
            lo, hi = workloads.RANK4_BOX
            assert workloads.integer_det(gens) != 0
            assert lo <= workloads.box_volume(gens) <= hi


def test_integer_det():
    assert workloads.integer_det([(2, 0), (0, 3)]) == 6
    assert workloads.integer_det([(0, 1), (1, 0)]) == -1
    assert workloads.integer_det([(1, 2, 3), (2, 4, 6), (0, 1, 1)]) == 0
    assert workloads.integer_det([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 2


def test_orbit_cones_sit_at_height_one():
    for item in workloads.orbits_datums(2, 2):
        gens = item["spec"]["generators"]
        assert all(g[-1] == 1 for g in gens)
        assert len(gens[0]) == (5 if item["class"] == "pyramid_cube3" else 4)


def test_flow_derivations_are_triangular_and_bounded():
    for op in workloads.identities_ops(6, 5):
        if op[0] != "flow":
            continue
        images = op[1]
        assert workloads.nilpotency_weight(images) <= workloads.FLOW_WEIGHT_MAX
        for i in range(len(images)):
            for exps, coeff in images[f"x{i + 1}"]:
                assert coeff != 0 and not any(exps[i:])


def test_nilpotency_weight():
    # D(x1) = 1, D(x2) = x1^2: w = 1, 3
    assert workloads.nilpotency_weight({"x1": [((0, 0), 1)], "x2": [((2, 0), 1)]}) == 4
