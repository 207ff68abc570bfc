import workloads


def test_same_seed_same_commands():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_seed_changes_inputs_but_not_fault_operations():
    for name, faults in (("hyper-tables", 2), ("euclid-apply", 3)):
        a, b = workloads.generate(name, 7), workloads.generate(name, 8)
        assert [o.argv for o in a if not o.fault] != [o.argv for o in b if not o.fault]
        assert [o for o in a if o.group == "fault"] == [o for o in b if o.group == "fault"]
        assert len([o for o in a if o.fault]) == faults


def test_bump_inputs_do_not_depend_on_the_seed():
    a, b = (workloads.generate("euclid-apply", seed) for seed in (7, 8))
    bump = [o for o in a if o.info.get("fn") == "bump"]
    assert bump == [o for o in b if o.info.get("fn") == "bump"] and len(bump) == 72


def test_apply_points_lie_on_the_multiplier_grid():
    h = workloads.APPLY_LENGTH / workloads.APPLY_GRID
    for op in workloads.generate("euclid-apply", 3):
        for c in op.info.get("x", []):
            j = (c + 0.5 * workloads.APPLY_LENGTH) / h
            assert j == round(j) and abs(c) <= 1.5
