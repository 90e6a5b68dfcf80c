import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfnadapt.simulator import builtin_space
from gfnadapt.space import (
    ActionSpec,
    GroupSpec,
    ParameterSpec,
    all_keys,
    build_space,
    decode_batch,
    decode_state,
    key_bytes,
    key_text,
    key_tuples,
    place_values,
)

from conftest import make_tiny_space, make_two_cycle_space, neighbors


def random_key(space, rng_draw):
    return tuple(rng_draw[t] % r for t, r in enumerate(space.slot_radices))


def keys_strategy(space):
    return st.tuples(*(st.integers(0, r - 1) for r in space.slot_radices))


class TestBuildSpace:
    def test_builtin_counts(self, space):
        assert [len(g.actions) for g in space.groups] == [3, 5, 5, 5, 7]
        assert space.terminal_count() == 2625

    def test_degenerate_space(self):
        sp = build_space(
            [GroupSpec(1, "g", (ActionSpec("none", {}),))],
            [ParameterSpec("p", 0.0, 1.0, 0.5, group=1)],
            cycles=1,
            step_fraction=0.5,
        )
        assert sp.terminal_count() == 1

    def test_two_cycle_count(self, space):
        import dataclasses

        sp2 = dataclasses.replace(space, cycles=2)
        assert sp2.terminal_count() == 2625**2 == 6_890_625

    def test_duplicate_group_order_rejected(self):
        p = ParameterSpec("p", 0.0, 1.0, 0.5, group=1)
        g = GroupSpec(1, "g", (ActionSpec("none", {}),))
        with pytest.raises(ValueError, match="contiguous"):
            build_space([g, g], [p], 1, 0.3)

    def test_foreign_parameter_rejected(self):
        p = ParameterSpec("p", 0.0, 1.0, 0.5, group=1)
        groups = [
            GroupSpec(1, "g1", (ActionSpec("none", {}),)),
            GroupSpec(2, "g2", (ActionSpec("none", {}), ActionSpec("up", {"p": 1}))),
        ]
        with pytest.raises(ValueError, match="foreign"):
            build_space(groups, [p], 1, 0.3)

    def test_repeated_parameter_rejected(self):
        # decode_state would keep the second entry, decode_batch a column each
        p = ParameterSpec("p", 0.0, 1.0, 0.5, group=1)
        groups = [
            GroupSpec(1, "g1", (ActionSpec("none", {}), ActionSpec("up", {"p": 1}))),
            GroupSpec(2, "g2", (ActionSpec("none", {}),)),
        ]
        with pytest.raises(ValueError, match="parameter p is listed twice"):
            build_space(groups, [p, ParameterSpec("p", -1.0, 1.0, 0.5, group=2)], 1, 0.3)

    def test_empty_action_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GroupSpec(1, "g", ())

    def test_non_identity_action_zero_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            GroupSpec(1, "g", (ActionSpec("up", {"p": 1}),))


class TestDecode:
    def test_all_identity_gives_baselines(self, space):
        key = (0,) * space.slots
        theta = decode_state(space, key)
        assert theta == {p.name: p.baseline for p in space.parameters}

    def test_hand_evaluated_step(self):
        # l=0, u=10, baseline=5, sf=0.3, sign=+1, cycle 1 -> 8
        sp = make_tiny_space()
        theta = decode_state(sp, (1,))
        assert theta["a"] == pytest.approx(8.0, abs=1e-12)
        assert theta["b"] == 5.0

    def test_clip_branch(self):
        params = [ParameterSpec("a", 0.0, 10.0, 9.0, group=1)]
        groups = [GroupSpec(1, "g", (ActionSpec("none", {}), ActionSpec("up", {"a": 1})))]
        sp = build_space(groups, params, 1, 0.3)
        assert decode_state(sp, (1,))["a"] == 10.0

    def test_cycle_two_annealing(self):
        sp = make_tiny_space(cycles=2)
        # slot 2 is group 1 in cycle 2: eta = 0.5 -> 5 + 0.5*0.3*10 = 6.5
        theta = decode_state(sp, (0, 0, 1))
        assert theta["a"] == pytest.approx(6.5, abs=1e-12)

    def test_action_out_of_range(self, tiny_space):
        with pytest.raises(ValueError, match="out of range"):
            decode_state(tiny_space, (2,))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_decode_within_bounds(self, data):
        sp = make_tiny_space(cycles=2)
        key = data.draw(keys_strategy(sp))
        theta = decode_state(sp, key)
        for p in sp.parameters:
            assert p.lower <= theta[p.name] <= p.upper

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_prefix_consistency(self, data):
        sp = make_tiny_space(cycles=2)
        key = data.draw(keys_strategy(sp))
        for t in range(1, len(key) + 1):
            partial = decode_state(sp, key[:t])
            shorter = decode_state(sp, key[: t - 1])
            action = sp.slot_group(t - 1).actions[key[t - 1]]
            eta = sp.slot_eta(t - 1)
            for p in sp.parameters:
                sign = action.signs.get(p.name, 0)
                expected = shorter[p.name]
                if sign:
                    expected = min(
                        max(
                            expected + eta * sp.step_fraction * sign * (p.upper - p.lower),
                            p.lower,
                        ),
                        p.upper,
                    )
                assert partial[p.name] == pytest.approx(expected, abs=1e-14)


class TestDecodeBatch:
    @staticmethod
    def assert_rows_equal_decode_state(sp, keys):
        names = [p.name for p in sp.parameters]
        for key, row in zip(keys, decode_batch(sp, keys)):
            assert dict(zip(names, row)) == decode_state(sp, key), key

    def test_all_builtin_terminals(self, space):
        self.assert_rows_equal_decode_state(space, key_tuples(all_keys(space)))

    def test_partial_keys_of_two_cycles(self, space):
        import dataclasses

        sp = dataclasses.replace(space, cycles=2)
        rng = np.random.default_rng(0)
        for length in range(sp.slots + 1):
            keys = [
                tuple(int(rng.integers(r)) for r in sp.slot_radices[:length])
                for _ in range(50)
            ]
            self.assert_rows_equal_decode_state(sp, keys)

    def test_saturating_steps(self):
        # full-range steps clip at a bound on almost every slot, three cycles
        sp = make_tiny_space(cycles=3, step_fraction=1.0)
        ranges = [range(r) for r in sp.slot_radices]
        for length in range(sp.slots + 1):
            keys = list(itertools.product(*ranges[:length]))
            self.assert_rows_equal_decode_state(sp, keys)

    @pytest.mark.parametrize("cycles", [1, 2])
    def test_step_tables_built_once_per_space(self, space, cycles):
        import dataclasses

        sp = dataclasses.replace(space, cycles=cycles)
        column_of = {p.name: j for j, p in enumerate(sp.parameters)}
        assert len(sp.slot_steps) == sp.slots
        for t, table in enumerate(sp.slot_steps):
            expected = np.zeros((sp.slot_radices[t], len(sp.parameters)))
            for a, action in enumerate(sp.slot_group(t).actions):
                for name, sign in action.signs.items():
                    p = sp.parameters[column_of[name]]
                    expected[a, column_of[name]] = (
                        sp.slot_eta(t) * sp.step_fraction * sign * (p.upper - p.lower)
                    )
            assert np.array_equal(table, expected)
            assert not table.flags.writeable
        assert sp.slot_steps is sp.slot_steps

    def test_parameter_arrays_built_once_per_space(self, space):
        lower, upper, baseline = space.parameter_arrays
        for array, field in ((lower, "lower"), (upper, "upper"), (baseline, "baseline")):
            assert array.tolist() == [getattr(p, field) for p in space.parameters]
            assert not array.flags.writeable
        assert space.parameter_arrays is space.parameter_arrays

    def test_invalid_keys_rejected(self, tiny_space):
        with pytest.raises(ValueError, match="slot 1: action index 3 out of range"):
            decode_batch(tiny_space, [(0, 1), (1, 3)])
        with pytest.raises(ValueError, match="exceeds"):
            decode_batch(tiny_space, [(0, 0, 0)])


ENUMERABLE_SPACES = {
    "tiny": make_tiny_space,
    "tiny-3-cycle": lambda: make_tiny_space(cycles=3),
    "builtin": builtin_space,
    "2-cycle": make_two_cycle_space,
}


# Terminal count of each enumerable space, the product of its radices
TERMINALS = {"tiny": 6, "tiny-3-cycle": 216, "builtin": 2625, "2-cycle": 5625}


class TestEnumeration:
    @pytest.mark.parametrize("name", ENUMERABLE_SPACES)
    def test_rows_are_the_product_in_order(self, name):
        # every key once, in lexicographic order: the product of the ranges
        sp = ENUMERABLE_SPACES[name]()
        keys = all_keys(sp)
        assert len(keys) == sp.terminal_count() == TERMINALS[name]
        assert keys.shape == (sp.terminal_count(), sp.slots)
        assert keys.dtype.kind == "i"
        assert key_tuples(keys) == list(itertools.product(*map(range, sp.slot_radices)))

    @pytest.mark.parametrize("name", ENUMERABLE_SPACES)
    def test_place_value_index_of_row_i_is_i(self, name):
        sp = ENUMERABLE_SPACES[name]()
        keys = all_keys(sp)
        assert np.array_equal(keys @ place_values(sp.slot_radices), np.arange(len(keys)))

    def test_two_cycle_space_size(self):
        sp = make_two_cycle_space()
        assert sp.slot_radices == (3, 5, 1, 5, 1) * 2
        assert sp.terminal_count() == 5625


class TestNeighbors:
    def test_builtin_degree(self, space):
        key = (0, 0, 0, 0, 0)
        assert len(neighbors(space, key)) == (3 - 1) + 3 * (5 - 1) + (7 - 1) == 20

    def test_symmetry(self, tiny_space):
        for a in key_tuples(all_keys(tiny_space)):
            for b in neighbors(tiny_space, a):
                assert a in neighbors(tiny_space, b)

    def test_non_terminal_rejected(self, tiny_space):
        with pytest.raises(ValueError, match="terminal"):
            neighbors(tiny_space, (0,))


def test_key_text():
    assert key_text((2, 1, 0, 3, 4)) == "2-1-0-3-4"
    assert key_text([10, 0]) == "10-0"
    # a row of an int array writes as its tuple does
    assert key_text(all_keys(make_tiny_space())[5]) == key_text((1, 2)) == "1-2"


def test_key_bytes_roundtrip(space):
    for key in [(0, 0, 0, 0, 0), (2, 4, 4, 4, 6), (1, 2, 3, 0, 5)]:
        assert tuple(key_bytes(key)) == key  # one byte per slot
    encoded = {key_bytes(k) for k in key_tuples(all_keys(space))}
    assert len(encoded) == 2625  # injective
