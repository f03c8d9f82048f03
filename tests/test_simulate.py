import hashlib
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsets import (
    DomainError, SimConfig, formats, graded_fusion, intervals, simulate, simulate_round, simulate_rounds,
)
from references import nested

BASE = dict(
    num_sensors=7,
    truth=3.0,
    correct_halfwidth_max=1.0,
    num_faulty=2,
    fault_offset_min=2.5,
    seed=42,
)


def config(**overrides) -> SimConfig:
    return SimConfig(**{**BASE, **overrides})


class TestSimConfig:
    def test_valid_config(self):
        config()

    @pytest.mark.parametrize(
        "overrides,msg",
        [
            (dict(num_sensors=0), "at least one sensor"),
            (dict(truth=float("nan")), "finite"),
            (dict(correct_halfwidth_max=0.0), "positive"),
            (dict(fault_offset_min=-1.0), "positive"),
            (dict(num_faulty=7), "less than num_sensors"),
            (dict(num_faulty=-1), "less than num_sensors"),
            (dict(fault_offset_min=0.5), "exceed"),
            (dict(seed=-1), "64-bit"),
            (dict(seed=2**64), "64-bit"),
            # with no faulty sensor an infinite offset is never drawn, but the report shows it
            (dict(fault_offset_min=float("inf"), num_faulty=0), "finite"),
            # the counts and the seed take an int that is not a bool, the reals an int or a float
            (dict(num_sensors=3.5), "^num_sensors must be an integer$"),
            (dict(num_faulty=1.0), "^num_faulty must be an integer$"),
            (dict(num_faulty=True), "^num_faulty must be an integer$"),
            (dict(seed=1.0), "^seed must be an integer$"),
            (dict(seed=False), "^seed must be an integer$"),
            (dict(truth="0"), "^truth must be an int or a float$"),
            (dict(truth=True), "^truth must be an int or a float$"),
            (dict(correct_halfwidth_max=None), "^correct_halfwidth_max must be an int or a float$"),
            (dict(fault_offset_min="2.5"), "^fault_offset_min must be an int or a float$"),
            (dict(truth=10**400), "^truth is out of the range of a float$"),
        ],
        # the ids pytest built from the messages before they were written out, so a reworded message keeps them
        ids=[
            "overrides0-at least one sensor", "overrides1-finite", "overrides2-positive", "overrides3-positive",
            "overrides4-less than num_sensors", "overrides5-less than num_sensors", "overrides6-exceed",
            "overrides7-64-bit", "overrides8-64-bit", "overrides9-finite",
            "overrides10-^num_sensors must be an integer$", "overrides11-^num_faulty must be an integer$",
            "overrides12-^num_faulty must be an integer$", "overrides13-^seed must be an integer$",
            "overrides14-^seed must be an integer$", "overrides15-^truth must be an int or a float$",
            "overrides16-^truth must be an int or a float$",
            "overrides17-^correct_halfwidth_max must be an int or a float$",
            "overrides18-^fault_offset_min must be an int or a float$",
            "overrides19-^truth is out of the range of a float$",
        ],
    )
    def test_invalid_configs(self, overrides, msg):
        with pytest.raises(DomainError, match=msg):
            config(**overrides)

    def test_equal_configs_draw_equal_rounds(self):
        # the round streams are seeded from the seed's text, so an equal config must hold the same values
        ints = config(truth=3, correct_halfwidth_max=1, fault_offset_min=2.5)
        assert ints == config() and hash(ints) == hash(config())
        assert list(simulate_rounds(ints, 5)) == list(simulate_rounds(config(), 5))


class TestSimulateRound:
    def test_deterministic_for_seed_and_round(self):
        a = simulate_round(config(), 5)
        b = simulate_round(config(), 5)
        assert a == b

    def test_rounds_draw_from_independent_streams(self):
        a = simulate_round(config(), 0)
        b = simulate_round(config(), 1)
        assert a.intervals != b.intervals

    def test_seeds_change_the_outcome(self):
        a = simulate_round(config(seed=1), 0)
        b = simulate_round(config(seed=2), 0)
        assert a.intervals != b.intervals

    def test_fault_census(self):
        out = simulate_round(config(), 0)
        assert len(out.faulty_indices) == BASE["num_faulty"]
        for i, iv in enumerate(out.intervals):
            if i in out.faulty_indices:
                assert not iv.contains_point(BASE["truth"])
            else:
                assert iv.contains_point(BASE["truth"])

    def test_no_faults_means_containment_at_zero(self):
        out = simulate_round(config(num_faulty=0), 3)
        assert out.truth_containment[0] is True

    def test_containment_from_fault_count_onward(self):
        for round_index in range(50):
            out = simulate_round(config(), round_index)
            for f in range(BASE["num_faulty"], BASE["num_sensors"]):
                level = out.fused.level(f)
                assert out.truth_containment[f] is True
                assert level is not None and level.contains_point(BASE["truth"])

    def test_fused_chain_covers_every_budget(self):
        out = simulate_round(config(), 0)
        assert out.fused.f_min == 0
        assert out.fused.f_max == BASE["num_sensors"] - 1
        assert len(out.truth_containment) == BASE["num_sensors"]

    def test_chain_is_nested_on_generated_data(self):
        out = simulate_round(config(), 9)
        for inner, outer in zip(out.fused.levels, out.fused.levels[1:]):
            assert nested(inner, outer)

    def test_negative_round_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            simulate_round(config(), -1)

    @pytest.mark.parametrize("index", [0.0, True, "0"])
    def test_round_index_must_be_an_int(self, index):
        with pytest.raises(DomainError, match="^round index must be an integer$"):
            simulate_round(config(), index)

    @pytest.mark.parametrize("count", [2.0, True, "2"])
    def test_round_count_must_be_an_int(self, count):
        with pytest.raises(DomainError, match="^round count must be an integer$"):
            simulate_rounds(config(), count)

    def test_faulty_interval_rounded_onto_truth_rejected(self):
        # at truth 1e20 a displacement of a few units is below one float step
        with pytest.raises(DomainError, match="faulty sensor .* contains the truth"):
            simulate_round(config(truth=1e20), 0)

    def test_single_sensor_round(self):
        out = simulate_round(config(num_sensors=1, num_faulty=0), 0)
        assert out.truth_containment == (True,)


class _ScriptedRng:
    """A round's generator with scripted draws: the first bit draws are `faulty`, which a pool of
    three sensors takes as they are, and every later one is 1, so every side is +1."""

    def __init__(self, draws, faulty):
        self.draws, self.bits = list(draws), list(faulty)

    def seed(self, x):
        pass

    def getrandbits(self, k):
        return self.bits.pop(0) if self.bits else 1

    def random(self):
        return self.draws.pop(0)


class TestRoundChecks:
    """Each sensor is checked as it is drawn: its endpoints are finite first, then
    placed against the truth, so a round names its first bad sensor."""

    CFG = SimConfig(3, 0.0, 1.0, 1, 2.5, 0)

    @pytest.mark.parametrize(
        "draws, faulty, message",
        [
            # sensor 0 correct with u < 0, so its lower end passes the truth
            pytest.param([1.5, 0.5] + [0.5] * 5, [2], "round 4: correct sensor 0 misses the truth",
                         id="draws0-faulty0-round 4: correct sensor 0 misses the truth"),
            # sensor 1 faulty with a zero offset, centred on the truth
            pytest.param([0.5] * 4 + [-1.0, 0.5, 0.5], [1],
                         "round 4: faulty sensor 1 contains the truth after float rounding",
                         id="draws1-faulty1-round 4: faulty sensor 1 contains the truth after float rounding"),
            # sensor 0 holds the truth at an infinite end, and sensor 1 would miss it; an endpoint
            # fault is worded by the interval constructor, and the ids are the ones pytest built from
            # the messages before they were written out
            pytest.param([-math.inf, 0.5, 1.5] + [0.5] * 5, [2],
                         "round 4: correct sensor 0: interval endpoints must be finite",
                         id="draws2-faulty2-interval endpoints must be finite"),
            pytest.param([math.nan, 0.5, 1.5] + [0.5] * 5, [2],
                         "round 4: correct sensor 0: interval endpoints must be finite",
                         id="draws3-faulty3-interval endpoints must be finite"),
            pytest.param([0.5] * 4 + [math.nan, 0.5, 0.5], [1],
                         "round 4: faulty sensor 1: interval endpoints must be finite",
                         id="draws4-faulty4-interval endpoints must be finite"),
            pytest.param([3.0, 0.999] + [0.5] * 5, [2],
                         "round 4: correct sensor 0: "
                         "interval lower endpoint 2.0 exceeds upper endpoint 0.0010000000000000009",
                         id="draws5-faulty5-interval lower endpoint 2.0 exceeds upper endpoint 0.0010000000000000009"),
        ],
    )
    def test_first_bad_sensor_is_named(self, monkeypatch, draws, faulty, message):
        monkeypatch.setattr(simulate, "Random", lambda seed: _ScriptedRng(draws, faulty))
        with pytest.raises(DomainError) as info:
            simulate_round(self.CFG, 4)
        assert str(info.value) == message

    def test_a_point_level_that_misses_the_truth_is_not_empty(self, monkeypatch):
        # the faulty sensor's lower end meets both correct sensors' upper ends at 1.5, so level 0 is
        # the point [1.5, 1.5]: it misses the truth and is not empty, so the report writes it
        draws = [0.5, -0.5, 0.5, -0.5, 0.0, 0.5, 0.0]
        monkeypatch.setattr(simulate, "Random", lambda seed: _ScriptedRng(draws, [2]))
        drawn, = simulate._draw_rounds(self.CFG, [4])
        simulate._check_round(self.CFG, 4, drawn)
        assert drawn[5:] == (1, 0)
        assert '"levels":[[1.5,1.5],[-0.5,1.5],[-0.5,3]]' in "".join(formats.simulation_chunks(self.CFG, [drawn]))

    @given(st.integers(1, 101), st.data())
    def test_levels_are_checked_for_nesting_every_round(self, n, data):
        # the kernel checks no chain: the levels read through its sort orders are the fusion's order
        # statistics, nested by construction, and its counts are of the leading levels that miss the
        # truth and of the leading levels that are empty; near the rounding edge ends tie, so a level
        # can be a point that misses the truth
        cfg = _random_config(n, data) if data.draw(st.booleans()) else _edge_config(data)
        n = cfg.num_sensors
        (los, his, _, lo_order, hi_order, missing, empty), = simulate._draw_rounds(
            cfg, [data.draw(st.integers(0, 10**6))])
        assert sorted(lo_order) == sorted(hi_order) == list(range(n))
        lows, highs = [los[i] for i in lo_order], [his[j] for j in hi_order]
        assert (lows, highs) == (sorted(los, reverse=True), sorted(his))
        for lo, hi, outer_lo, outer_hi in zip(lows, highs, lows[1:], highs[1:]):
            assert lo > hi or outer_lo <= lo <= hi <= outer_hi
        hits = [lo <= cfg.truth <= hi for lo, hi in zip(lows, highs)]
        assert hits == [False] * missing + [True] * (n - missing)
        crossed = [lo > hi for lo, hi in zip(lows, highs)]
        assert crossed == [True] * empty + [False] * (n - empty)
        assert empty <= missing

    def test_public_round_is_read_off_the_kernel(self):
        (los, his, faulty, lo_order, hi_order, missing, empty), = simulate._draw_rounds(config(), [3])
        out = simulate_round(config(), 3)
        assert out.faulty_indices == set(faulty) and faulty == sorted(faulty)
        assert [(iv.lo, iv.hi) for iv in out.intervals] == list(zip(los, his))
        assert [None if lv is None else (lv.lo, lv.hi) for lv in out.fused.levels] == [
            (los[i], his[j]) if los[i] <= his[j] else None for i, j in zip(lo_order, hi_order)
        ]
        assert out.fused.levels[:empty] == (None,) * empty
        assert out.truth_containment == (False,) * missing + (True,) * (len(los) - missing)

    def test_a_round_sorts_its_endpoints_once(self, monkeypatch):
        # the fusion kernel sorts the sensors once each way, and the levels are read through those
        # orders, not sorted again, by the kernel or by graded_fusion
        calls = []

        def counted(items, **kwargs):
            calls.append((type(items), kwargs.get("reverse", False)))
            return sorted(items, **kwargs)

        monkeypatch.setattr(simulate, "sorted", counted, raising=False)
        monkeypatch.setattr(intervals, "sorted", counted, raising=False)
        simulate_round(config(), 0)
        # the sensors by lower end descending and by upper end ascending, then the faulty indices
        assert calls == [(range, True), (range, False), (set, False)]


def _random_config(n, data) -> SimConfig:
    width = data.draw(st.floats(0.01, 10.0))
    return SimConfig(n, data.draw(st.floats(-1e3, 1e3)), width, data.draw(st.integers(0, n - 1)),
                     width * data.draw(st.floats(1.01, 10.0)), data.draw(st.integers(0, 2**64 - 1)))


@given(st.integers(1, 101), st.data())
def test_round_levels_equal_graded_fusion_of_its_intervals(n, data):
    # the independent cross-check: the round's chain is what the public fusion makes of its intervals
    cfg = _random_config(n, data)
    out = simulate_round(cfg, data.draw(st.integers(0, 10**6)))
    assert out.fused == graded_fusion(out.intervals, 0, n - 1)


@given(st.integers(1, 101), st.data())
def test_round_containment_follows_its_definition(n, data):
    # the kernel counts leading levels; each flag must still be what its definition says, level by level
    cfg = _random_config(n, data)
    out = simulate_round(cfg, data.draw(st.integers(0, 10**6)))
    assert out.truth_containment == tuple(
        out.fused.level(f) is not None and out.fused.level(f).contains_point(cfg.truth) for f in range(n)
    )
    empty = [out.fused.level(f) is None for f in range(n)]
    assert empty == sorted(empty, reverse=True)  # the empty levels are a prefix


def _edge_config(data) -> SimConfig:
    """A config near the rounding edge: |truth| up to 2**60 and fault_offset_min a few ulps above the width."""
    n = data.draw(st.integers(1, 5))
    # half the truths are near the width's scale, where the bound starts to decline, and half about
    # 2**53 times the width, where a faulty centre can round onto the truth
    scale = data.draw(st.integers(-4, 58))
    width = data.draw(st.floats(1.0, 2.0)) * 2.0**scale
    truth = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(1.0, 2.0)) * 2.0 ** min(
        59, scale + data.draw(st.one_of(st.integers(-6, 2), st.integers(48, 60))))
    offset_min = width
    for _ in range(data.draw(st.integers(1, 8))):
        offset_min = math.nextafter(offset_min, math.inf)
    faulty, seed = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2**64 - 1))
    return SimConfig(n, truth, width, faulty, offset_min, seed)


@given(st.data())
def test_no_round_fails_where_the_bound_holds(data):
    # the bound lets the CLI write a report before its last round has run; a round that raised
    # after that would leave a partial report on stdout
    cfg = _edge_config(data)
    assume(simulate._no_round_can_fail(cfg))
    for k, drawn in enumerate(simulate._draw_rounds(cfg, range(200))):
        simulate._check_round(cfg, k, drawn)


def _stdlib_round(config: SimConfig, round_index: int):
    """The round drawn with the standard library's own calls: a ``random.Random`` seeded with the first
    8 bytes, big-endian, of the SHA-256 of ASCII "{seed}:{round}", the faulty set from its ``sample``
    and each faulty side from its ``choice``; (faulty, lo, hi) for each sensor in sensor order."""
    digest = hashlib.sha256(f"{config.seed}:{round_index}".encode("ascii")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    faulty = set(rng.sample(range(config.num_sensors), config.num_faulty))
    truth, width, offset_min = config.truth, config.correct_halfwidth_max, config.fault_offset_min
    for i in range(config.num_sensors):
        u = width * (1.0 - rng.random())
        v = width * (1.0 - rng.random())
        if i in faulty:
            center = truth + rng.choice((-1.0, 1.0)) * (offset_min * (1.0 + rng.random()))
            yield True, center - u, center + v
        else:
            yield False, truth - u, truth + v


def _in_loop_checks(config: SimConfig, round_index: int):
    """The round drawn as the kernel once drew it, each sensor checked as it is drawn: the endpoints
    up to the first unsound sensor, and that sensor's message or None."""
    truth = config.truth
    los, his = [], []
    for i, (faulty, lo, hi) in enumerate(_stdlib_round(config, round_index)):
        los.append(lo)
        his.append(hi)
        sensor = f"round {round_index}: {'faulty' if faulty else 'correct'} sensor {i}"
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return los, his, f"{sensor}: interval endpoints must be finite"
        if lo > hi:
            return los, his, f"{sensor}: interval lower endpoint {lo} exceeds upper endpoint {hi}"
        if faulty and lo <= truth <= hi:
            return los, his, f"{sensor} contains the truth after float rounding"
        if not faulty and not lo <= truth <= hi:
            return los, his, f"{sensor} misses the truth"
    return los, his, None


@given(st.data())
def test_a_reports_rounds_are_the_standard_library_draws(data):
    # the kernel reads the faulty set and the sides off getrandbits: they must be what sample and
    # choice draw, on both sides of sample's set size (a pool of the indices up to it, a set of the
    # indices taken past it), and each round of one report's generator must be the round drawn alone,
    # in any order
    pooled = data.draw(st.booleans())
    # past k = 341 the set size passes 3000 sensors, so only a pool is drawn
    k = data.draw(st.one_of(st.integers(0, 5), st.integers(6, 2999 if pooled else 341)))
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    # a set of indices draws below n alone, so n is a power of two at times: there a draw takes one bit
    # more than the bits of n - 1
    n = data.draw(st.integers(k + 1, min(setsize, 3000)) if pooled else st.one_of(
        st.integers(setsize + 1, 3000), st.sampled_from([2**p for p in range(12) if setsize < 2**p])))
    width = data.draw(st.floats(0.01, 10.0))
    cfg = SimConfig(n, data.draw(st.floats(-1e3, 1e3)), width, k, width * data.draw(st.floats(1.01, 10.0)),
                    data.draw(st.integers(0, 2**64 - 1)))
    indices = data.draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=4))
    for round_index, drawn in zip(indices, simulate._draw_rounds(cfg, indices), strict=True):
        sides, los, his = zip(*_stdlib_round(cfg, round_index))
        assert drawn[:3] == (list(los), list(his), [i for i, faulty in enumerate(sides) if faulty])


def _bound_config(data) -> SimConfig:
    """A config on either side of the bound: |truth| up to 1e300 or between 2**53 and 1e16, a width
    from 2**-20 to 2**1022, where an offset can overflow, and fault_offset_min a few ulps above it."""
    n = data.draw(st.integers(1, 8))
    truth = data.draw(st.one_of(
        st.floats(-1e300, 1e300),
        st.builds(float.__mul__, st.sampled_from([-1.0, 1.0]), st.floats(2.0**53, 1e16)),
    ))
    width = data.draw(st.floats(1.0, 2.0)) * 2.0 ** data.draw(st.integers(-20, 1022))
    offset_min = width
    for _ in range(data.draw(st.integers(1, 8))):
        offset_min = math.nextafter(offset_min, math.inf)
    return SimConfig(n, truth, width, data.draw(st.integers(0, n - 1)), offset_min,
                     data.draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=300)
@given(st.data())
def test_the_checker_raises_what_the_in_loop_checks_raised(data):
    # the kernel draws and the checker checks: together they must draw and raise what the kernel did
    # when it checked each sensor as it drew it, and nothing where the bound clears the config
    cfg = _bound_config(data)
    cleared = simulate._no_round_can_fail(cfg)
    for k, drawn in enumerate(simulate._draw_rounds(cfg, range(20))):
        los, his, expected = _in_loop_checks(cfg, k)
        assert (drawn[0][:len(los)], drawn[1][:len(his)]) == (los, his)
        try:
            simulate._check_round(cfg, k, drawn)
        except DomainError as exc:
            assert str(exc) == expected and not cleared
        else:
            assert expected is None


@pytest.mark.parametrize("overrides, holds", [
    ({}, True),
    (dict(truth=0.0, correct_halfwidth_max=1.0, fault_offset_min=2.5), True),
    (dict(truth=-40.0, correct_halfwidth_max=2.0, fault_offset_min=5.0), True),
    (dict(truth=2.0**55), False),
    (dict(truth=1e16, correct_halfwidth_max=1.0, fault_offset_min=2.5), False),
    (dict(truth=1e20), False),
    (dict(truth=2.0**53, correct_halfwidth_max=1.0, fault_offset_min=2.5), False),
    (dict(truth=-(2.0**53), correct_halfwidth_max=1.0, fault_offset_min=2.5), False),
    (dict(truth=-1.7e308, correct_halfwidth_max=1e307, fault_offset_min=2e307), False),
    (dict(correct_halfwidth_max=1e308, fault_offset_min=1.5e308), False),
], ids=["base", "cli-defaults", "bench-101x200", "truth-2**55", "truth-1e16", "truth-1e20", "truth-2**53",
        "truth--2**53", "endpoint-overflow", "offset-overflow"])
def test_the_bound_on_fixed_configs(overrides, holds):
    # at 2**53 only the test of a centre above the truth declines, at -2**53 only the one below it
    assert simulate._no_round_can_fail(config(**overrides)) is holds


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("round_index", [0, 1, 10**6])
def test_round_seed_is_the_sha256_prefix(monkeypatch, seed, round_index):
    # the documented derivation: after another round, the report's generator is reseeded to the
    # state that random.Random starts in from the first 8 bytes, big-endian, of the SHA-256 of
    # ASCII "{seed}:{round}"
    states = []

    class Recorded(random.Random):
        def seed(self, *args):
            super().seed(*args)
            states.append(self.getstate())

    monkeypatch.setattr(simulate, "Random", Recorded)
    list(simulate._draw_rounds(config(seed=seed), [7, round_index]))
    digest = hashlib.sha256(f"{seed}:{round_index}".encode("ascii")).digest()
    assert states[-1] == random.Random(int.from_bytes(digest[:8], "big")).getstate()


class TestSimulateRounds:
    def test_returns_requested_rounds(self):
        outs = simulate_rounds(config(), 5)
        assert len(list(outs)) == 5

    def test_rounds_are_individually_reproducible(self):
        outs = simulate_rounds(config(), 4)
        for i, out in enumerate(outs):
            assert out == simulate_round(config(), i)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            simulate_rounds(config(), -1)

    def test_negative_count_rejected_before_any_round_runs(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulate, "_draw_rounds", lambda cfg, ks: drawn.extend(ks))
        with pytest.raises(DomainError, match="round count must be nonnegative"):
            simulate_rounds(config(), -1)
        assert drawn == []

    def test_iterators_advanced_alternately_draw_what_each_draws_alone(self):
        # the kernel keeps no state between rounds, so interleaved callers cannot disturb each other
        a_cfg, b_cfg = config(), config(seed=7, num_sensors=5, num_faulty=1)
        a, b = simulate_rounds(a_cfg, 6), simulate_rounds(b_cfg, 6)
        interleaved = [(next(a), next(b)) for _ in range(6)]
        assert [x for x, _ in interleaved] == list(simulate_rounds(a_cfg, 6))
        assert [y for _, y in interleaved] == list(simulate_rounds(b_cfg, 6))

    def test_rounds_are_drawn_as_the_iterator_reaches_them(self, monkeypatch):
        expected = [simulate_round(config(), k) for k in range(3)]
        draw, drawn = simulate._draw_rounds, []

        def recorded(cfg, ks):
            for k, round_drawn in zip(ks, draw(cfg, ks)):
                drawn.append(k)
                yield round_drawn

        monkeypatch.setattr(simulate, "_draw_rounds", recorded)
        outs = simulate_rounds(config(), 3)
        assert drawn == []
        assert next(outs) == expected[0] and drawn == [0]
        assert list(outs) == expected[1:] and drawn == [0, 1, 2]

    @pytest.mark.parametrize("rounds", [1, 5])
    def test_a_call_builds_one_generator(self, monkeypatch, rounds):
        # one generator, reseeded for each round, serves every round of one iterator
        built = []

        class Counted(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(simulate, "Random", Counted)
        assert len(list(simulate_rounds(config(), rounds))) == rounds
        assert len(built) == 1


def test_containment_guarantee_over_many_seeded_rounds():
    # system-level check of the guarantee: with k injected faults the
    # fused level at every budget >= k recovers the truth
    cases = 0
    for seed in (11, 97, 2024):
        for faulty in (0, 1, 3):
            cfg = config(seed=seed, num_faulty=faulty, num_sensors=8)
            for out in simulate_rounds(cfg, 60):
                for f in range(faulty, 8):
                    assert out.truth_containment[f] is True
                cases += 1
    assert cases >= 500
