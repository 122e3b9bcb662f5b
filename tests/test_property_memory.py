"""Property-based tests of the cache/hierarchy against reference models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressMap, PrivateHierarchy, SpeculativeCache

AMAP = AddressMap(line_size=32, word_size=4)

# Operation alphabet for the cache model check
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("fill"), st.integers(0, 15), st.integers(0, 1000)),
        st.tuples(st.just("read"), st.integers(0, 15), st.integers(0, 7)),
        st.tuples(st.just("write"), st.integers(0, 15), st.integers(0, 7),
                  st.integers(1, 1000)),
        st.tuples(st.just("inv_words"), st.integers(0, 15),
                  st.integers(1, 255)),
        st.tuples(st.just("commit")),
        st.tuples(st.just("abort")),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops_strategy)
def test_cache_matches_reference_model(ops):
    """A large (conflict-free) cache must behave like a flat dict of
    word values with speculative overlay semantics."""
    cache = SpeculativeCache(AMAP, 64 * 32, 4)  # big enough: no evictions

    # reference: line -> list of (value, valid) per word; None = absent
    model = {}

    def model_line(line):
        return model.get(line)

    for op in ops:
        kind = op[0]
        if kind == "fill":
            _, line, base = op
            data = [base + w for w in range(8)]
            cache.fill(line, data)
            entry = model.setdefault(
                line, {"data": [0] * 8, "valid": 0, "sm": 0, "sr": 0}
            )
            for w in range(8):
                if not entry["valid"] >> w & 1:
                    entry["data"][w] = data[w]
            entry["valid"] = 0xFF
        elif kind == "read":
            _, line, word = op
            got = cache.read(line, word)
            entry = model_line(line)
            if entry is None or not entry["valid"] >> word & 1:
                assert got is None
            else:
                assert got == entry["data"][word]
                entry["sr"] |= 1 << word
        elif kind == "write":
            _, line, word, value = op
            ok = cache.write(line, word, value)
            entry = model_line(line)
            if entry is None:
                assert not ok
            else:
                assert ok
                entry["data"][word] = value
                entry["valid"] |= 1 << word
                entry["sm"] |= 1 << word
        elif kind == "inv_words":
            _, line, mask = op
            cache.invalidate_words(line, mask)
            entry = model_line(line)
            if entry is not None:
                entry["valid"] &= ~mask
                entry["sm"] &= ~mask
                entry["sr"] &= ~mask
                if not entry["valid"]:
                    del model[line]
        elif kind == "commit":
            cache.commit_speculative()
            for entry in model.values():
                entry["sm"] = 0
                entry["sr"] = 0
        elif kind == "abort":
            cache.abort_speculative()
            doomed = [l for l, e in model.items() if e["sm"]]
            for line in doomed:
                del model[line]
            for entry in model.values():
                entry["sr"] = 0

    # Final state equivalence
    for line, entry in model.items():
        cached = cache.lookup(line, touch=False)
        assert cached is not None, line
        assert cached.valid_mask == entry["valid"]
        assert cached.sm_mask == entry["sm"]
        assert cached.sr_mask == entry["sr"]
        for w in range(8):
            if entry["valid"] >> w & 1:
                assert cached.data[w] == entry["data"][w]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=200),
    st.integers(1, 4),
)
def test_cache_capacity_never_exceeded_without_speculation(lines, ways):
    cache = SpeculativeCache(AMAP, ways * 4 * 32, ways)  # 4 sets
    for line in lines:
        cache.fill(line, [0] * 8)
    for bucket in cache.buckets():
        assert len(bucket) <= ways


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=64))
def test_speculative_lines_survive_capacity_pressure(lines):
    cache = SpeculativeCache(AMAP, 2 * 2 * 32, 2)  # 2 sets x 2 ways
    # Speculatively write the first four distinct lines…
    protected = []
    for line in dict.fromkeys(lines):
        if len(protected) == 4:
            break
        cache.fill(line, [0] * 8)
        cache.write(line, 0, 1)
        protected.append(line)
    # …then pressure the cache with clean fills.
    for line in range(100, 140):
        cache.fill(line, [0] * 8)
    for line in protected:
        entry = cache.lookup(line, touch=False)
        assert entry is not None
        assert entry.sm_mask


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 1 << 16)),
    min_size=1, max_size=80,
))
def test_hierarchy_read_your_writes(writes):
    hier = PrivateHierarchy(AMAP, l1_size=4 * 32, l1_ways=2,
                            l2_size=64 * 32, l2_ways=4)
    latest = {}
    for line, word, value in writes:
        if hier.peek(line) is None:
            hier.fill(line, [0] * 8)
        result = hier.store(line, word, value)
        assert result.hit
        latest[(line, word)] = value
    for (line, word), value in latest.items():
        got = hier.load(line, word)
        assert got.hit
        assert got.value == value
