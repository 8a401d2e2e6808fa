"""Property tests: vectorized packed ops agree with the scalar reference."""

from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import equivalence, packed
from repro.core.packed_np import (
    GATHER_MAX_WORDS,
    all_variants_np,
    as_words,
    canonical_conjugation_only_np,
    canonical_np,
    canonical_variant,
    class_sizes_np,
    compose_np,
    conjugate_adjacent_np,
    conjugation_signature_np,
    expand_classes_np,
    inverse_np,
    is_valid_np,
    relabelings_np,
)
from repro.hashing.wang import hash64shift


def word_lists(n_wires, max_len=40):
    size = 1 << n_wires
    return st.lists(
        st.permutations(list(range(size))).map(packed.pack),
        min_size=1,
        max_size=max_len,
    )


@given(word_lists(4))
def test_inverse_np_matches_scalar(words):
    arr = as_words(words)
    expected = [packed.inverse(w, 4) for w in words]
    assert inverse_np(arr, 4).tolist() == expected


@given(word_lists(4), st.permutations(list(range(16))).map(packed.pack))
def test_compose_np_matches_scalar(words, q):
    arr = as_words(words)
    expected = [packed.compose(w, q, 4) for w in words]
    assert compose_np(arr, np.uint64(q), 4).tolist() == expected


@given(word_lists(3), st.permutations(list(range(8))).map(packed.pack))
def test_compose_np_matches_scalar_n3(words, q):
    arr = as_words(words)
    expected = [packed.compose(w, q, 3) for w in words]
    assert compose_np(arr, np.uint64(q), 3).tolist() == expected


@given(word_lists(4))
def test_conjugate_adjacent_np_matches_scalar(words):
    arr = as_words(words)
    for pair in range(3):
        expected = [packed.conjugate_adjacent(w, pair, 4) for w in words]
        assert conjugate_adjacent_np(arr, pair, 4).tolist() == expected


@given(word_lists(4, max_len=25))
@settings(deadline=None)
def test_canonical_np_matches_scalar(words):
    arr = as_words(words)
    expected = [equivalence.canonical(w, 4) for w in words]
    assert canonical_np(arr, 4).tolist() == expected


@given(word_lists(3, max_len=25))
@settings(deadline=None)
def test_canonical_np_matches_scalar_n3(words):
    arr = as_words(words)
    expected = [equivalence.canonical(w, 3) for w in words]
    assert canonical_np(arr, 3).tolist() == expected


@given(word_lists(2, max_len=25))
def test_canonical_np_matches_scalar_n2(words):
    arr = as_words(words)
    expected = [equivalence.canonical(w, 2) for w in words]
    assert canonical_np(arr, 2).tolist() == expected


@given(
    st.integers(min_value=3, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.permutations(list(range(1 << n))).map(packed.pack),
                min_size=GATHER_MAX_WORDS + 1,
                max_size=GATHER_MAX_WORDS + 40,
            ),
        )
    )
)
@settings(deadline=None, max_examples=10)
def test_canonical_np_matches_scalar_past_crossover(case):
    """Lists longer than the crossover take the fold kernel."""
    n_wires, words = case
    expected = [equivalence.canonical(w, n_wires) for w in words]
    assert canonical_np(as_words(words), n_wires).tolist() == expected


def test_canonical_np_exhaustive_n3():
    """Every 3-wire function, in chunks that select each kernel."""
    words = [packed.pack(list(p)) for p in permutations(range(8))]
    expected = [equivalence.canonical(w, 3) for w in words]
    arr = as_words(words)
    for chunk in (1, 7, GATHER_MAX_WORDS, GATHER_MAX_WORDS + 1, len(words)):
        got = np.concatenate(
            [
                canonical_np(arr[start : start + chunk], 3)
                for start in range(0, len(words), chunk)
            ]
        )
        assert got.tolist() == expected, chunk


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.permutations(list(range(1 << n))).map(packed.pack)
        )
    )
)
@settings(deadline=None)
def test_canonical_variant_names_the_winning_variant(case):
    """The reported relabeling of the word (or of its inverse) is the
    canonical representative."""
    n_wires, word = case
    canon, relabeling, inverted = canonical_variant(word, n_wires)
    assert canon == equivalence.canonical(word, n_wires)
    source = packed.inverse(word, n_wires) if inverted else word
    assert int(relabelings_np([source], n_wires)[0, relabeling]) == canon


@given(word_lists(4, max_len=10))
@settings(deadline=None)
def test_relabelings_np_are_the_conjugates(words):
    rows = relabelings_np(as_words(words), 4).tolist()
    for word, row in zip(words, rows):
        assert row[0] == word  # relabeling 0 is the identity
        assert sorted(row) == sorted(equivalence.conjugates(word, 4))


def _signature_reference(word, n_wires):
    """conjugation_signature_np by its definition, one state at a time."""

    def pop(value):
        return bin(value).count("1")

    f = [packed.get(word, x) for x in range(1 << n_wires)]
    total = 0
    for x, fx in enumerate(f):
        near = sum(pop(fx ^ f[x ^ (1 << i)]) for i in range(n_wires))
        code = 17 * (3 * pop(fx) + pop(x ^ fx) // 2) + near
        total += hash64shift(pop(x) << 8 | code)
    return total % (1 << 64)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1,
                max_size=20,
            ),
        )
    )
)
@settings(deadline=None)
def test_conjugation_signature_matches_its_definition(case):
    """Any uint64 word at every wire count: only the states x < 2^n and
    the directions i < n count."""
    n_wires, words = case
    expected = [_signature_reference(w, n_wires) for w in words]
    assert conjugation_signature_np(as_words(words), n_wires).tolist() == expected


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.permutations(list(range(1 << n))).map(packed.pack),
                min_size=1,
                max_size=10,
            ),
        )
    )
)
@settings(deadline=None)
def test_conjugation_signature_is_relabeling_invariant(case):
    n_wires, words = case
    rows = relabelings_np(as_words(words), n_wires)
    signatures = conjugation_signature_np(rows.ravel(), n_wires).reshape(rows.shape)
    expected = conjugation_signature_np(as_words(words), n_wires)
    assert (signatures == expected[:, None]).all()


def test_conjugation_signature_ignores_empty_lanes_and_separates_classes():
    """n = 1..3: the nibbles of states >= 2^n do not count, and distinct
    signatures number at least 85% of the relabeling classes (6,082 of
    6,828 for n = 3), so a filter of them rejects most absent words."""
    for n_wires in (1, 2, 3):
        size = 1 << n_wires
        words = as_words([packed.pack(list(p)) for p in permutations(range(size))])
        signatures = conjugation_signature_np(words, n_wires)
        garbage = np.uint64(0x9E37_79B9_7F4A_7C15) << np.uint64(4 * size)
        assert np.array_equal(
            conjugation_signature_np(words | garbage, n_wires), signatures
        )
        relabeling_classes = np.unique(canonical_conjugation_only_np(words, n_wires))
        assert np.unique(signatures).size >= 0.85 * relabeling_classes.size


def test_canonical_np_empty_batch():
    for n_wires in (2, 3, 4):
        result = canonical_np(np.empty(0, dtype=np.uint64), n_wires)
        assert result.shape == (0,) and result.dtype == np.uint64


@given(word_lists(4, max_len=15))
@settings(deadline=None)
def test_class_sizes_np_matches_scalar(words):
    arr = as_words(words)
    expected = [equivalence.class_size(w, 4) for w in words]
    assert class_sizes_np(arr, 4).tolist() == expected


@given(word_lists(4, max_len=10))
@settings(deadline=None)
def test_all_variants_cover_equivalence_class(words):
    arr = as_words(words)
    variants = all_variants_np(arr, 4)
    assert variants.shape == (48, len(words))
    for column, word in enumerate(words):
        expected = equivalence.equivalence_class(word, 4)
        assert set(variants[:, column].tolist()) == expected


@given(word_lists(4, max_len=8))
@settings(deadline=None)
def test_expand_classes_np(words):
    arr = as_words(words)
    expanded = expand_classes_np(arr, 4)
    expected = set()
    for word in words:
        expected |= equivalence.equivalence_class(word, 4)
    assert set(expanded.tolist()) == expected
    assert np.all(np.diff(expanded.astype(np.uint64)) > 0)  # sorted, unique


def test_canonical_conjugation_only_smaller_or_equal():
    rng = np.random.default_rng(3)
    values = np.arange(16)
    words = []
    for _ in range(50):
        rng.shuffle(values)
        words.append(packed.pack(values.tolist()))
    arr = as_words(words)
    with_inverse = canonical_np(arr, 4)
    without_inverse = canonical_conjugation_only_np(arr, 4)
    assert np.all(with_inverse <= without_inverse)
    assert np.all(without_inverse <= arr)


def test_is_valid_np():
    good = as_words([packed.identity(4), packed.pack(list(range(15, -1, -1)))])
    assert is_valid_np(good, 4).all()
    bad = as_words([packed.EMPTY_WORD, np.uint64(0)])
    assert not is_valid_np(bad, 4).any()
    # n = 3 with stray high bits is invalid.
    tainted = as_words([packed.identity(3) | (1 << 40)])
    assert not is_valid_np(tainted, 3).any()
