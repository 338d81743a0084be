import math

from hypothesis import given
from hypothesis import strategies as st

from streamctx.text import has_word, term_frequencies, tf_cosine, tokenize


def test_tokenize_lowercases_and_splits_on_punctuation():
    assert tokenize("The Cat, the CAT!") == ["the", "cat", "the", "cat"]


def test_tokenize_keeps_digits():
    assert tokenize("room 42 at 9:30pm") == ["room", "42", "at", "9", "30pm"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("  ...  ") == []


@given(st.text() | st.sampled_from(["???", " İ ", "\u212a", "a", "ß"]))
def test_has_word_is_a_non_empty_tokenize(text):
    assert has_word(text) == bool(tokenize(text))


def test_term_frequencies_counts():
    tf = term_frequencies("a b a c a b")
    assert tf == {"a": 3, "b": 2, "c": 1}


def test_tf_cosine_identical_text_is_one():
    assert tf_cosine("the red ball", "the red ball") == 1.0


def test_tf_cosine_disjoint_is_zero():
    assert tf_cosine("alpha beta", "gamma delta") == 0.0


def test_tf_cosine_empty_is_zero():
    assert tf_cosine("", "anything") == 0.0
    assert tf_cosine("", "") == 0.0


def test_tf_cosine_half_overlap_is_exact():
    # counts (1,1) vs (1,1,0): dot 1, squared norms 2 and 2, so exactly 1/2
    assert tf_cosine("red ball", "ball crate") == 0.5


def test_tf_cosine_partial_overlap():
    # dot 2 over sqrt(2 * 4)
    assert tf_cosine("red ball", "red car blue ball") == 2 / math.sqrt(8)


def test_tf_cosine_order_invariant():
    assert tf_cosine("red ball on mat", "mat on ball red") == 1.0


def test_tf_cosine_repeated_terms_weighted():
    # counts (2,) vs (1,): still parallel, so similarity is exactly 1
    assert tf_cosine("go go", "go") == 1.0
