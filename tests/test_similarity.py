"""Unit and property tests for the similarity metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_expansion import seed_similarity

from repro.similarity import (
    TfIdfScorer,
    character_ngrams,
    jaccard,
    jaro_winkler_similarity,
    max_containment,
    ngram_similarity,
    normalize_label,
    token_jaccard,
    token_set,
    tokenize,
)

short_text = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=12)
#: Labels and keywords as expansion meets them: snake_case, camelCase, digit
#: boundaries, stopwords, empty pieces and tokens no other string shares.
label_text = st.one_of(
    st.lists(
        st.sampled_from(
            ["go", "Go", "term", "TERM", "the", "of", "id", "ID", "2", "42", "gene", "geneSymbol",
             "InterPro2GO", "membrane", "xyzzy", "", "__", "a1b2"]
        ),
        max_size=5,
    ).flatmap(lambda pieces: st.sampled_from(["_", " ", "", "-"]).map(lambda sep: sep.join(pieces))),
    short_text,
)


class TestTokenize:
    def test_snake_case(self):
        assert tokenize("entry_ac") == ["entry", "ac"]

    def test_camel_case_and_digits(self):
        assert tokenize("InterPro2GO") == ["inter", "pro", "2", "go"]

    def test_stopwords(self):
        assert tokenize("name of the entry", drop_stopwords=True) == ["name", "entry"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("___") == []

    def test_normalize_label(self):
        assert normalize_label("GO Term") == "go_term"

    def test_token_set(self):
        assert token_set("go_id go") == frozenset({"go", "id"})

    def test_character_ngrams_padding(self):
        grams = character_ngrams("ab", 3)
        assert "##a" in grams and "b##" in grams

    def test_character_ngrams_invalid_n(self):
        with pytest.raises(ValueError):
            character_ngrams("ab", 0)


class TestJaroWinkler:
    def test_identical(self):
        assert jaro_winkler_similarity("pub", "pub") == 1.0

    def test_prefix_boost(self):
        plain = jaro_winkler_similarity("publication", "publisher")
        assert plain > 0.8

    def test_disjoint(self):
        assert jaro_winkler_similarity("abc", "xyz") == 0.0

    @given(short_text, short_text)
    def test_bounds_property(self, a, b):
        score = jaro_winkler_similarity(a, b)
        assert 0.0 <= score <= 1.0 + 1e-9


class TestNgram:
    def test_identical(self):
        assert ngram_similarity("entry", "entry") == 1.0

    def test_related_labels(self):
        assert ngram_similarity("entry_ac", "entry_acc") > 0.6

    @given(short_text, short_text)
    def test_bounds_and_symmetry_property(self, a, b):
        score = ngram_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(ngram_similarity(b, a))


class TestSetSimilarity:
    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0

    def test_max_containment(self):
        assert max_containment({1}, {1, 2, 3}) == 1.0
        assert max_containment(set(), set()) == 1.0
        assert max_containment({1}, set()) == 0.0

    def test_token_jaccard(self):
        assert token_jaccard("go_id", "id_go") == 1.0
        assert token_jaccard("go_id", "accession") == 0.0

    @given(st.sets(st.integers(), max_size=20), st.sets(st.integers(), max_size=20))
    def test_jaccard_bounds_property(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0


class TestTfIdf:
    @pytest.fixture()
    def scorer(self) -> TfIdfScorer:
        return TfIdfScorer(corpus=["go term name", "entry accession", "publication title", "go id"])

    def test_identical_text(self, scorer):
        assert scorer.similarity("go term", "go term") == pytest.approx(1.0)

    def test_partial_overlap_ranked(self, scorer):
        close = scorer.similarity("membrane", "plasma membrane")
        far = scorer.similarity("membrane", "publication title")
        assert close > far

    def test_no_overlap(self, scorer):
        assert scorer.similarity("membrane", "publication") == 0.0

    def test_empty_text(self, scorer):
        assert scorer.similarity("", "anything") == 0.0

    def test_mismatch_cost_complements_similarity(self, scorer):
        similarity = scorer.similarity("go term", "go term name")
        assert scorer.mismatch_cost("go term", "go term name") == pytest.approx(1 - similarity)

    def test_rare_tokens_weighted_higher(self):
        scorer = TfIdfScorer(corpus=["id"] * 20 + ["membrane"])
        assert scorer.inverse_document_frequency("membrane") > scorer.inverse_document_frequency("id")

    def test_document_frequency(self, scorer):
        assert scorer.document_frequency("go") == 2
        assert scorer.document_frequency("unseen") == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(label_text, max_size=8), label_text, label_text)
    def test_cosine_of_a_vector_is_the_seed_similarity_to_the_bit(self, corpus, a, b):
        """``cosine(vector(a), b)`` — and ``similarity``, which is that — returns
        the seed body's float, compared by ``repr`` so ``-0.0`` cannot pass for
        ``0.0``; a ``b`` with no token in common scores exactly ``0.0``."""
        scorer = TfIdfScorer(corpus=corpus)
        expected = repr(seed_similarity(scorer, a, b))
        assert repr(scorer.cosine(scorer.vector(a), b)) == expected
        assert repr(scorer.similarity(a, b)) == expected
        if token_set(a).isdisjoint(token_set(b)):
            assert expected == "0.0"
