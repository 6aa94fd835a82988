"""String and set similarity metrics used for keyword matching and schema matching.

Public API
----------
* :func:`tokenize`, :func:`token_set`, :func:`normalize_label`,
  :func:`character_ngrams` — tokenization helpers.
* :class:`TfIdfScorer` — tf-idf cosine similarity (the default keyword
  similarity metric of the paper).
* :func:`jaro_similarity`, :func:`jaro_winkler_similarity` — attribute-name
  similarity for the metadata matcher.
* :func:`ngram_similarity` — character n-gram (Dice) similarity.
* :func:`jaccard`, :func:`max_containment`, :func:`token_jaccard` —
  set-based measures.
"""

from .edit_distance import jaro_similarity, jaro_winkler_similarity
from .jaccard import jaccard, max_containment, token_jaccard
from .ngram import ngram_similarity
from .tfidf import TfIdfScorer
from .tokenize import STOPWORDS, character_ngrams, normalize_label, token_set, tokenize

__all__ = [
    "STOPWORDS",
    "TfIdfScorer",
    "character_ngrams",
    "jaccard",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "max_containment",
    "ngram_similarity",
    "normalize_label",
    "token_jaccard",
    "token_set",
    "tokenize",
]
