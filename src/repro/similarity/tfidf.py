"""tf-idf keyword similarity.

The default keyword similarity metric used when expanding a keyword query
into a query graph (paper Section 2.2): each keyword is matched against
schema labels and indexed data values; closer matches get lower *mismatch
cost*.

The corpus statistics (document frequencies) are the scorer's own, built
from a corpus supplied as an iterable of strings and maintained one
document at a time (:class:`~repro.graph.query_graph.QueryGraphBuilder`
feeds it the catalog's schema labels and values).

An expansion vectorises a keyword once and scores every label with
:meth:`TfIdfScorer.cosine`: the float :meth:`TfIdfScorer.similarity` returns,
without vectorising a label that shares no token with it (almost all do not).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Optional

from .tokenize import token_set, tokenize


class TfIdfScorer:
    """Cosine similarity between tf-idf vectors of short strings.

    Parameters
    ----------
    corpus:
        Optional iterable of documents (strings) used to estimate document
        frequencies.  Documents can also be added later via
        :meth:`add_document`.
    smoothing:
        Additive smoothing constant for inverse document frequency, so that
        unseen tokens still receive a finite (high) idf.
    """

    def __init__(self, corpus: Optional[Iterable[str]] = None, smoothing: float = 1.0) -> None:
        self.smoothing = smoothing
        self.document_count = 0
        self._document_frequency: Counter = Counter()
        for document in corpus or ():
            self.add_document(document)

    # ------------------------------------------------------------------
    # Corpus maintenance
    # ------------------------------------------------------------------
    def add_document(self, document: str) -> None:
        """Add one document's distinct tokens to the corpus statistics."""
        self.document_count += 1
        for token in set(tokenize(document)):
            self._document_frequency[token] += 1

    def remove_document(self, document: str) -> None:
        """Retract one previously added document from the corpus statistics.

        The scorer keeps only aggregate counts, so retraction re-tokenizes
        the document text; removing a document that was never added leaves
        frequencies clamped at zero rather than going negative.
        """
        if self.document_count > 0:
            self.document_count -= 1
        for token in set(tokenize(document)):
            count = self._document_frequency.get(token, 0)
            if count <= 1:
                self._document_frequency.pop(token, None)
            else:
                self._document_frequency[token] = count - 1

    def document_frequency(self, token: str) -> int:
        """Number of corpus documents containing ``token``."""
        return self._document_frequency.get(token.lower(), 0)

    def inverse_document_frequency(self, token: str) -> float:
        """Smoothed idf of ``token`` (always > 0)."""
        df = self.document_frequency(token)
        return math.log(
            (self.document_count + self.smoothing) / (df + self.smoothing)
        ) + 1.0

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def vector(self, text: str) -> Dict[str, float]:
        """tf-idf vector of ``text`` as a token -> weight mapping."""
        counts = Counter(tokenize(text))
        total = sum(counts.values())
        if total == 0:
            return {}
        return {
            token: (count / total) * self.inverse_document_frequency(token)
            for token, count in counts.items()
        }

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of the tf-idf vectors of ``a`` and ``b``, in [0, 1]."""
        return self.cosine(self.vector(a), b)

    def cosine(self, vec_a: Dict[str, float], b: str) -> float:
        """:meth:`similarity` with ``a`` already vectorised: ``vec_a`` is ``vector(a)``.

        A ``b`` sharing no token with ``vec_a`` is not vectorised: its score is
        ``0.0``, as the full computation's all-zero dot product makes it.
        """
        if not vec_a or vec_a.keys().isdisjoint(token_set(b)):
            return 0.0
        vec_b = self.vector(b)
        dot = sum(weight * vec_b.get(token, 0.0) for token, weight in vec_a.items())
        norm_a = math.sqrt(sum(w * w for w in vec_a.values()))
        norm_b = math.sqrt(sum(w * w for w in vec_b.values()))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    def mismatch_cost(self, keyword: str, candidate: str) -> float:
        """Mismatch cost in ``[0, 1]``: lower for closer matches.

        This is the ``s_i`` term attached to keyword-match edges in the
        query graph (Figure 3 of the paper).
        """
        return 1.0 - self.similarity(keyword, candidate)
