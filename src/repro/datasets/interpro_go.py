"""Synthetic InterPro–GO dataset (paper Section 5.2, Figure 9).

The paper's second experimental dataset consists of 8 closely interlinked
tables with 28 attributes drawn from the InterPro and Gene Ontology
databases, with 8 semantically meaningful join/alignment edges forming the
gold standard.  Those databases are large public resources; here we generate
a synthetic dataset with the *same schema topology* (8 relations, 28
attributes), the same kinds of identifier overlaps (GO accessions shared
between ``go.term.acc`` and ``interpro.interpro2go.go_id``, InterPro entry
accessions shared along the entry→publication path, and so on), and the same
gold standard — which is what the Table 1 / Figures 10–12 experiments
actually measure.  See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.evaluation import GoldStandard
from ..datastore.database import Catalog, DataSource
from ..datastore.schema import ForeignKey, RelationSchema, SourceSchema

#: The 8 gold-standard alignment edges, as fully qualified attribute pairs.
GOLD_EDGES: Tuple[Tuple[str, str], ...] = (
    ("go.term.acc", "interpro.interpro2go.go_id"),
    ("interpro.interpro2go.entry_ac", "interpro.entry.entry_ac"),
    ("interpro.entry.entry_ac", "interpro.entry2pub.entry_ac"),
    ("interpro.entry2pub.pub_id", "interpro.pub.pub_id"),
    ("interpro.method.method_ac", "interpro.method2pub.method_ac"),
    ("interpro.method2pub.pub_id", "interpro.pub.pub_id"),
    ("interpro.pub.journal_id", "interpro.journal.journal_id"),
    ("interpro.entry2pub.pub_id", "interpro.method2pub.pub_id"),
)

#: Keyword queries modeled after the usage patterns in the GO / InterPro
#: documentation (two-keyword queries, as used for the Figure 10–12 feedback
#: experiments).
DEFAULT_KEYWORD_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("membrane", "title"),
    ("kinase", "journal"),
    ("binding", "pub"),
    ("transport", "method"),
    ("signal", "title"),
    ("receptor", "journal"),
    ("transferase", "pub"),
    ("nucleus", "method"),
    ("repair", "title"),
    ("growth", "journal"),
)

_GO_TERM_WORDS = [
    "plasma membrane",
    "protein kinase activity",
    "ATP binding",
    "ion transport",
    "signal transduction",
    "receptor activity",
    "transferase activity",
    "nucleus",
    "DNA repair",
    "cell growth",
    "apoptosis",
    "oxidoreductase activity",
    "ribosome biogenesis",
    "protein folding",
    "lipid metabolism",
    "RNA splicing",
    "chromatin remodeling",
    "immune response",
    "cell adhesion",
    "proteolysis",
]

_ENTRY_NAME_WORDS = [
    "Protein kinase domain",
    "Zinc finger",
    "Immunoglobulin domain",
    "EGF-like domain",
    "WD40 repeat",
    "Ankyrin repeat",
    "Helix-turn-helix",
    "Leucine-rich repeat",
    "SH3 domain",
    "PDZ domain",
    "Homeobox domain",
    "RING finger",
    "Histone fold",
    "Cytochrome P450",
    "ABC transporter",
    "G-protein coupled receptor",
    "Serine protease",
    "Ubiquitin domain",
    "Calcium-binding EF-hand",
    "Fibronectin type III",
]

_JOURNALS = [
    ("J001", "Journal of Molecular Biology", "0022-2836"),
    ("J002", "Nucleic Acids Research", "0305-1048"),
    ("J003", "Bioinformatics", "1367-4803"),
    ("J004", "Nature Genetics", "1061-4036"),
    ("J005", "Cell", "0092-8674"),
    ("J006", "Proteins", "0887-3585"),
    ("J007", "Genome Research", "1088-9051"),
    ("J008", "PLoS Computational Biology", "1553-734X"),
]


@dataclass
class InterproGoDataset:
    """The generated dataset plus its gold standard and keyword queries."""

    catalog: Catalog
    gold: GoldStandard
    keyword_queries: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def go(self) -> DataSource:
        """The GO source (one relation: ``term``)."""
        return self.catalog.source("go")

    @property
    def interpro(self) -> DataSource:
        """The InterPro source (seven relations)."""
        return self.catalog.source("interpro")


def build_interpro_go(
    seed: int = 7,
    num_terms: int = 120,
    num_entries: int = 150,
    num_methods: int = 100,
    num_pubs: int = 90,
    include_foreign_keys: bool = False,
) -> InterproGoDataset:
    """Generate the InterPro–GO-like dataset.

    Parameters
    ----------
    seed:
        Random seed; generation is fully deterministic for a given seed.
    num_terms, num_entries, num_methods, num_pubs:
        Row counts for the main entity tables (link tables are sized
        proportionally).
    include_foreign_keys:
        The Section 5.2 experiments *remove* the join metadata ("we remove
        this information from the metadata") so that the matchers have to
        rediscover it; set this to ``True`` to keep the foreign keys, e.g.
        for the examples.
    """
    rng = random.Random(seed)

    go_accessions = [f"GO:{i:07d}" for i in range(1, num_terms + 1)]
    entry_accessions = [f"IPR{i:06d}" for i in range(1, num_entries + 1)]
    method_accessions = [f"PF{i:05d}" for i in range(1, num_methods + 1)]
    pub_ids = [f"PUB{i:05d}" for i in range(1, num_pubs + 1)]

    # ------------------------------------------------------------------
    # GO source: term(acc, name, term_type, ontology_id)
    # ------------------------------------------------------------------
    go_schema = SourceSchema("go", description="Gene Ontology terms (synthetic)")
    go_schema.add_relation(
        RelationSchema(
            "term",
            ["acc", "name", "term_type", "ontology_id"],
            primary_key=["acc"],
            description="GO terms",
        )
    )
    go_source = DataSource(go_schema)
    term_types = ["biological_process", "molecular_function", "cellular_component"]
    for i, acc in enumerate(go_accessions):
        go_source.table("term").append(
            {
                "acc": acc,
                "name": _GO_TERM_WORDS[i % len(_GO_TERM_WORDS)]
                + ("" if i < len(_GO_TERM_WORDS) else f" variant {i}"),
                "term_type": rng.choice(term_types),
                "ontology_id": f"ONT{1 + i % 3}",
            }
        )

    # ------------------------------------------------------------------
    # InterPro source: 7 relations, 24 attributes
    # ------------------------------------------------------------------
    interpro_schema = SourceSchema("interpro", description="InterPro (synthetic)")
    interpro_schema.add_relation(
        RelationSchema("interpro2go", ["go_id", "entry_ac", "evidence"], description="GO cross-references")
    )
    interpro_schema.add_relation(
        RelationSchema(
            "entry",
            ["entry_ac", "name", "entry_type", "short_name"],
            primary_key=["entry_ac"],
        )
    )
    interpro_schema.add_relation(
        RelationSchema("entry2pub", ["entry_ac", "pub_id", "order_in"])
    )
    interpro_schema.add_relation(
        RelationSchema(
            "method",
            ["method_ac", "name", "method_date", "skip_flag"],
            primary_key=["method_ac"],
        )
    )
    interpro_schema.add_relation(RelationSchema("method2pub", ["method_ac", "pub_id"]))
    interpro_schema.add_relation(
        RelationSchema(
            "pub",
            ["pub_id", "title", "journal_id", "year", "volume"],
            primary_key=["pub_id"],
        )
    )
    interpro_schema.add_relation(
        RelationSchema("journal", ["journal_id", "title", "issn"], primary_key=["journal_id"])
    )
    if include_foreign_keys:
        interpro_schema.add_foreign_key(ForeignKey("interpro2go", "entry_ac", "entry", "entry_ac"))
        interpro_schema.add_foreign_key(ForeignKey("entry2pub", "entry_ac", "entry", "entry_ac"))
        interpro_schema.add_foreign_key(ForeignKey("entry2pub", "pub_id", "pub", "pub_id"))
        interpro_schema.add_foreign_key(ForeignKey("method2pub", "method_ac", "method", "method_ac"))
        interpro_schema.add_foreign_key(ForeignKey("method2pub", "pub_id", "pub", "pub_id"))
        interpro_schema.add_foreign_key(ForeignKey("pub", "journal_id", "journal", "journal_id"))
    interpro = DataSource(interpro_schema)

    entry_types = ["Domain", "Family", "Repeat", "Site"]
    for i, entry_ac in enumerate(entry_accessions):
        name = _ENTRY_NAME_WORDS[i % len(_ENTRY_NAME_WORDS)]
        if i >= len(_ENTRY_NAME_WORDS):
            name = f"{name} {i}"
        interpro.table("entry").append(
            {
                "entry_ac": entry_ac,
                "name": name,
                "entry_type": rng.choice(entry_types),
                "short_name": name.lower().replace(" ", "_")[:20],
            }
        )

    for i, method_ac in enumerate(method_accessions):
        base = _ENTRY_NAME_WORDS[i % len(_ENTRY_NAME_WORDS)]
        interpro.table("method").append(
            {
                "method_ac": method_ac,
                # Method names overlap partially with entry names — the
                # value overlap the paper calls out when discussing MAD's
                # "incorrect" but arguably useful alignments.
                "name": base if i % 3 == 0 else f"{base} model {i}",
                "method_date": f"200{rng.randint(0, 9)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}",
                "skip_flag": rng.choice(["N", "N", "N", "Y"]),
            }
        )

    for i, (journal_id, title, issn) in enumerate(_JOURNALS):
        interpro.table("journal").append(
            {"journal_id": journal_id, "title": title, "issn": issn}
        )

    title_topics = [
        "structure of",
        "functional analysis of",
        "evolution of",
        "classification of",
        "prediction of",
        "annotation of",
    ]
    for i, pub_id in enumerate(pub_ids):
        topic = rng.choice(title_topics)
        subject = _ENTRY_NAME_WORDS[i % len(_ENTRY_NAME_WORDS)].lower()
        interpro.table("pub").append(
            {
                "pub_id": pub_id,
                "title": f"On the {topic} {subject}",
                "journal_id": _JOURNALS[i % len(_JOURNALS)][0],
                "year": str(1995 + (i % 15)),
                "volume": str(10 + (i % 40)),
            }
        )

    # Link tables: every entry references one or two GO terms and pubs.
    for i, entry_ac in enumerate(entry_accessions):
        for j in range(1 + (i % 2)):
            interpro.table("interpro2go").append(
                {
                    "go_id": go_accessions[(i * 2 + j) % len(go_accessions)],
                    "entry_ac": entry_ac,
                    "evidence": rng.choice(["IEA", "TAS", "IDA"]),
                }
            )
        interpro.table("entry2pub").append(
            {
                "entry_ac": entry_ac,
                "pub_id": pub_ids[i % len(pub_ids)],
                "order_in": str(1 + i % 3),
            }
        )
    for i, method_ac in enumerate(method_accessions):
        interpro.table("method2pub").append(
            {"method_ac": method_ac, "pub_id": pub_ids[(i * 3) % len(pub_ids)]}
        )

    catalog = Catalog([go_source, interpro])
    gold = GoldStandard.from_pairs(GOLD_EDGES)
    return InterproGoDataset(
        catalog=catalog,
        gold=gold,
        keyword_queries=list(DEFAULT_KEYWORD_QUERIES),
    )
