"""Synthetic GBCO-like dataset (paper Section 5.1).

The paper's first experimental dataset is GBCO (the Beta Cell Genomics
resource at betacell.org): 18 relations — each modeled as a separate source —
with 187 attributes in total, plus logs of real SQL queries from which
(base query, expanded query) pairs were mined.  GBCO is not redistributable,
so this module generates a synthetic catalog with the same shape:

* 18 single-relation sources, 187 attributes in total;
* realistic bioinformatics-style identifier domains shared between the
  relations that should join (gene ids, pathway ids, publication ids, ...),
  so that the value-overlap filter and MAD behave as they would on the real
  data;
* a query log of (base relations, newly needed relations, keyword query)
  trials mirroring how the paper derives its Figure 6/7 workload: 16 trials
  that introduce 40 "new" sources in total.

Only the *shape* of the workload matters for Figures 6–8 (they measure
alignment cost, not alignment quality); see DESIGN.md, "Substitutions".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..datastore.database import Catalog, DataSource
from ..datastore.schema import RelationSchema, SourceSchema

# ----------------------------------------------------------------------
# Schema: 18 relations, 187 attributes
# ----------------------------------------------------------------------
#: Relation name -> attribute list.  7 relations have 11 attributes and 11
#: relations have 10, for a total of 7*11 + 11*10 = 187.
GBCO_RELATIONS: Dict[str, List[str]] = {
    "gene": [
        "gene_id", "symbol", "name", "chromosome", "start_pos", "end_pos",
        "strand", "biotype", "species", "description", "ensembl_id",
    ],
    "transcript": [
        "transcript_id", "gene_id", "name", "length", "exon_count", "biotype",
        "tss_position", "is_canonical", "refseq_id", "description", "species",
    ],
    "protein": [
        "protein_id", "transcript_id", "name", "length", "mass", "sequence_md5",
        "uniprot_ac", "domain_count", "description", "species", "gene_symbol",
    ],
    "probe": [
        "probe_id", "gene_id", "platform", "sequence", "chromosome", "position",
        "strand", "gc_content", "is_control", "probe_set", "description",
    ],
    "experiment": [
        "experiment_id", "name", "platform", "lab", "date", "tissue_id",
        "sample_count", "design", "pub_id", "description", "species",
    ],
    "sample": [
        "sample_id", "experiment_id", "tissue_id", "donor", "age", "sex",
        "treatment", "replicate", "quality", "description", "collection_date",
    ],
    "tissue": [
        "tissue_id", "name", "organ", "species", "ontology_id", "description",
        "cell_type", "development_stage", "disease_state", "source_lab", "anatomy_code",
    ],
    "pathway": [
        "pathway_id", "name", "source_db", "category", "gene_count", "description",
        "species", "reference", "curation_status", "last_updated",
    ],
    "pathway_member": [
        "pathway_id", "gene_id", "role", "evidence", "rank", "added_by",
        "added_date", "confidence", "notes", "species",
    ],
    "publication": [
        "pub_id", "title", "journal", "year", "volume", "pages",
        "pubmed_id", "doi", "abstract", "first_author",
    ],
    "author": [
        "author_id", "pub_id", "last_name", "first_name", "affiliation",
        "position", "email", "orcid", "country", "is_corresponding",
    ],
    "gene2pathway": [
        "gene_id", "pathway_id", "evidence_code", "source_db", "score",
        "assigned_by", "assigned_date", "qualifier", "notes", "species",
    ],
    "expression": [
        "expression_id", "gene_id", "sample_id", "value", "unit", "probe_id",
        "experiment_id", "log_ratio", "p_value", "call",
    ],
    "annotation": [
        "annotation_id", "gene_id", "go_term", "evidence_code", "aspect",
        "assigned_by", "assigned_date", "qualifier", "reference", "species",
    ],
    "ortholog": [
        "ortholog_id", "gene_id", "other_species_gene", "other_species", "identity",
        "coverage", "method", "is_one_to_one", "source_db", "notes",
    ],
    "variant": [
        "variant_id", "gene_id", "chromosome", "position", "ref_allele", "alt_allele",
        "consequence", "frequency", "clinical_significance", "source_db",
    ],
    "phenotype": [
        "phenotype_id", "name", "ontology_id", "category", "description",
        "species", "severity", "onset", "source_db", "curation_status",
    ],
    "gene2phenotype": [
        "gene_id", "phenotype_id", "evidence", "pub_id", "score",
        "assigned_by", "assigned_date", "model_organism", "notes", "species",
    ],
}


@dataclass(frozen=True)
class QueryLogEntry:
    """One (base query, expanded query) trial mined from the query log.

    Attributes
    ----------
    keywords:
        The keyword query whose Steiner trees cover the base relations.
    base_relations:
        Qualified relation names used by the base SQL query.
    new_relations:
        Qualified relation names that only the expanded query uses — these
        are the "new sources" registered during the trial.
    """

    keywords: Tuple[str, ...]
    base_relations: Tuple[str, ...]
    new_relations: Tuple[str, ...]


#: 16 trials introducing 40 new sources in total (2+3 alternating).
QUERY_LOG: Tuple[QueryLogEntry, ...] = (
    QueryLogEntry(("insulin", "pathway"), ("gene.gene", "pathway.pathway"), ("gene2pathway.gene2pathway", "pathway_member.pathway_member")),
    QueryLogEntry(("insulin", "expression"), ("gene.gene", "experiment.experiment"), ("expression.expression", "sample.sample", "probe.probe")),
    QueryLogEntry(("pancreas", "sample"), ("tissue.tissue", "sample.sample"), ("experiment.experiment", "expression.expression")),
    QueryLogEntry(("diabetes", "publication"), ("phenotype.phenotype", "publication.publication"), ("gene2phenotype.gene2phenotype", "author.author", "gene.gene")),
    QueryLogEntry(("glucose", "transcript"), ("gene.gene", "transcript.transcript"), ("protein.protein", "ortholog.ortholog")),
    QueryLogEntry(("metabolism", "protein"), ("protein.protein", "gene.gene"), ("transcript.transcript", "annotation.annotation", "variant.variant")),
    QueryLogEntry(("islet", "tissue"), ("tissue.tissue", "experiment.experiment"), ("sample.sample", "expression.expression")),
    QueryLogEntry(("signaling", "pathway"), ("pathway.pathway", "gene2pathway.gene2pathway"), ("pathway_member.pathway_member", "gene.gene", "annotation.annotation")),
    QueryLogEntry(("variant", "gene"), ("gene.gene", "variant.variant"), ("phenotype.phenotype", "gene2phenotype.gene2phenotype")),
    QueryLogEntry(("Affymetrix", "probe"), ("probe.probe", "experiment.experiment"), ("expression.expression", "sample.sample", "gene.gene")),
    QueryLogEntry(("ortholog", "identity"), ("gene.gene", "ortholog.ortholog"), ("transcript.transcript", "protein.protein")),
    QueryLogEntry(("author", "publication"), ("publication.publication", "author.author"), ("experiment.experiment", "gene2phenotype.gene2phenotype", "phenotype.phenotype")),
    QueryLogEntry(("secretion", "annotation"), ("gene.gene", "annotation.annotation"), ("gene2pathway.gene2pathway", "pathway.pathway")),
    QueryLogEntry(("beta", "cell"), ("tissue.tissue", "sample.sample"), ("expression.expression", "probe.probe", "experiment.experiment")),
    QueryLogEntry(("phenotype", "severity"), ("phenotype.phenotype", "gene2phenotype.gene2phenotype"), ("publication.publication", "gene.gene")),
    QueryLogEntry(("adipose", "expression"), ("gene.gene", "expression.expression"), ("sample.sample", "tissue.tissue", "probe.probe")),
)

_GENE_SYMBOLS = [
    "INS", "GCG", "PDX1", "GCK", "KCNJ11", "ABCC8", "HNF1A", "HNF4A", "SLC2A2",
    "IAPP", "NEUROD1", "NKX6-1", "MAFA", "FOXO1", "IRS1", "IRS2", "AKT2", "PIK3CA",
    "INSR", "IGF1", "GLP1R", "DPP4", "PPARG", "TCF7L2", "WFS1", "SUR1", "PTPN1",
    "SOCS3", "LEP", "ADIPOQ",
]
_PATHWAY_NAMES = [
    "insulin signaling", "glucose metabolism", "beta cell development",
    "MAPK cascade", "apoptosis", "calcium signaling", "mTOR signaling",
    "glycolysis", "incretin signaling", "lipid metabolism",
]
_TISSUES = [
    ("T001", "pancreatic islet", "pancreas"),
    ("T002", "beta cell", "pancreas"),
    ("T003", "liver lobule", "liver"),
    ("T004", "skeletal muscle", "muscle"),
    ("T005", "adipose tissue", "adipose"),
    ("T006", "hypothalamus", "brain"),
]
_PHENOTYPES = [
    "type 2 diabetes", "impaired glucose tolerance", "insulin resistance",
    "obesity", "hyperinsulinemia", "beta cell apoptosis", "hyperglycemia",
    "maturity onset diabetes", "insulin secretion defect", "islet hypoplasia",
]


@dataclass
class GbcoDataset:
    """The generated catalog plus its query log."""

    catalog: Catalog
    query_log: List[QueryLogEntry] = field(default_factory=list)

    @property
    def total_new_source_introductions(self) -> int:
        """Total number of new-source registrations across all trials (paper: 40)."""
        return sum(len(entry.new_relations) for entry in self.query_log)


def _identifier_pool(prefix: str, count: int) -> List[str]:
    return [f"{prefix}{i:05d}" for i in range(1, count + 1)]


def build_gbco(seed: int = 11, rows_per_relation: int = 60) -> GbcoDataset:
    """Generate the GBCO-like catalog: 18 single-relation sources, 187 attributes.

    Parameters
    ----------
    seed:
        Random seed; generation is deterministic.
    rows_per_relation:
        Approximate number of rows per relation.
    """
    rng = random.Random(seed)

    pools: Dict[str, List[str]] = {
        "gene_id": _identifier_pool("GENE", 80),
        "transcript_id": _identifier_pool("TX", 90),
        "protein_id": _identifier_pool("PROT", 90),
        "probe_id": _identifier_pool("PRB", 100),
        "experiment_id": _identifier_pool("EXP", 40),
        "sample_id": _identifier_pool("SAMP", 80),
        "tissue_id": [t[0] for t in _TISSUES],
        "pathway_id": _identifier_pool("PATH", 30),
        "pub_id": _identifier_pool("PMID", 70),
        "author_id": _identifier_pool("AUTH", 80),
        "expression_id": _identifier_pool("EXPR", 120),
        "annotation_id": _identifier_pool("ANN", 100),
        "ortholog_id": _identifier_pool("ORTH", 80),
        "variant_id": _identifier_pool("VAR", 90),
        "phenotype_id": _identifier_pool("PHEN", 40),
        "go_term": [f"GO:{i:07d}" for i in range(1, 60)],
        "species": ["human", "mouse", "rat"],
        "platform": ["Affymetrix U133", "Illumina HT-12", "RNA-seq"],
        "evidence_code": ["IDA", "IEA", "IMP", "TAS", "ISS"],
    }

    def value_for(relation: str, attribute: str, row_index: int) -> str:
        """Deterministic-ish value generation driven by the attribute name."""
        if attribute in pools:
            pool = pools[attribute]
            return pool[(row_index * 7 + len(relation)) % len(pool)]
        if attribute in ("symbol", "gene_symbol"):
            return _GENE_SYMBOLS[row_index % len(_GENE_SYMBOLS)]
        if attribute == "name":
            if relation == "gene":
                return f"{_GENE_SYMBOLS[row_index % len(_GENE_SYMBOLS)]} gene"
            if relation == "pathway":
                return _PATHWAY_NAMES[row_index % len(_PATHWAY_NAMES)]
            if relation == "tissue":
                return _TISSUES[row_index % len(_TISSUES)][1]
            if relation == "phenotype":
                return _PHENOTYPES[row_index % len(_PHENOTYPES)]
            return f"{relation} {row_index}"
        if attribute == "title":
            topic = _PATHWAY_NAMES[row_index % len(_PATHWAY_NAMES)]
            return f"A study of {topic} in pancreatic beta cells"
        if attribute in ("description", "notes", "abstract"):
            # Relation-specific free text: keeps keyword matches selective
            # (only name/title columns carry domain topic words).
            return f"{relation} record {row_index} details"
        if attribute in ("chromosome",):
            return f"chr{1 + row_index % 22}"
        if attribute in ("start_pos", "end_pos", "position", "tss_position", "length", "mass"):
            return str(10000 + row_index * 137)
        if attribute in ("year", "added_date", "assigned_date", "date", "collection_date", "last_updated", "method_date"):
            return str(1998 + row_index % 20)
        if attribute in ("strand",):
            return rng.choice(["+", "-"])
        if attribute in ("p_value", "score", "frequency", "identity", "coverage", "value", "log_ratio", "gc_content", "confidence"):
            return f"{rng.random():.4f}"
        if attribute in ("sex",):
            return rng.choice(["M", "F"])
        if attribute in ("journal",):
            return rng.choice(["Diabetes", "Cell Metabolism", "Diabetologia", "JBC"])
        if attribute in ("organ",):
            return _TISSUES[row_index % len(_TISSUES)][2]
        return f"{attribute}_{row_index % 17}"

    catalog = Catalog()
    for relation_name, attributes in GBCO_RELATIONS.items():
        schema = SourceSchema(relation_name, description=f"GBCO-like relation {relation_name}")
        schema.add_relation(RelationSchema(relation_name, list(attributes)))
        source = DataSource(schema)
        table = source.table(relation_name)
        for row_index in range(rows_per_relation):
            table.append(
                {attr: value_for(relation_name, attr, row_index) for attr in attributes}
            )
        catalog.add_source(source)

    return GbcoDataset(catalog=catalog, query_log=list(QUERY_LOG))


def total_attribute_count() -> int:
    """Total number of attributes in the GBCO-like schema (paper: 187)."""
    return sum(len(attrs) for attrs in GBCO_RELATIONS.values())
