"""Brute-force readings of a catalog's cells, kept as an oracle.

``catalog_cells`` walks every non-null cell in scan order: sources in catalog
order, tables in source order, rows in row-id order, attributes in schema
order.  ``reference_value_cells`` is the keyword lookup the query-graph
builder must reproduce, and ``attribute_values`` gives each attribute's
distinct values, whose intersections are the overlaps a profile index must
report.  No index is involved.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.datastore.types import canonicalize

#: ``(relation, attribute, row id, canonical value)``.
Cell = Tuple[str, str, int, str]


def catalog_cells(catalog) -> Iterator[Cell]:
    """Every non-null cell of ``catalog``, in scan order."""
    for source in catalog:
        for table in source:
            relation = table.schema.qualified_name
            names = table.schema.attribute_names
            for row in table.scan():
                for attribute, value in zip(names, row.values):
                    canon = canonicalize(value)
                    if canon is not None:
                        yield relation, attribute, row.row_id, canon


def reference_value_cells(catalog, keyword: str, limit: int) -> List[Cell]:
    """Every cell holding ``keyword``'s canonical form; failing that, the
    first ``limit`` cells whose value contains the lowered keyword, grouped by
    value in the order the scan first meets each value."""
    canon = canonicalize(keyword)
    exact = [cell for cell in catalog_cells(catalog) if cell[3] == canon]
    if exact:
        return exact
    needle = keyword.lower()
    groups: Dict[str, List[Cell]] = {}
    for cell in catalog_cells(catalog):
        if needle in cell[3].lower():
            groups.setdefault(cell[3], []).append(cell)
    return [cell for group in groups.values() for cell in group][:limit]


def attribute_values(catalog) -> Dict[Tuple[str, str], Set[str]]:
    """``(relation, attribute)`` -> its distinct canonical values."""
    values: Dict[Tuple[str, str], Set[str]] = {}
    for relation, attribute, _, value in catalog_cells(catalog):
        values.setdefault((relation, attribute), set()).add(value)
    return values
