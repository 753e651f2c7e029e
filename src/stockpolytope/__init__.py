"""From daily stock prices to positroid geometry.

The pipeline: closing prices give per-date price rankings; rank
reversals between consecutive dates are crossing events (adjacent
transpositions); the accumulated crossings form a permutation of the
reference-date ranks; net price moves decorate its fixed points.  The
decorated permutation then determines a Grassmann necklace, a positroid,
a cell dimension, and the positroid polytope whose vertices are the 0/1
indicator vectors of the bases.
"""

from .necklace import GrassmannNecklace, necklace_from_decorated
from .perms import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    Permutation,
    WiringWord,
    affine_length,
    affine_length_near,
    affine_lift,
    anti_exceedance_count,
    word_to_permutation,
)
from .polytope import (
    CellChain,
    decomposition_chain,
    enumerate_facets,
    polytope_dimension,
    polytope_from_positroid,
)
from .positroid import (
    Positroid,
    cell_dimension,
    connected_components,
    interval_rank_summands,
    positroid_from_necklace,
)
from .prices import (
    CrossingEvent,
    PriceCsvError,
    PriceTable,
    crossing_stream,
    decorate,
    parse_price_csv,
    permutation_at,
    rankings,
    read_price_csv,
)
from .render import render_chords, render_hooks, render_wiring
from .report import (
    AnalysisReport,
    ConsistencyError,
    build_report,
    check_report,
    report_to_json,
    report_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundedAffinePermutation",
    "CellChain",
    "ConsistencyError",
    "CrossingEvent",
    "DecoratedPermutation",
    "GrassmannNecklace",
    "Permutation",
    "Positroid",
    "PriceCsvError",
    "PriceTable",
    "WiringWord",
    "affine_length",
    "affine_length_near",
    "affine_lift",
    "anti_exceedance_count",
    "build_report",
    "cell_dimension",
    "check_report",
    "connected_components",
    "crossing_stream",
    "decorate",
    "decomposition_chain",
    "enumerate_facets",
    "interval_rank_summands",
    "necklace_from_decorated",
    "parse_price_csv",
    "permutation_at",
    "polytope_dimension",
    "polytope_from_positroid",
    "positroid_from_necklace",
    "rankings",
    "read_price_csv",
    "render_chords",
    "render_hooks",
    "render_wiring",
    "report_to_json",
    "report_to_text",
    "word_to_permutation",
]
