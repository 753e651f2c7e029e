"""Command line interface: analyze, chain, and render subcommands.

Exit codes: 0 on success, 2 for input or validation problems, 3 for an
internal consistency breach (which a correct build never produces).
"""

from __future__ import annotations

import argparse
import sys
from datetime import date

from .perms import affine_lift
from .polytope import decomposition_chain
from .positroid import interval_rank_summands
from .prices import PriceTable, crossing_stream, crossing_word, decorate, iso_date, rankings, read_price_csv
from .render import render_chords, render_hooks, render_wiring
from .report import (ConsistencyError, build_report, chain_to_json, chain_to_text, check_report,
                     report_to_json, report_to_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockpolytope",
        description="Crossings, permutations, necklaces, positroids, and polytopes from price CSVs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("csv", help="price CSV file (header: date,<ticker>,...)")
        p.add_argument("--ref-date", required=True, help="reference date, ISO-8601")
        p.add_argument("--end-date", required=True, help="end date, ISO-8601")
        p.add_argument("--out", help="write output to this path instead of stdout")

    analyze = sub.add_parser("analyze", help="full pipeline report for a date range")
    add_common(analyze)
    analyze.add_argument("--facets", action="store_true", help="also count the polytope's facets")
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.add_argument("--check", action="store_true", help="re-derive and verify the report")
    analyze.set_defaults(handler=_cmd_analyze)

    chain = sub.add_parser("chain", help="cell dimension after each crossing")
    add_common(chain)
    chain.add_argument("--format", choices=("json", "text"), default="text")
    chain.set_defaults(handler=_cmd_chain)

    render = sub.add_parser("render", help="draw a diagram for a date range")
    render.add_argument("mode", choices=("wiring", "chords", "hooks"))
    add_common(render)
    render.add_argument("--format", choices=("svg", "ascii"), default="svg")
    render.set_defaults(handler=_cmd_render)
    return parser


def _load(args) -> tuple[PriceTable, date, date]:
    table = read_price_csv(args.csv)  # a bad file is reported before a bad date
    return table, iso_date(args.ref_date), iso_date(args.end_date)


def _cmd_analyze(args) -> str:
    table, ref, end = _load(args)
    report = build_report(table, ref, end, with_facets=args.facets)
    if args.check:
        check_report(report)
    return report_to_json(report) if args.format == "json" else report_to_text(report)


def _cmd_chain(args) -> str:
    table, ref, end = _load(args)
    events = crossing_stream(table, ref, end)
    chain = decomposition_chain(crossing_word(table.n_stocks, events))
    return chain_to_json(ref, events, chain) if args.format == "json" else chain_to_text(ref, events, chain)


def _cmd_render(args) -> str:
    table, ref, end = _load(args)
    if args.mode == "wiring":
        events = crossing_stream(table, ref, end)
        word = crossing_word(table.n_stocks, events)
        ri = table.date_index(ref)
        ranked = rankings(table, ri, ri)[0]  # the stock at each reference rank, not CSV order
        return render_wiring(word, [table.tickers[s] for s in ranked], fmt=args.format)
    state = decorate(table, ref, end)
    if args.mode == "chords":
        return render_chords(state, fmt=args.format)
    lift = affine_lift(state)
    return render_hooks(lift, interval_rank_summands(state, lift), fmt=args.format)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(output)
        else:  # a console that cannot encode the text refuses it whole, before a byte is written
            sys.stdout.write(output)
    except ConsistencyError as exc:
        print(f"internal consistency breach: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
