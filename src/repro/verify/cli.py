"""``python -m repro verify`` — certify configurations before simulating.

With no arguments the command verifies every distinctive shipped
configuration (:func:`repro.harness.experiments.shipped_target_configs`),
a routing matrix covering all four shipped routing functions on mesh and
torus topologies, and the coherence protocol for the small-N abstraction.
Positional arguments filter subjects by substring (e.g. ``odd-even``,
``protocol``, ``E6``).

Options:

``--strict``
    Stop at the first refuted subject instead of checking the rest.
``--self-test``
    Run the deliberately-broken fixtures (:mod:`repro.verify.fixtures`)
    and succeed only if the verifier *refutes* both with a printed
    counterexample — the negative control CI runs.
``--format json``
    Machine-readable reports for CI annotation.
``--cores N``
    Cachers in the protocol abstraction (default 2, at least 2; 3 explores
    ~430 k states, 2 about 7 k).

Exit status is 0 when every checked subject certifies (or, under
``--self-test``, when every fixture is refuted), 1 otherwise, and 2 when
no subject matches the filters or a checked subject cannot be modelled
(``--cores`` below 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigError
from ..noc.config import NocConfig
from ..noc.topology import Mesh, Torus
from . import verify_noc, verify_protocol
from .cdg import check_network
from .fixtures import FullyAdaptiveMinimalRouting, broken_cache_table
from .protocol import check_protocol
from .report import VerifyReport

__all__ = ["main", "build_parser"]

_ROUTINGS = ("xy", "yx", "west-first", "odd-even")


def _routing_matrix() -> List[Tuple[str, Callable[[], VerifyReport]]]:
    """All four shipped routing functions on representative topologies."""
    subjects: List[Tuple[str, Callable[[], VerifyReport]]] = []
    for routing in _ROUTINGS:
        for topo in (Mesh(4, 4), Mesh(8, 8)):
            label = f"routing matrix: {routing} on {topo!r}"
            subjects.append(
                (
                    label,
                    lambda t=topo, r=routing: verify_noc(t, r, NocConfig()),
                )
            )
    # Dimension-ordered routings on tori exercise the dateline machinery
    # at the shipped VC count and with class partitioning.
    for routing in ("xy", "yx"):
        for noc in (NocConfig(), NocConfig(vc_select="class_partition")):
            label = (
                f"routing matrix: {routing} on Torus(4, 4) "
                f"vc_select={noc.vc_select}"
            )
            subjects.append(
                (
                    label,
                    lambda r=routing, n=noc: verify_noc(Torus(4, 4), r, n),
                )
            )
    return subjects


def _default_subjects(
    num_cores: int,
) -> List[Tuple[str, Callable[[], VerifyReport]]]:
    from ..harness.experiments import shipped_target_configs  # deferred: heavy

    subjects: List[Tuple[str, Callable[[], VerifyReport]]] = []
    for label, config in shipped_target_configs():
        if config.network_model in ("cycle", "simd", "table-shadow"):
            subjects.append(
                (
                    f"shipped config {label}",
                    lambda c=config: verify_noc(
                        c.make_topology(), c.routing, c.noc
                    ),
                )
            )
    subjects.extend(_routing_matrix())
    subjects.append(
        (
            "coherence protocol",
            lambda: verify_protocol(num_cores=num_cores),
        )
    )
    return subjects


def _run_self_test(fmt: str) -> int:
    """Negative controls: both broken fixtures must be refuted."""
    net_report = check_network(
        Mesh(2, 2), FullyAdaptiveMinimalRouting(), NocConfig(num_vcs=1)
    )
    proto_report = check_protocol(num_cores=2, cache_table=broken_cache_table())
    refuted_net = any(f.check == "cdg-cycle" for f in net_report.findings)
    refuted_proto = any(
        f.check == "unhandled-transition" for f in proto_report.findings
    )
    ok = refuted_net and refuted_proto
    if fmt == "json":
        print(
            json.dumps(
                {
                    "self_test": True,
                    "ok": ok,
                    "reports": [net_report.to_dict(), proto_report.to_dict()],
                },
                indent=2,
            )
        )
        return 0 if ok else 1
    print(net_report.render())
    print()
    print(proto_report.render())
    print()
    if ok:
        print(
            "verify --self-test: OK (both broken fixtures refuted with "
            "counterexamples)"
        )
        return 0
    missing = []
    if not refuted_net:
        missing.append("fully-adaptive routing fixture was NOT refuted")
    if not refuted_proto:
        missing.append("broken protocol-table fixture was NOT refuted")
    print("verify --self-test: FAIL: " + "; ".join(missing))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="Prove or refute deadlock-freedom and protocol safety "
        "for concrete configurations, before any cycle is simulated.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="substring filters over subject labels (default: verify "
        "everything shipped)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="stop at the first refuted subject",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check that the deliberately-broken fixtures are refuted",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=2,
        help="cachers in the protocol small-N abstraction (default 2)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.self_test:
        return _run_self_test(args.format)

    subjects = _default_subjects(args.cores)
    if args.targets:
        wanted = [t.lower() for t in args.targets]
        subjects = [
            (label, thunk)
            for label, thunk in subjects
            if any(w in label.lower() for w in wanted)
        ]
        if not subjects:
            print(f"verify: no subject matches {args.targets}", file=sys.stderr)
            return 2

    reports: List[Tuple[str, VerifyReport]] = []
    failed = 0
    try:
        for label, thunk in subjects:
            report = thunk()
            reports.append((label, report))
            if not report.ok:
                failed += 1
                if args.strict:
                    break
    except ConfigError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": failed == 0,
                    "reports": [
                        dict(r.to_dict(), label=label) for label, r in reports
                    ],
                },
                indent=2,
            )
        )
    else:
        for label, report in reports:
            print(report.render())
        print()
        if failed:
            print(
                f"verify: {failed}/{len(reports)} subject(s) REFUTED, "
                f"{len(reports) - failed} certified"
            )
        else:
            print(f"verify: all {len(reports)} subject(s) certified")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
