"""The 13 Root Letter services (paper Table 2).

Each letter is an independently operated DNS service with its own
architecture.  E- and K-Root get explicit site lists taken from the
paper's Figures 5-6 (airport codes, relative catchment sizes, and the
stress behaviours sections 3.3-3.5 document per site).  The other
letters' per-site details were not published, so their deployments are
synthesised deterministically to match Table 2's *observed* site
counts and each operator's regional footprint.

Calibration notes (all documented in DESIGN.md):

* capacities are chosen so the ~5 Mq/s per-letter event traffic
  (section 2.3) reproduces each letter's observed outcome: B (unicast,
  one site) nearly disappears, H's primary withdraws to its backup,
  K-LHR/K-FRA shed to K-AMS while K-AMS absorbs with seconds of
  latency, five E sites withdraw and stay down after the second event,
  and the large letters (J, L) barely notice;
* ``rssac_capture_fraction`` models best-effort RSSAC-002 measurement
  losing data under stress (sections 2.4.2, 3.1): A measured the whole
  event, H/J/K under-measured badly;
* ``rssac_ip_capture_fraction`` models the (much more expensive)
  unique-source counting sampling an even smaller slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..netsim.bgp import Scope
from ..util.airports import AIRPORTS
from .sites import ServerBehavior, SitePolicy, SiteSpec

#: Metros whose data centres host multiple services (section 3.6 finds
#: collateral damage in Frankfurt and Sydney; we also share the other
#: big European interconnection metros).
SHARED_FACILITY_METROS = ("FRA", "AMS", "LHR", "SYD", "NRT")

#: RIPE Atlas measurement ids per letter (paper reference [46]).
RIPE_MEASUREMENT_IDS = {
    "A": 10309, "B": 10310, "C": 10311, "D": 10312, "E": 10313,
    "F": 10304, "G": 10314, "H": 10315, "I": 10305, "J": 10316,
    "K": 10301, "L": 10308, "M": 10306,
}


def facility_for(code: str) -> str | None:
    """Shared facility id for a metro, or ``None`` if isolated."""
    if code in SHARED_FACILITY_METROS:
        return f"{code}-DC"
    return None


@dataclass(frozen=True, slots=True)
class LetterSpec:
    """One root letter service and its deployment."""

    letter: str
    operator: str
    reported_sites: int
    reported_note: str
    attacked: bool
    rssac_reporting: bool
    rssac_capture_fraction: float
    rssac_ip_capture_fraction: float
    baseline_qps: float
    probe_interval_s: int
    sites: tuple[SiteSpec, ...]

    def __post_init__(self) -> None:
        codes = [s.code for s in self.sites]
        if len(set(codes)) != len(codes):
            raise ValueError(f"duplicate site codes for {self.letter}")
        if not 0.0 <= self.rssac_capture_fraction <= 1.0:
            raise ValueError("rssac_capture_fraction must be in [0, 1]")
        if not 0.0 <= self.rssac_ip_capture_fraction <= 1.0:
            raise ValueError("rssac_ip_capture_fraction must be in [0, 1]")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def capacity_qps(self) -> float:
        """Aggregate capacity over all sites."""
        return sum(s.capacity_qps for s in self.sites)

    @property
    def measurement_id(self) -> int:
        return RIPE_MEASUREMENT_IDS[self.letter]

    def site(self, code: str) -> SiteSpec:
        """Look up a site by airport code."""
        for spec in self.sites:
            if spec.code == code:
                return spec
        raise KeyError(f"{self.letter}-Root has no site {code!r}")


def _site(code: str, **kwargs) -> SiteSpec:
    kwargs.setdefault("facility", facility_for(code))
    return SiteSpec(code=code, **kwargs)


def _e_root_sites() -> tuple[SiteSpec, ...]:
    """E-Root: the 32 sites of Fig. 6a plus small unlisted ones.

    Five sites (AMS, CDG, WAW, SYD, NLV) withdrew under stress and
    stayed down after the second event (Fig. 6a); the big survivors
    (FRA, LHR, ARC, VIE, IAD) absorbed the shifted load.
    """
    withdrawers = {"AMS", "CDG", "WAW", "SYD", "NLV"}
    big = {"FRA": 8, "LHR": 8, "ARC": 8, "VIE": 5, "IAD": 5,
           "AMS": 2, "CDG": 1, "WAW": 1, "SYD": 1, "NLV": 1}
    well_connected = {"FRA": 4, "LHR": 4, "ARC": 3, "VIE": 3, "IAD": 3}
    named = [
        "AMS", "FRA", "LHR", "ARC", "CDG", "VIE", "QPG", "ORD", "KBP",
        "ZRH", "IAD", "PAO", "WAW", "ATL", "BER", "SYD", "SEA", "NLV",
        "MIA", "NRT", "TRN", "AKL", "MAN", "BUR", "LGA", "PER", "SNA",
        "LBA", "SIN", "DXB", "KGL", "LAD",
    ]
    sites = []
    for i, code in enumerate(named):
        policy = (
            SitePolicy.WITHDRAW if code in withdrawers else SitePolicy.ABSORB
        )
        sites.append(
            _site(
                code,
                scope=Scope.GLOBAL if i < 18 else Scope.LOCAL,
                n_servers=big.get(code, 2),
                policy=policy,
                reannounce_limit=1 if code in withdrawers else None,
                withdraw_threshold=1.3 if code in withdrawers else 2.0,
                n_transit_providers=well_connected.get(code, 2),
            )
        )
    # Unlisted tiny sites to reach Table 2's 74 observed sites.
    extra_pool = [
        c for c in AIRPORTS
        if c not in named and c not in ("BWI", "SAN")
    ]
    for code in extra_pool[: 74 - len(named)]:
        sites.append(
            _site(code, scope=Scope.LOCAL, n_servers=1,
                  policy=SitePolicy.ABSORB)
        )
    return tuple(sites)


def _k_root_sites() -> tuple[SiteSpec, ...]:
    """K-Root: the sites of Fig. 6b with their documented behaviours.

    K-AMS stays up but absorbs with seconds of latency (Fig. 7);
    K-LHR and K-FRA shed most of their catchment towards K-AMS
    (Figs. 10-11) while still serving "stuck" peers; K-FRA's replies
    collapse onto a single server per event while K-NRT's three
    servers all degrade unevenly (Figs. 12-13).
    """
    named: list[tuple[str, dict]] = [
        ("AMS", dict(n_servers=10, policy=SitePolicy.ABSORB,
                     n_transit_providers=5, route_preference_discount=0.5)),
        ("LHR", dict(n_servers=3, policy=SitePolicy.PARTIAL_WITHDRAW)),
        ("FRA", dict(n_servers=3, policy=SitePolicy.PARTIAL_WITHDRAW,
                     server_behavior=ServerBehavior.SHED_TO_ONE)),
        ("MIA", dict(n_servers=4)),
        ("VIE", dict(n_servers=3)),
        ("LED", dict(n_servers=3)),
        ("NRT", dict(n_servers=3, policy=SitePolicy.ABSORB,
                     server_behavior=ServerBehavior.SKEWED)),
        ("MIL", dict(n_servers=3)),
        ("ZRH", dict(n_servers=3)),
        ("WAW", dict(n_servers=2)),
        ("BNE", dict(n_servers=3)),
        ("PRG", dict(n_servers=3)),
        ("GVA", dict(n_servers=3)),
        ("ATH", dict(n_servers=2)),
        ("MKC", dict(n_servers=2)),
    ]
    local = [
        "RIX", "THR", "BUD", "KAE", "BEG", "HEL", "PLX", "OVB", "POZ",
        "ABO", "AVN", "BCN", "REY", "DOH", "RNO", "DEL", "JNB",
    ]
    sites = [
        _site(code, scope=Scope.GLOBAL, **kwargs) for code, kwargs in named
    ]
    sites.extend(
        _site(code, scope=Scope.LOCAL, n_servers=1) for code in local
    )
    return tuple(sites)


#: Regional site-placement weights per synthetic letter.
_SYNTH_PROFILES: dict[str, dict[str, float]] = {
    "A": {"NA": 0.6, "EU": 0.2, "AS": 0.2},
    "C": {"NA": 0.6, "EU": 0.4},
    "D": {"EU": 0.35, "NA": 0.3, "AS": 0.15, "OC": 0.1, "SA": 0.05,
          "AF": 0.05},
    "F": {"NA": 0.3, "EU": 0.3, "AS": 0.2, "SA": 0.08, "OC": 0.07,
          "AF": 0.05},
    "G": {"NA": 1.0},
    "I": {"EU": 0.7, "NA": 0.1, "AS": 0.1, "AF": 0.05, "OC": 0.05},
    "J": {"NA": 0.4, "EU": 0.3, "AS": 0.2, "OC": 0.05, "SA": 0.05},
    "L": {"NA": 0.25, "EU": 0.3, "AS": 0.2, "SA": 0.1, "OC": 0.05,
          "AF": 0.05, "ME": 0.05},
    "M": {"AS": 0.7, "NA": 0.15, "EU": 0.15},
}


def _pick_codes(
    rng: np.random.Generator,
    profile: dict[str, float],
    count: int,
    must_include: tuple[str, ...] = (),
    exclude: tuple[str, ...] = (),
) -> list[str]:
    """*count* airport codes: *must_include* first, then one weighted
    region draw per missing site.

    Each region's airports are shuffled once; a draw takes the first
    code of its region that is neither chosen nor in *exclude*, or,
    when the region has none left, the first such code of any region.
    Raises ``ValueError`` when the airport table runs out.
    """
    # Region-major deterministic ordering.
    by_region: dict[str, list[str]] = {}
    for code, ap in AIRPORTS.items():
        by_region.setdefault(ap.region, []).append(code)
    for codes in by_region.values():
        rng.shuffle(codes)
    chosen: list[str] = list(must_include)
    taken = set(chosen) | set(exclude)
    regions = sorted(profile)
    weights = np.array([profile[r] for r in regions])
    weights = weights / weights.sum()
    # With ``p`` given, one size-n call reads the same n doubles from
    # the stream as n scalar calls.  A per-site loop of scalar calls
    # stops at the draw that finds no airport left, so that is as far
    # as this draws too.
    n_free = sum(code not in taken for code in AIRPORTS)
    n_draws = max(0, min(count - len(chosen), n_free + 1))
    for index in rng.choice(len(regions), size=n_draws, p=weights):
        candidates = itertools.chain(
            by_region.get(regions[index], ()), *by_region.values()
        )
        code = next((c for c in candidates if c not in taken), None)
        if code is None:
            raise ValueError(f"airport table too small for {count} sites")
        chosen.append(code)
        taken.add(code)
    return chosen


def _synth_sites(
    letter: str,
    count: int,
    n_global: int,
    must_include: tuple[str, ...] = (),
    exclude: tuple[str, ...] = (),
    policy_overrides: dict[str, SitePolicy] | None = None,
    n_servers_global: int = 4,
    n_servers_local: int = 1,
    coupling_overrides: dict[str, float] | None = None,
    server_overrides: dict[str, int] | None = None,
    buffer_ms: float | None = None,
) -> tuple[SiteSpec, ...]:
    """Deterministically synthesise a letter's site list.

    Site codes are drawn without replacement from the airport table,
    weighted by the letter's regional profile; *must_include* pins
    specific metros (e.g. D's Frankfurt and Sydney sites, which the
    paper shows suffering collateral damage).
    """
    # Seeded from the letter itself (not Python's randomised hash), so
    # the registry is identical in every process.
    chosen = _pick_codes(
        np.random.default_rng(ord(letter) + 77),
        _SYNTH_PROFILES[letter],
        count,
        must_include,
        exclude,
    )
    overrides = policy_overrides or {}
    couplings = coupling_overrides or {}
    servers = server_overrides or {}
    sites = []
    for i, code in enumerate(chosen):
        is_global = i < n_global
        kwargs = {}
        if code in couplings:
            kwargs["facility_coupling"] = couplings[code]
        default_servers = n_servers_global if is_global else n_servers_local
        if buffer_ms is not None:
            kwargs["buffer_ms"] = buffer_ms
        sites.append(
            _site(
                code,
                scope=Scope.GLOBAL if is_global else Scope.LOCAL,
                n_servers=servers.get(code, default_servers),
                policy=overrides.get(code, SitePolicy.ABSORB),
                **kwargs,
            )
        )
    return tuple(sites)


def _build_letters() -> dict[str, LetterSpec]:
    letters = {}

    def add(spec: LetterSpec) -> None:
        letters[spec.letter] = spec

    add(LetterSpec(
        letter="A", operator="Verisign", reported_sites=5,
        reported_note="(5, 0)", attacked=True,
        rssac_reporting=True, rssac_capture_fraction=1.0,
        rssac_ip_capture_fraction=0.6,
        baseline_qps=40_000.0, probe_interval_s=1800,
        sites=_synth_sites(
            "A", 5, n_global=5, n_servers_global=55,
            must_include=("IAD", "LAX", "FRA", "NRT"),
        ),
    ))
    add(LetterSpec(
        letter="B", operator="USC/ISI", reported_sites=1,
        reported_note="(unicast)", attacked=True,
        rssac_reporting=False, rssac_capture_fraction=0.05,
        rssac_ip_capture_fraction=0.005,
        baseline_qps=35_000.0, probe_interval_s=240,
        sites=(_site("LAX", n_servers=3, policy=SitePolicy.ABSORB,
                     buffer_ms=40.0),),
    ))
    add(LetterSpec(
        letter="C", operator="Cogent", reported_sites=8,
        reported_note="(8, 0)", attacked=True,
        rssac_reporting=False, rssac_capture_fraction=0.3,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=45_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "C", 8, n_global=8, n_servers_global=2,
            must_include=("IAD", "ORD", "LAX", "FRA"),
            policy_overrides={"FRA": SitePolicy.PARTIAL_WITHDRAW},
        ),
    ))
    add(LetterSpec(
        letter="D", operator="U. Maryland", reported_sites=87,
        reported_note="(18, 69)", attacked=False,
        rssac_reporting=False, rssac_capture_fraction=1.0,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=50_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "D", 65, n_global=18, must_include=("FRA", "SYD", "IAD"),
            n_servers_global=4,
            # D's Frankfurt and Sydney sites share much of their
            # ingress with co-located attacked services (section 3.6).
            coupling_overrides={"FRA": 0.55, "SYD": 0.7},
        ),
    ))
    add(LetterSpec(
        letter="E", operator="NASA", reported_sites=12,
        reported_note="(1, 11)", attacked=True,
        rssac_reporting=False, rssac_capture_fraction=0.25,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=45_000.0, probe_interval_s=240,
        sites=_e_root_sites(),
    ))
    add(LetterSpec(
        letter="F", operator="ISC", reported_sites=59,
        reported_note="(5, 54)", attacked=True,
        rssac_reporting=False, rssac_capture_fraction=0.4,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=55_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "F", 52, n_global=5, must_include=("AMS", "FRA", "LHR", "PAO", "ORD"),
            n_servers_global=5, n_servers_local=2,
            policy_overrides={"AMS": SitePolicy.WITHDRAW},
            server_overrides={"AMS": 1},
        ),
    ))
    add(LetterSpec(
        letter="G", operator="U.S. DoD", reported_sites=6,
        reported_note="(6, 0)", attacked=True,
        rssac_reporting=False, rssac_capture_fraction=0.2,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=30_000.0, probe_interval_s=240,
        # G's U.S.-east sites withdraw under stress, shifting mostly-
        # European VPs to the west coast (the Fig. 4 latency step).
        sites=_synth_sites(
            "G", 6, n_global=6, n_servers_global=4,
            must_include=("IAD", "ORD", "DEN", "SEA"),
            policy_overrides={
                "IAD": SitePolicy.WITHDRAW,
                "ORD": SitePolicy.WITHDRAW,
            },
            buffer_ms=80.0,
        ),
    ))
    add(LetterSpec(
        letter="H", operator="ARL", reported_sites=2,
        reported_note="(pri/back)", attacked=True,
        rssac_reporting=True, rssac_capture_fraction=0.575,
        rssac_ip_capture_fraction=0.0005,
        baseline_qps=30_000.0, probe_interval_s=240,
        sites=(
            _site("BWI", n_servers=4, policy=SitePolicy.WITHDRAW,
                  withdraw_threshold=1.5, buffer_ms=60.0),
            _site("SAN", n_servers=4, policy=SitePolicy.ABSORB,
                  initially_announced=False, buffer_ms=60.0),
        ),
    ))
    add(LetterSpec(
        letter="I", operator="Netnod", reported_sites=49,
        reported_note="(48, 0)", attacked=True,
        rssac_reporting=False, rssac_capture_fraction=0.35,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=50_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "I", 48, n_global=48, n_servers_global=5,
            must_include=("ARN", "FRA", "AMS", "LHR"),
        ),
    ))
    add(LetterSpec(
        letter="J", operator="Verisign", reported_sites=98,
        reported_note="(66, 32)", attacked=True,
        rssac_reporting=True, rssac_capture_fraction=0.37,
        rssac_ip_capture_fraction=0.25,
        baseline_qps=50_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "J", 69, n_global=66 * 69 // 98, n_servers_global=6,
            n_servers_local=2,
            must_include=("IAD", "FRA", "AMS", "NRT", "LHR", "SYD"),
            exclude=("HND", "KIX"),
            policy_overrides={"NRT": SitePolicy.PARTIAL_WITHDRAW},
            server_overrides={"NRT": 2},
        ),
    ))
    add(LetterSpec(
        letter="K", operator="RIPE", reported_sites=33,
        reported_note="(15, 18)", attacked=True,
        rssac_reporting=True, rssac_capture_fraction=0.42,
        rssac_ip_capture_fraction=0.0035,
        baseline_qps=40_000.0, probe_interval_s=240,
        sites=_k_root_sites(),
    ))
    add(LetterSpec(
        letter="L", operator="ICANN", reported_sites=144,
        reported_note="(144, 0)", attacked=False,
        rssac_reporting=True, rssac_capture_fraction=1.0,
        rssac_ip_capture_fraction=0.012,
        baseline_qps=60_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "L", 113, n_global=113, n_servers_global=3,
        ),
    ))
    add(LetterSpec(
        letter="M", operator="WIDE", reported_sites=7,
        reported_note="(6, 1)", attacked=False,
        rssac_reporting=False, rssac_capture_fraction=1.0,
        rssac_ip_capture_fraction=0.01,
        baseline_qps=45_000.0, probe_interval_s=240,
        sites=_synth_sites(
            "M", 6, n_global=6, n_servers_global=6,
            must_include=("NRT", "HND", "SFO", "CDG"),
        ),
    ))
    return letters


#: The canonical letter registry, keyed by letter.
LETTERS_SPEC: dict[str, LetterSpec] = _build_letters()

#: Letters the events targeted (D, L and M were not attacked; §2.3).
ATTACKED_LETTERS = tuple(
    spec.letter for spec in LETTERS_SPEC.values() if spec.attacked
)

#: Letters providing RSSAC-002 data at event time (§2.4.2).
RSSAC_REPORTING_LETTERS = tuple(
    spec.letter for spec in LETTERS_SPEC.values() if spec.rssac_reporting
)


def letter_spec(letter: str) -> LetterSpec:
    """Look up a letter's spec, raising for unknown letters."""
    try:
        return LETTERS_SPEC[letter]
    except KeyError:
        raise KeyError(f"unknown root letter {letter!r}") from None
