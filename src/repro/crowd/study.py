"""Crowdsourced data collection (the paper's stated future work).

§5.2 ends: "our experimental evaluation could have missed some tracking
providers that appear only one time in the dataset (58 third-party
receivers). We intend to expand our dataset in future work by using
crowdsourced data collection to overcome this drawback."

This module implements that expansion.  A *panel* of contributors — each
with their own persona, browser and site sample — runs the authentication
flows independently; the coordinator merges the per-contributor leak
datasets and re-runs the §5.2 funnel on the union.  A receiver that looked
like a one-off in a single-vantage crawl becomes classifiable once two
contributors observe it with their (different) identifiers in the same
parameter.

Identifier matching across contributors is per-contributor: each
contributor's candidate token set is derived from their own persona, so no
contributor's PII needs to be shared with the coordinator — only the
derived leak events, mirroring how a privacy-preserving deployment would
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..browser import BrowserProfile, vanilla_firefox
from ..core.analysis import LeakAnalysis
from ..core.detector import LeakDetector
from ..core.leakmodel import LeakEvent
from ..core.persona import Persona
from ..core.tokens import CandidateTokenSet
from ..crawler import StudyCrawler
from ..tracking import PersistenceAnalyzer
from ..websim.population import Population
from ..websim.site import Website


@dataclass(frozen=True)
class Contributor:
    """One crowd participant: persona + browser + assigned site sample."""

    name: str
    persona: Persona
    site_domains: Tuple[str, ...]
    profile: Optional[BrowserProfile] = None


def make_panel(site_domains: Sequence[str], n_contributors: int,
               overlap: float = 0.5) -> List[Contributor]:
    """Split sites over contributors with controlled overlap.

    Every contributor gets a private slice plus a shared slice covering
    ``overlap`` of the universe — the shared part is what turns single
    observations into cross-vantage confirmations.
    """
    if n_contributors < 1:
        raise ValueError("need at least one contributor")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be within [0, 1]")
    domains = list(site_domains)
    shared_count = int(len(domains) * overlap)
    shared, private = domains[:shared_count], domains[shared_count:]
    slices: List[List[str]] = [list(shared) for _ in range(n_contributors)]
    for index, domain in enumerate(private):
        slices[index % n_contributors].append(domain)

    contributors = []
    for index, assigned in enumerate(slices):
        # Like the default persona, the mailbox-local part avoids the
        # name/username surface forms so token categories stay disjoint.
        persona = Persona(
            email="px%02d.shopper@pmail.example" % index,
            username="crowduser%02d" % index,
            first_name="Crowd",
            last_name="User%02d" % index,
        )
        contributors.append(Contributor(
            name="contributor-%02d" % index, persona=persona,
            site_domains=tuple(assigned)))
    return contributors


@dataclass
class ContributorReport:
    """What one contributor submits to the coordinator."""

    name: str
    events: List[LeakEvent]

    def receivers(self) -> Set[str]:
        return {event.receiver for event in self.events}


@dataclass
class CrowdStudyResult:
    """Merged view over all contributors."""

    reports: List[ContributorReport]
    merged_events: List[LeakEvent]
    analysis: LeakAnalysis
    persistence_report: object

    def receivers_confirmed_by(self, min_contributors: int = 2) -> List[str]:
        """Receivers observed by at least N independent contributors."""
        seen: Dict[str, Set[str]] = {}
        for report in self.reports:
            for receiver in report.receivers():
                seen.setdefault(receiver, set()).add(report.name)
        return sorted(receiver for receiver, names in seen.items()
                      if len(names) >= min_contributors)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-able summary (what the service's result endpoint ships).

        Carries only derived aggregates — receiver domains, event
        counts, confirmation sets — never contributor personas, true to
        the module's PII-stays-local reporting model.
        """
        report = self.persistence_report
        return {
            "contributors": [
                {"name": r.name, "events": len(r.events),
                 "receivers": sorted(r.receivers())}
                for r in self.reports],
            "merged_event_count": len(self.merged_events),
            "receivers": self.analysis.receivers(),
            "confirmed_receivers": self.receivers_confirmed_by(2),
            "cross_site_receivers": list(report.cross_site_receivers),
            "persistent_receivers": list(report.persistent_receivers),
        }


class CrowdStudy:
    """Coordinates a crowdsourced crawl over one population."""

    def __init__(self, population: Population,
                 contributors: Sequence[Contributor]) -> None:
        self.population = population
        self.contributors = list(contributors)

    def _run_contributor(self, contributor: Contributor) -> ContributorReport:
        # Each contributor crawls with their own persona and fresh state.
        population = Population(
            sites=self.population.sites,
            catalog=self.population.catalog,
            persona=contributor.persona,
            zone=self.population.zone)
        sites: List[Website] = [population.sites[domain]
                                for domain in contributor.site_domains]
        crawler = StudyCrawler(
            population, profile=contributor.profile or vanilla_firefox())
        dataset = crawler.crawl(sites=sites)
        # Detection runs with the contributor's own token set: PII stays
        # local, only leak events are reported upstream.
        detector = LeakDetector(CandidateTokenSet(population.persona),
                                catalog=population.catalog,
                                resolver=population.resolver())
        return ContributorReport(name=contributor.name,
                                 events=detector.detect(dataset.log))

    def run_iter(self):
        """Yield ``(contributor, report)`` as each contributor finishes.

        The incremental twin of :meth:`run`: callers that need per-
        contributor progress (the service streams one SSE event per
        finished contributor) consume this and :meth:`merge` the
        reports themselves.
        """
        for contributor in self.contributors:
            yield contributor, self._run_contributor(contributor)

    def merge(self, reports: Sequence[ContributorReport]
              ) -> CrowdStudyResult:
        """Fold finished reports into the §5.2 funnel over the union."""
        merged: List[LeakEvent] = []
        for report in reports:
            merged.extend(report.events)
        analysis = LeakAnalysis(merged)
        persistence = PersistenceAnalyzer(merged).report()
        return CrowdStudyResult(reports=list(reports),
                                merged_events=merged,
                                analysis=analysis,
                                persistence_report=persistence)

    def run(self) -> CrowdStudyResult:
        return self.merge([report for _, report in self.run_iter()])
