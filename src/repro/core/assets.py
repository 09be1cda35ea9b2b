"""Compiled study assets: build once, match many (the hot-path API).

Every stage of a study reads the same immutable inputs — the persona's
candidate token set, the tracker catalog, the PSL.
:class:`CompiledStudyAssets` is the live bundle a study builds once and
threads through ``Study.crawl`` and ``Study.analyze``: the built
population, the lazily-built :class:`~repro.core.tokens.CandidateTokenSet`
(built recorder-free so it can be reused under any trace; see
:meth:`~CompiledStudyAssets.replay_token_funnel`) and detector
factories.  It stays in the process that built it: shard workers
rebuild their population from the crawl's picklable population spec.

Nothing here may move a fingerprint: assets only cache pure functions
of the study's immutable inputs, and the funnel counters a precomputed
token set would have recorded are replayed verbatim into whichever
recorder the reusing stage supplies.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Recorder
from ..psl import PublicSuffixList, default_list
from .detector import LeakDetector
from .tokens import CandidateTokenSet, TokenSetConfig


class CompiledStudyAssets:
    """Everything the crawl/analyze hot path needs, compiled once.

    Build it with :meth:`for_population`;
    :class:`~repro.core.pipeline.Study` builds one automatically, or
    accepts a prebuilt instance via ``StudyConfig(assets=...)`` so
    several studies over the same population can share the compiled
    state.
    """

    def __init__(self, population, *,
                 token_config: Optional[TokenSetConfig] = None,
                 psl: Optional[PublicSuffixList] = None) -> None:
        self.population = population
        self.token_config = token_config
        self.psl = psl or default_list()
        self._tokens: Optional[CandidateTokenSet] = None

    @classmethod
    def for_population(cls, population, *,
                       token_config: Optional[TokenSetConfig] = None,
                       psl: Optional[PublicSuffixList] = None
                       ) -> "CompiledStudyAssets":
        """The single public construction path for live assets."""
        return cls(population, token_config=token_config, psl=psl)

    # -- identity ---------------------------------------------------------

    @property
    def persona(self):
        return self.population.persona

    @property
    def catalog(self):
        return self.population.catalog

    # -- compiled pieces --------------------------------------------------

    def tokens(self) -> CandidateTokenSet:
        """The persona's candidate token set (compiled on first use).

        Built without a recorder — generation-funnel tallies are kept as
        plain ints on the set — so one compilation serves every stage
        and every trace; stages that trace call
        :meth:`replay_token_funnel` to surface the funnel.
        """
        if self._tokens is None:
            self._tokens = CandidateTokenSet(self.persona,
                                             config=self.token_config,
                                             recorder=None)
        return self._tokens

    def replay_token_funnel(self, recorder: Optional[Recorder]) -> None:
        """Replay the token-generation funnel into ``recorder``.

        Emits exactly the counters/gauge a fresh
        :class:`CandidateTokenSet` constructed with that recorder would
        have recorded, so traces stay bit-identical whether the token
        set was compiled here or built inline.
        """
        self.tokens().replay_funnel(recorder)

    def detector(self, recorder: Optional[Recorder] = None,
                 scan_first_party: bool = False,
                 locations=None,
                 fault_plan=None) -> LeakDetector:
        """A :class:`LeakDetector` over the compiled token set."""
        return LeakDetector(self.tokens(), catalog=self.catalog,
                            resolver=self.population.resolver(fault_plan),
                            psl=self.psl,
                            scan_first_party=scan_first_party,
                            locations=locations, recorder=recorder)
