"""The service catalogue: popular sites, their owners, shares and DNS traits.

Two distinct notions of "size" coexist, as on the real Internet:

* ``visits_weight`` — popularity: how often users *visit/resolve* the
  service. The Alexa-style top list ranks by this.
* ``bytes_share`` — fraction of total Internet *bytes* the service accounts
  for. SimilarWeb/byte-volume views rank by this.

They deliberately diverge (video services carry many bytes per visit), which
is what makes the paper's §3.2.3 ECS observation consistent: 15 of the top
20 *sites* support ECS, representing ~35% of Internet traffic and ~91% of
traffic to the top 20 — while heavy custom-URL VOD services sit outside the
top-20 popularity list.

The named-service table below is calibrated so those numbers come out of
the catalogue by construction; the long tail of third-party services is
generated with a Zipf law and mostly hosted on hypergiant clouds, keeping
the hypergiants' infrastructure share of total traffic near the ~90% the
paper cites [25].
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ServiceConfig
from ..errors import ConfigError
from ..rand import zipf_weights
from .hypergiants import (HypergiantSpec, RedirectionScheme,
                          default_hypergiants)


@dataclass(frozen=True)
class Service:
    """One popular service ("site") with its public and structural traits."""

    sid: int
    key: str
    domain: str
    owner_key: Optional[str]    # hypergiant that owns the service, if any
    host_key: Optional[str]     # hypergiant whose infra serves it (None=stub)
    bytes_share: float          # fraction of total Internet bytes
    visits_weight: float        # unnormalised popularity weight
    ecs_supported: bool
    redirection: RedirectionScheme
    dns_ttl: int


# (key, owner, host, bytes_%, visits_weight, ecs, redirection)
# The first 20 rows are the popularity top-20; 15 support ECS.
_NAMED: Tuple[Tuple[str, Optional[str], Optional[str], float, float, bool,
                    RedirectionScheme], ...] = (
    ("googol-search", "googol", "googol", 4.00, 100.0, True, RedirectionScheme.DNS),
    ("googol-video", "googol", "googol", 10.50, 85.0, True, RedirectionScheme.DNS),
    ("metabook-social", "metabook", "metabook", 5.50, 80.0, True, RedirectionScheme.DNS),
    ("metabook-photos", "metabook", "metabook", 3.50, 60.0, True, RedirectionScheme.DNS),
    ("tiktak-video", "tiktak", "tiktak", 4.00, 55.0, True, RedirectionScheme.DNS),
    ("shopzon", "amazonia", "amazonia", 1.00, 50.0, True, RedirectionScheme.DNS),
    ("wikiknow", None, "cloudfast", 0.90, 45.0, False, RedirectionScheme.ANYCAST),
    ("googol-mail", "googol", "googol", 0.80, 42.0, True, RedirectionScheme.DNS),
    ("chirper", None, "fastedge", 0.60, 40.0, False, RedirectionScheme.ANYCAST),
    ("office-cloud", "microcdn", "microcdn", 1.60, 38.0, True, RedirectionScheme.DNS),
    ("msn-portal", "microcdn", "microcdn", 0.60, 35.0, True, RedirectionScheme.DNS),
    ("metabook-chat", "metabook", "metabook", 0.80, 33.0, True, RedirectionScheme.DNS),
    ("redditlike", None, "cloudfast", 0.70, 30.0, False, RedirectionScheme.ANYCAST),
    ("pinzone", None, "amazonia", 0.80, 28.0, False, RedirectionScheme.DNS),
    ("orchard-store", "appleorchard", "appleorchard", 1.00, 26.0, True, RedirectionScheme.DNS),
    ("orchard-icloud", "appleorchard", "appleorchard", 0.70, 24.0, True, RedirectionScheme.DNS),
    ("newsglobe", None, "amazonia", 0.50, 22.0, False, RedirectionScheme.DNS),
    ("akamee-games", None, "akamee", 0.60, 20.0, True, RedirectionScheme.DNS),
    ("cloudmart", None, "microcdn", 0.35, 19.0, True, RedirectionScheme.DNS),
    ("vidshort", None, "googol", 0.35, 18.0, True, RedirectionScheme.DNS),
    # -- below the popularity top-20: the heavy hitters by bytes -------------
    ("streamflix-vod", "streamflix", "streamflix", 13.00, 17.0, False,
     RedirectionScheme.CUSTOM_URL),
    ("primevid", "amazonia", "amazonia", 3.00, 15.0, False,
     RedirectionScheme.CUSTOM_URL),
    ("gamestorm", None, "akamee", 2.50, 13.0, False,
     RedirectionScheme.CUSTOM_URL),
    ("cdn-assets", "akamee", "akamee", 2.50, 6.0, True, RedirectionScheme.DNS),
    ("musicstream", "appleorchard", "appleorchard", 2.00, 12.0, True,
     RedirectionScheme.DNS),
    ("clouddrive", "googol", "googol", 2.00, 11.0, True, RedirectionScheme.DNS),
    ("xbox-live", "microcdn", "microcdn", 1.50, 10.0, True, RedirectionScheme.DNS),
    ("cloudstore-b2b", "amazonia", "amazonia", 1.50, 8.0, True, RedirectionScheme.DNS),
    ("edge-bundle", "cloudfast", "cloudfast", 1.50, 6.0, False,
     RedirectionScheme.ANYCAST),
    ("maps", "googol", "googol", 1.20, 10.0, True, RedirectionScheme.DNS),
    ("conference-app", "microcdn", "microcdn", 1.00, 9.0, True, RedirectionScheme.DNS),
    ("metaverse", "metabook", "metabook", 1.00, 7.0, True, RedirectionScheme.DNS),
    ("voicechat", None, "googol", 0.80, 7.0, True, RedirectionScheme.DNS),
    ("fastsites", "fastedge", "fastedge", 0.70, 5.0, False,
     RedirectionScheme.ANYCAST),
)

TOP_LIST_SIZE = 20

# Fraction of long-tail services hosted on hypergiant clouds (the rest sit
# in stub hosting ASes); chosen so hypergiant infrastructure carries ~90%
# of all bytes, matching [25].
_LONGTAIL_CLOUD_HOSTED = 0.70
# Relative hosting market share among the cloud hypergiants.
_CLOUD_HOST_WEIGHTS = {
    "amazonia": 0.36, "googol": 0.22, "microcdn": 0.20,
    "cloudfast": 0.12, "akamee": 0.10,
}


class ServiceCatalog:
    """All services of the simulated Internet, with share bookkeeping."""

    def __init__(self, services: Sequence[Service],
                 hypergiants: Dict[str, HypergiantSpec]) -> None:
        if not services:
            raise ConfigError("empty service catalogue")
        total = sum(s.bytes_share for s in services)
        if not 0.999 <= total <= 1.001:
            raise ConfigError(f"bytes shares sum to {total}, expected 1")
        self._services = list(services)
        self._by_key = {s.key: s for s in services}
        if len(self._by_key) != len(self._services):
            raise ConfigError("duplicate service keys")
        self.hypergiants = hypergiants

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config: ServiceConfig,
              rng: np.random.Generator) -> "ServiceCatalog":
        """Named table + generated long tail, bytes shares normalised."""
        config.validate()
        hypergiants = default_hypergiants()
        named_bytes = sum(row[3] for row in _NAMED) / 100.0
        tail_total = max(0.0, 1.0 - named_bytes)
        services: List[Service] = []
        for sid, row in enumerate(_NAMED):
            key, owner, host, share, visits, ecs, redirection = row
            if host is not None and host not in hypergiants:
                raise ConfigError(f"unknown host hypergiant {host!r}")
            services.append(Service(
                sid=sid, key=key, domain=f"www.{key}.example",
                owner_key=owner, host_key=host,
                bytes_share=share / 100.0, visits_weight=visits,
                ecs_supported=ecs, redirection=redirection,
                dns_ttl=config.default_dns_ttl))
        # Long tail: Zipf bytes shares, modest popularity, cloud-hosted.
        n_tail = config.n_longtail_services
        if n_tail > 0 and tail_total > 0:
            tail_shares = zipf_weights(n_tail, config.longtail_zipf_exponent)
            tail_shares = tail_shares * tail_total
            cloud_keys = list(_CLOUD_HOST_WEIGHTS)
            cloud_probs = np.array([_CLOUD_HOST_WEIGHTS[k] for k in cloud_keys])
            cloud_probs = cloud_probs / cloud_probs.sum()
            for i in range(n_tail):
                sid = len(services)
                if rng.random() < _LONGTAIL_CLOUD_HOSTED:
                    host: Optional[str] = cloud_keys[int(
                        rng.choice(len(cloud_keys), p=cloud_probs))]
                else:
                    host = None  # stub hosting
                host_spec = hypergiants.get(host) if host else None
                anycast = bool(host_spec and host_spec.uses_anycast)
                services.append(Service(
                    sid=sid, key=f"tail-{i + 1}",
                    domain=f"www.tail-{i + 1}.example",
                    owner_key=None, host_key=host,
                    bytes_share=float(tail_shares[i]),
                    visits_weight=float(4.0 * tail_shares[i] / tail_shares[0]
                                        + 0.05),
                    ecs_supported=bool(host_spec) and not anycast
                    and rng.random() < 0.6,
                    redirection=(RedirectionScheme.ANYCAST if anycast
                                 else RedirectionScheme.DNS),
                    dns_ttl=config.default_dns_ttl))
        # Renormalise bytes shares (exact 1.0 regardless of tail size).
        total = sum(s.bytes_share for s in services)
        services = [dataclasses.replace(s, bytes_share=s.bytes_share / total)
                    for s in services]
        return cls(services, hypergiants)

    # -- accessors -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self):
        return iter(self._services)

    def get(self, key: str) -> Service:
        try:
            return self._by_key[key]
        except KeyError:
            raise ConfigError(f"unknown service {key!r}") from None

    def by_sid(self, sid: int) -> Service:
        if not 0 <= sid < len(self._services):
            raise ConfigError(f"unknown service id {sid}")
        return self._services[sid]

    @property
    def services(self) -> List[Service]:
        return list(self._services)

    def top_by_popularity(self, k: int = TOP_LIST_SIZE) -> List[Service]:
        """The Alexa-style top list (rank by visits weight)."""
        ranked = sorted(self._services,
                        key=lambda s: (-s.visits_weight, s.sid))
        return ranked[:k]

    def services_hosted_by(self, hypergiant_key: str) -> List[Service]:
        return [s for s in self._services if s.host_key == hypergiant_key]

    def hypergiant_bytes_share(self, hypergiant_key: str) -> float:
        """Fraction of all bytes served from this hypergiant's infra."""
        return sum(s.bytes_share for s in self.services_hosted_by(
            hypergiant_key))

    def total_hypergiant_share(self) -> float:
        """Fraction of bytes served by any hypergiant (paper: ~90%)."""
        return sum(s.bytes_share for s in self._services
                   if s.host_key is not None)

    def visits_share(self, service: Service) -> float:
        total = sum(s.visits_weight for s in self._services)
        return service.visits_weight / total

    def dns_redirected(self) -> List[Service]:
        return [s for s in self._services
                if s.redirection is RedirectionScheme.DNS]

    def anycast_services(self) -> List[Service]:
        return [s for s in self._services
                if s.redirection is RedirectionScheme.ANYCAST]

    def custom_url_services(self) -> List[Service]:
        return [s for s in self._services
                if s.redirection is RedirectionScheme.CUSTOM_URL]
