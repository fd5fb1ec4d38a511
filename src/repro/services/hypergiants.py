"""Hypergiant specifications.

The paper's premise is that a handful of large cloud/content providers are
responsible for ~90% of Internet traffic [25] and deploy serving
infrastructure both *on-net* (their own AS) and *off-net* (caches inside
eyeball networks). The fictional-but-recognisable hypergiants below mirror
the deployment styles the literature documents:

* ``googol`` — search/video giant, huge off-net cache program, operates the
  dominant public DNS service (the probing target of §3.1.2);
* ``metabook`` — social giant with a wide off-net program (its server map
  is the dot layer of Figure 1b);
* ``streamflix`` — video-on-demand, off-net appliances, custom-URL
  redirection (§3.2.3's hard case);
* ``microcdn`` — cloud+CDN whose ground-truth traffic plays the role of the
  Microsoft CDN logs the paper validates against (95%/60%/99% coverage);
* ``amazonia`` — cloud with a private peering fabric, no off-nets;
* ``akamee`` — third-party CDN with a deep off-net program;
* ``cloudfast``/``fastedge`` — anycast CDNs (§3.2.3);
* ``appleorchard``, ``tiktak`` — large first-party services.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class OffnetReach(enum.Enum):
    """How aggressively a hypergiant deploys caches in other networks."""

    NONE = "none"
    MINOR = "minor"
    MAJOR = "major"


class RedirectionScheme(enum.Enum):
    """How a service steers clients to serving sites (§3.2)."""

    DNS = "dns"                # DNS-based redirection (maybe with ECS)
    ANYCAST = "anycast"        # one IP, BGP picks the site
    CUSTOM_URL = "custom_url"  # per-client URLs embedded in content


@dataclass(frozen=True)
class HypergiantSpec:
    """Public-knowledge description of one hypergiant."""

    key: str
    display_name: str
    is_cloud: bool                 # hosts third-party services
    operates_public_dns: bool      # runs the GDNS-like resolver
    offnet_reach: OffnetReach
    uses_anycast: bool             # serves over anycast prefixes
    cert_org: str                  # organisation string on its TLS certs


_SPECS: Tuple[HypergiantSpec, ...] = (
    HypergiantSpec("googol", "Googol", True, True, OffnetReach.MAJOR,
                   False, "Googol LLC"),
    HypergiantSpec("metabook", "MetaBook", False, False, OffnetReach.MAJOR,
                   False, "MetaBook Inc"),
    HypergiantSpec("streamflix", "StreamFlix", False, False,
                   OffnetReach.MAJOR, False, "StreamFlix Inc"),
    HypergiantSpec("microcdn", "MicroCDN", True, False, OffnetReach.MINOR,
                   False, "MicroCDN Corp"),
    HypergiantSpec("amazonia", "Amazonia", True, False, OffnetReach.NONE,
                   False, "Amazonia Web Services"),
    HypergiantSpec("akamee", "Akamee", True, False, OffnetReach.MAJOR,
                   False, "Akamee Technologies"),
    HypergiantSpec("cloudfast", "CloudFast", True, False, OffnetReach.NONE,
                   True, "CloudFast Inc"),
    HypergiantSpec("appleorchard", "AppleOrchard", False, False,
                   OffnetReach.MINOR, False, "AppleOrchard Inc"),
    HypergiantSpec("tiktak", "TikTak", False, False, OffnetReach.MINOR,
                   False, "TikTak Pte"),
    HypergiantSpec("fastedge", "FastEdge", True, False, OffnetReach.NONE,
                   True, "FastEdge Inc"),
)


def default_hypergiants() -> Dict[str, HypergiantSpec]:
    """All hypergiant specs keyed by their short key (insertion-ordered)."""
    return {spec.key: spec for spec in _SPECS}


def hypergiant_names() -> Tuple[str, ...]:
    """Display names in canonical order (used for AS creation)."""
    return tuple(spec.display_name for spec in _SPECS)


# The hypergiant that plays the Microsoft-CDN role: its ground-truth
# traffic is the validation target for the paper's coverage numbers.
GROUND_TRUTH_CDN_KEY = "microcdn"
# The hypergiant whose server map is plotted in Figure 1b.
FIG1B_SERVER_MAP_KEY = "metabook"
# The public-DNS operator probed in §3.1.2.
PUBLIC_DNS_OPERATOR_KEY = "googol"
