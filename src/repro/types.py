"""Shared primitive types and aliases used across the library.

The library models the Internet at the autonomous-system level.  ASes are
identified by plain integers (``ASN``); peering links of the origin network
are identified by short strings (``LinkId``), e.g. ``"amsterdam01"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Tuple,
)

#: Autonomous system number.  Plain int; 32-bit ASNs are supported.
ASN = int

#: Identifier of one of the origin network's peering links ("mux" in
#: PEERING terminology).
LinkId = str

#: An AS-level path, origin-last (the origin AS is the final element),
#: matching the on-the-wire AS_PATH reading order: ``path[0]`` is the AS
#: closest to the observer.
ASPath = Tuple[ASN, ...]

#: A catchment: the set of source ASes routed toward one peering link.
Catchment = FrozenSet[ASN]

#: Catchments of one configuration, keyed by peering link.
CatchmentMap = Mapping[LinkId, Catchment]


class LazyCatchments(dict):
    """A ``{link: Catchment}`` dict whose catchments are built on first read.

    The links are its keys from the start, so iteration, ``len``, ``in``
    and ``keys()`` build nothing.  The first read of a catchment (an
    item, ``get``, ``values``, ``items``, ``==``, ``repr``, ``copy``,
    ``pickle``) builds them all, in key order, through :meth:`_build`;
    from then on it is a plain dict.  Treat it as read-only.

    Args:
        links: the keys, in order.
        pending: what :meth:`_build` builds the catchments from.
    """

    __slots__ = ("_pending",)

    def __init__(self, links: Iterable[LinkId], pending: object) -> None:
        super().__init__(dict.fromkeys(links))
        self._pending = pending

    def _build(self, pending) -> Iterable[Tuple[LinkId, Catchment]]:
        """``(link, catchment)`` for every key, from ``pending``."""
        raise NotImplementedError

    @property
    def built(self) -> bool:
        """Whether the catchments have been built."""
        return self._pending is None

    def _fill(self) -> "LazyCatchments":
        pending = self._pending
        if pending is not None:
            dict.update(self, self._build(pending))
            self._pending = None
        return self

    # Defining ``__iter__`` also keeps ``dict(m)``, ``{**m}`` and
    # ``update(m)`` off the unbuilt storage: they read keys and items.
    def __iter__(self) -> Iterator[LinkId]:
        return dict.__iter__(self)

    def __getitem__(self, link: LinkId) -> Catchment:
        return dict.__getitem__(self._fill(), link)

    def get(self, link, default=None):
        return dict.get(self._fill(), link, default)

    def values(self):
        return dict.values(self._fill())

    def items(self):
        return dict.items(self._fill())

    def copy(self) -> Dict[LinkId, Catchment]:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyCatchments):
            other._fill()
        return dict.__eq__(self._fill(), other)

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        return dict.__repr__(self._fill())

    def __reduce_ex__(self, protocol):
        self._fill()
        return super().__reduce_ex__(protocol)


MIN_ASN = 1
MAX_ASN = 2**32 - 1


def validate_asn(asn: ASN) -> ASN:
    """Return ``asn`` if it is a valid AS number, raise ``ValueError`` otherwise."""
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise ValueError(f"ASN must be an int, got {asn!r}")
    if not MIN_ASN <= asn <= MAX_ASN:
        raise ValueError(f"ASN {asn} outside valid range [{MIN_ASN}, {MAX_ASN}]")
    return asn


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix in CIDR form, stored as (network int, length).

    Only the pieces of prefix arithmetic the library needs are implemented:
    containment checks, address iteration bounds, and parsing/formatting.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length {self.length} outside [0, 32]")
        if not 0 <= self.network < 2**32:
            raise ValueError(f"network {self.network:#x} outside IPv4 range")
        if self.network & (self.hostmask) != 0:
            raise ValueError(
                f"network {format_ipv4(self.network)}/{self.length} has host bits set"
            )

    @property
    def netmask(self) -> int:
        """Network mask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def hostmask(self) -> int:
        """Host mask (inverse of :attr:`netmask`)."""
        return 0xFFFFFFFF ^ self.netmask

    @property
    def first_address(self) -> int:
        """Lowest address contained in the prefix."""
        return self.network

    @property
    def last_address(self) -> int:
        """Highest address contained in the prefix."""
        return self.network | self.hostmask

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains_address(self, address: int) -> bool:
        """Return True if the 32-bit integer ``address`` falls in this prefix."""
        return (address & self.netmask) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """Return True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and self.contains_address(other.network)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` into a :class:`Prefix`."""
        try:
            address_text, length_text = text.strip().split("/")
            length = int(length_text)
        except ValueError as exc:
            raise ValueError(f"malformed prefix {text!r}") from exc
        return cls(parse_ipv4(address_text), length)

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 ``text`` into a 32-bit integer."""
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise ValueError(f"malformed IPv4 address {text!r}") from exc
        if not 0 <= octet <= 255:
            raise ValueError(f"IPv4 octet {octet} outside [0, 255] in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address."""
    if not 0 <= value < 2**32:
        raise ValueError(f"address {value:#x} outside IPv4 range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def path_without_prepending(path: Sequence[ASN]) -> ASPath:
    """Collapse consecutive duplicate ASNs (prepending) out of an AS-path."""
    collapsed = []
    for asn in path:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return tuple(collapsed)
