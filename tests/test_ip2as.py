"""Tests for the prefix trie, address plan, and IP-to-AS mapper."""

import random

import pytest

from repro.errors import MappingError
from repro.measurement.ip2as import (
    ORIGIN_PREFIX,
    AddressPlan,
    IPToASMapper,
    PrefixTrie,
)
from repro.types import Prefix, parse_ipv4


class TestPrefixTrie:
    def test_exact_lookup(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert trie.lookup(parse_ipv4("10.1.2.3")) == "ten"

    def test_miss_returns_none(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
        assert trie.lookup(parse_ipv4("11.0.0.1")) is None

    def test_longest_prefix_wins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "short")
        trie.insert(Prefix.parse("10.5.0.0/16"), "long")
        assert trie.lookup(parse_ipv4("10.5.1.1")) == "long"
        assert trie.lookup(parse_ipv4("10.6.1.1")) == "short"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        trie.insert(Prefix.parse("192.0.2.0/24"), "specific")
        assert trie.lookup(parse_ipv4("8.8.8.8")) == "default"
        assert trie.lookup(parse_ipv4("192.0.2.55")) == "specific"

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("192.0.2.1/32"), "host")
        assert trie.lookup(parse_ipv4("192.0.2.1")) == "host"
        assert trie.lookup(parse_ipv4("192.0.2.2")) is None

    def test_duplicate_same_value_ok(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "x")
        trie.insert(Prefix.parse("10.0.0.0/8"), "x")
        assert len(trie) == 1

    def test_duplicate_conflicting_value_raises(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "x")
        with pytest.raises(MappingError):
            trie.insert(Prefix.parse("10.0.0.0/8"), "y")

    def test_lookup_prefix_returns_match(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.5.0.0/16"), "v")
        prefix, value = trie.lookup_prefix(parse_ipv4("10.5.9.9"))
        assert str(prefix) == "10.5.0.0/16"
        assert value == "v"

    def test_lookup_prefix_miss(self):
        assert PrefixTrie().lookup_prefix(parse_ipv4("1.2.3.4")) is None

    def test_len_counts_values(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        trie.insert(Prefix.parse("10.5.0.0/16"), "b")
        assert len(trie) == 2

    def test_agrees_with_linear_scan(self):
        rng = random.Random(9)
        prefixes = []
        trie = PrefixTrie()
        for i in range(60):
            length = rng.randrange(8, 29)
            network = rng.getrandbits(32) & (
                (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
            )
            prefix = Prefix(network, length)
            try:
                trie.insert(prefix, i)
            except MappingError:
                continue
            prefixes.append((prefix, i))
        for _ in range(500):
            address = rng.getrandbits(32)
            expected = None
            best_len = -1
            for prefix, value in prefixes:
                if prefix.contains_address(address) and prefix.length > best_len:
                    best_len = prefix.length
                    expected = value
            assert trie.lookup(address) == expected


class TestAddressPlan:
    def test_blocks_are_disjoint_slash16(self):
        plan = AddressPlan([1, 2, 3], origin_asn=99)
        blocks = [plan.block_of(asn) for asn in (1, 2, 3, 99)]
        networks = {block.network for block in blocks}
        assert len(networks) == 4
        assert all(block.length == 16 for block in blocks)

    def test_router_addresses_inside_block(self):
        plan = AddressPlan([1], origin_asn=99)
        address = plan.router_address(1, 5)
        assert plan.block_of(1).contains_address(address)

    def test_router_address_bounds(self):
        plan = AddressPlan([1], origin_asn=99)
        with pytest.raises(MappingError):
            plan.router_address(1, 70000)

    def test_unknown_as_raises(self):
        plan = AddressPlan([1], origin_asn=99)
        with pytest.raises(MappingError):
            plan.block_of(2)

    def test_target_inside_announced_prefix(self):
        plan = AddressPlan([1], origin_asn=99)
        assert ORIGIN_PREFIX.contains_address(plan.target_address())

    def test_random_address_in_block(self, rng):
        plan = AddressPlan([1, 2], origin_asn=99)
        for _ in range(50):
            assert plan.block_of(2).contains_address(
                plan.random_address_in(2, rng)
            )

    def test_pool_exhaustion_raises(self):
        with pytest.raises(MappingError):
            AddressPlan(range(1, 60000), origin_asn=99999)


class TestIPToASMapper:
    def test_maps_block_owner(self):
        plan = AddressPlan([10, 20], origin_asn=99)
        mapper = IPToASMapper(plan)
        assert mapper.map_address(plan.router_address(10, 0)) == 10
        assert mapper.map_address(plan.router_address(20, 3)) == 20

    def test_announced_prefix_maps_to_origin(self):
        plan = AddressPlan([10], origin_asn=99)
        mapper = IPToASMapper(plan)
        assert mapper.map_address(plan.target_address()) == 99

    def test_ixp_addresses_map_to_none(self):
        plan = AddressPlan([10], origin_asn=99)
        ixp_prefix = Prefix.parse("206.0.0.0/24")
        mapper = IPToASMapper(plan, [ixp_prefix])
        address = ixp_prefix.network + 5
        assert mapper.map_address(address) is None
        assert mapper.is_ixp_address(address)

    def test_unallocated_space_unmapped(self):
        plan = AddressPlan([10], origin_asn=99)
        mapper = IPToASMapper(plan)
        assert mapper.map_address(parse_ipv4("8.8.8.8")) is None
        assert not mapper.is_ixp_address(parse_ipv4("8.8.8.8"))


class TestMemoizedMapper:
    """The memoized mapper answers exactly as a fresh trie walk."""

    def build(self):
        plan = AddressPlan(range(1, 41), origin_asn=99)
        ixp_prefixes = [Prefix.parse("206.0.0.0/24"), Prefix.parse("206.0.1.0/24")]
        mapper = IPToASMapper(plan, ixp_prefixes)
        reference = PrefixTrie()
        for asn in plan.ases:
            reference.insert(plan.block_of(asn), asn)
        reference.insert(plan.announced_prefix, plan.origin_asn)
        for prefix in ixp_prefixes:
            reference.insert(prefix, IPToASMapper.IXP)
        return plan, mapper, reference, ixp_prefixes

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_trie_lookup(self, seed):
        plan, mapper, reference, ixp_prefixes = self.build()
        rng = random.Random(seed)
        addresses = [plan.router_address(rng.choice(plan.ases), rng.randrange(1024))
                     for _ in range(200)]
        addresses += [prefix.network + rng.randrange(256)
                      for prefix in ixp_prefixes for _ in range(20)]
        addresses += [rng.getrandbits(32) for _ in range(200)]  # mostly unallocated
        addresses += [plan.target_address(), parse_ipv4("8.8.8.8")]
        # Ask twice, so the second pass is answered from the memo table.
        for address in addresses + addresses:
            expected = reference.lookup(address)
            if expected == IPToASMapper.IXP:
                expected = None
            assert mapper.map_address(address) == expected
            assert mapper.is_ixp_address(address) == (
                reference.lookup(address) == IPToASMapper.IXP
            )

    def test_memo_fills_lazily_one_entry_per_address(self):
        plan, mapper, _, _ = self.build()
        assert not mapper._asn_of
        address = plan.router_address(7, 3)
        assert mapper.map_address(address) == 7
        assert mapper.map_address(address) == 7
        assert mapper._asn_of == {address: 7}
