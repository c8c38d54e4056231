"""Tests for the failure-domain tree and descriptor parsing."""

import pytest

from repro.core.manager import RegionSpec
from repro.topology import FailureDomainTree, parse_domain_shape


class TestParseDomainShape:
    def test_flat_forms(self):
        assert parse_domain_shape("flat") == (1, 1)
        assert parse_domain_shape("") == (1, 1)

    def test_nxm(self):
        assert parse_domain_shape("2x2") == (2, 2)
        assert parse_domain_shape("3x4") == (3, 4)
        assert parse_domain_shape("1x1") == (1, 1)

    @pytest.mark.parametrize("bad", ["2x", "x2", "0x2", "2x0", "a", "2X2"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_domain_shape(bad)


class TestTreeStructure:
    def test_rack_ids_are_assigned_in_declaration_order(self):
        tree = FailureDomainTree({"a": (2, 2), "b": (1, 3)})
        assert tree.n_racks == 7
        assert tree.regions == ("a", "b")
        assert tree.rack_path(0) == "a/az0/rack0"
        assert tree.rack_path(1) == "a/az0/rack1"
        assert tree.rack_path(2) == "a/az1/rack0"
        assert tree.rack_path(3) == "a/az1/rack1"
        assert tree.rack_path(4) == "b/az0/rack0"
        assert tree.rack_path(6) == "b/az0/rack2"

    def test_racks_in_resolves_every_level(self):
        tree = FailureDomainTree({"a": (2, 2), "b": (1, 3)})
        assert tree.racks_in("a") == (0, 1, 2, 3)
        assert tree.racks_in("a/az1") == (2, 3)
        assert tree.racks_in("a/az1/rack0") == (2,)
        assert tree.racks_in("b") == (4, 5, 6)
        with pytest.raises(KeyError):
            tree.racks_in("c")
        with pytest.raises(KeyError):
            tree.racks_in("a/az9")

    def test_parents_of_rack(self):
        tree = FailureDomainTree({"a": (2, 2)})
        assert tree.region_of(3) == "a"
        assert tree.az_path_of(3) == "a/az1"
        with pytest.raises(KeyError):
            tree.rack(99)

    def test_domains_enumeration(self):
        tree = FailureDomainTree({"a": (1, 2)})
        assert tree.domains() == (
            "a",
            "a/az0",
            "a/az0/rack0",
            "a/az0/rack1",
        )

    def test_flat_tree(self):
        tree = FailureDomainTree.flat(["x", "y"])
        assert tree.is_flat()
        assert tree.n_racks == 2
        assert tree.racks_in("x") == (0,)
        assert not FailureDomainTree({"x": (2, 1)}).is_flat()

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureDomainTree({})
        with pytest.raises(ValueError):
            FailureDomainTree({"a": (0, 1)})


class TestAssignment:
    def test_round_robin_within_region(self):
        tree = FailureDomainTree({"a": (2, 2)})
        assert [tree.assign("a", i) for i in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_flat_assignment_is_always_the_single_rack(self):
        tree = FailureDomainTree.flat(["a", "b"])
        assert all(tree.assign("a", i) == 0 for i in range(10))
        assert all(tree.assign("b", i) == 1 for i in range(10))

    def test_assignment_validation(self):
        tree = FailureDomainTree.flat(["a"])
        with pytest.raises(KeyError):
            tree.assign("nope", 0)
        with pytest.raises(ValueError):
            tree.assign("a", -1)


class TestFromSpecs:
    def test_reads_shape_fields(self):
        specs = [
            RegionSpec(
                "r1", "m3.medium", 4, 2, 64, n_azs=2, racks_per_az=3
            ),
            RegionSpec("r2", "m3.small", 4, 2, 64),
        ]
        tree = FailureDomainTree.from_specs(specs)
        assert tree.racks_in("r1") == (0, 1, 2, 3, 4, 5)
        assert tree.racks_in("r2") == (6,)

    def test_specs_without_fields_get_flat_shape(self):
        class Bare:
            name = "solo"

        tree = FailureDomainTree.from_specs([Bare()])
        assert tree.is_flat()
