"""Identity-hashed enums, slotted frozen records and interned catalog names.

The per-row path relies on these: `FeatureId` and `Availability` hash by
identity, `Vin`, `VehicleRecord` and `TrimAvailabilityRecord` have no
`__dict__`, and the catalog shares one string object per make and model.
These tests pin that each stays consistent with equality, pickling and
copying. They use only library modules, so they also run on interpreters
without click or hypothesis installed.
"""

import copy
import dataclasses
import pickle

import pytest

from adasfleet.catalog import Availability, FeatureId, TrimAvailabilityRecord, feature_from_name, load_catalog
from adasfleet.datasets import VehicleRecord, bundled_data_dir
from adasfleet.errors import BadEnumValue
from adasfleet.vin import parse_vin

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)

RECORDS = [
    parse_vin("1HGCM82633A004352"),
    VehicleRecord(
        "1HGCM82633A004352", 2022, 2003,
        {FeatureId.ADAPTIVE_CRUISE_CONTROL: Availability.OPTIONAL, FeatureId.LANE_KEEP_ASSIST: Availability.UNKNOWN},
        make="Honda", model="Accord",
    ),
    TrimAvailabilityRecord("Honda", "Accord", 2003, FeatureId.ADAPTIVE_CRUISE_CONTROL, Availability.OPTIONAL),
]


def _name(record) -> str:
    return type(record).__name__


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_pickle_and_deepcopy_round_trip(record):
    for protocol in PROTOCOLS:
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, "changed")
    # The frozen __setattr__ of a slotted dataclass raises TypeError, not
    # FrozenInstanceError, for a name that is not a field (3.10 to 3.12).
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    changed = dataclasses.replace(record, **{first: "changed"})
    assert getattr(changed, first) == "changed"
    assert getattr(record, first) != "changed"
    assert [getattr(changed, f.name) for f in dataclasses.fields(record)[1:]] == [
        getattr(record, f.name) for f in dataclasses.fields(record)[1:]
    ]


@pytest.mark.parametrize("enum", [FeatureId, Availability], ids=lambda e: e.__name__)
def test_enum_members_hash_by_identity_and_survive_pickling(enum):
    table = {member: i for i, member in enumerate(enum)}
    for i, member in enumerate(enum):
        assert hash(member) == object.__hash__(member)
        for protocol in PROTOCOLS:
            restored = pickle.loads(pickle.dumps(member, protocol))
            assert restored is member
            assert table[restored] == i
        assert copy.deepcopy(member) is member
    assert pickle.loads(pickle.dumps(table)) == table


@pytest.mark.parametrize("feature", list(FeatureId), ids=lambda f: f.value)
def test_feature_from_name_returns_the_member(feature):
    assert feature_from_name(f" {feature.value} ") is FeatureId(feature.value) is feature


@pytest.mark.parametrize("name", ["adaptive cruise control", "ADAPTIVE_CRUISE_CONTROL", "Lane_keep_assist", ""])
def test_unknown_feature_name_still_raises(name):
    with pytest.raises(BadEnumValue) as info:
        feature_from_name(name)
    assert str(info.value) == f"unknown feature name {name!r}"


def test_catalog_shares_one_string_per_make_and_model():
    catalog = load_catalog(bundled_data_dir() / "catalog.csv")
    first: dict[str, str] = {}
    for rec in catalog.records:
        assert first.setdefault(rec.make, rec.make) is rec.make
        assert first.setdefault(rec.model, rec.model) is rec.model
    assert len(first) < len(catalog.records)
