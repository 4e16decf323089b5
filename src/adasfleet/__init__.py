"""Fleet penetration estimation for driver-assistance features.

Decodes VINs, ingests published equipped-rate and activation data plus
crash-involved vehicle records, and estimates how much of the registered
fleet carries and actively uses each feature.
"""

__version__ = "0.1.0"

from .catalog import (
    Availability,
    Catalog,
    FeatureId,
    PRIORITY_FEATURES,
    TrimAvailabilityRecord,
    load_catalog,
)
from .datasets import (
    ActivationEntry,
    ActivationSource,
    AdoptionPoint,
    AdoptionSeries,
    FarsIngest,
    FleetSeries,
    VehicleRecord,
    fars_adoption_series,
    fars_availability_fraction,
    ingest_activation_csv,
    ingest_adoption_csv,
    ingest_fars_csv,
    ingest_fleet_csv,
)
from .estimator import (
    CautionFlag,
    CautionKind,
    EstimatorConfig,
    FleetTransfer,
    LagMatch,
    PenetrationEstimate,
    Provenance,
    ProvenanceKind,
    compose_activated,
    estimate_equipped,
    estimate_table,
    fleet_any_feature_share,
    forecast_error,
    match_lag,
    transfer_fleet_rate,
)
from .vin import Vin, compute_check_digit, decode_model_year, encode_model_year, parse_vin, parse_vin_lenient
from .vpic import CacheMode, FixtureCache, batch_decode, normalize_vpic_record
