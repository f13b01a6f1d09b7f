"""Wi-Fi RSSI fingerprint localization and autonomous grid navigation.

The pipeline: scan-text ingestion into fingerprint datasets, correlation
feature selection and normalization, a from-scratch dense-network position
regressor, A* checkpoint planning, a stop-and-wait navigation state
machine, and a seeded RF/robot simulator that closes the loop end to end.
"""

from .errors import InvalidParameter, OutOfBounds, ToolkitError
from .features import (
    FeatureSelection,
    NormalizationParams,
    SplitDataset,
    fit_normalizer,
    pearson,
    select_features,
    split,
)
from .model import (
    BatchNormLayer,
    DenseLayer,
    MlpRegressor,
    ModelBundle,
    PositionEstimate,
    TrainConfig,
    TrainReport,
    backward,
    forward,
    load_model,
    mae_loss,
    predict_position,
    save_model,
    train,
)
from .navctl import DriveCommand, DrivetrainCalibration, Mode, NavConfig, NavState, nav_step
from .planner import Action, Checkpoint, GridMap, Heading, PlannedPath, astar, extract_checkpoints, manhattan
from .rfsim import (
    AccessPointSim,
    SimRobot,
    SimWorld,
    TrialResult,
    corner_success_rate,
    generate_synthetic_dataset,
    reference_world,
    run_trial,
    simulate_scan,
)
from .scan_ingest import (
    FingerprintDataset,
    ScanEntry,
    ScanSnapshot,
    aggregate_resamples,
    build_dataset,
    filter_by_ssid,
    parse_scan_text,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"
