"""gazeflow: simultaneous fixation/saccade/smooth-pursuit detection.

A small end-to-end toolkit: a frequency-domain sliding-window frontend, a
from-scratch 1-D convolutional classifier with exact backprop and Adam,
four classical threshold baselines, a scripted-stimulus synthetic data
generator, and a frame-wise/event-wise evaluation harness, all behind one
command-line pipeline.
"""
from .gaze import (
    DatasetSplit,
    Event,
    GazeDataError,
    GazeSequence,
    LabelClass,
    WindowSet,
    events_from_labels,
)
from .features import (
    FeatureError,
    FrontendConfig,
    featurize_sequence,
    split_dataset,
)
from .net import (
    AdamConfig,
    AdamState,
    NetError,
    NetworkParams,
    PhaseConfig,
    TrainConfig,
    TrainHistory,
    TrainingError,
    adam_step,
    init_params,
    loss_cross_entropy,
    train,
)
from .model_io import (
    ModelCorruptError,
    ModelFileError,
    ModelShapeError,
    ModelSplit,
    ModelVersionError,
    load_model,
    load_split,
    save_model,
)
from .detectors import (
    BaselineConfig,
    DetectorError,
    DetectorOutput,
    cnn_detect,
    ivmp_detect,
    ivt_detect,
    ivt_idt_detect,
    pca_ratio_detect,
)
from .simulate import (
    FixateAt,
    PursueAccel,
    PursueBouncing,
    PursueTo,
    SaccadeTo,
    ScriptEvent,
    SimulationError,
    StimulusConfig,
    SyntheticTrace,
    generate_corpus,
    generate_sequence,
    star_positions,
    synthesize_event,
)
from .metrics import (
    ConfusionMatrix,
    EvalError,
    EventMajorityTable,
    PrfReport,
    RocCurve,
    confidence_accuracy,
    confusion,
    event_majority,
    one_vs_all_auc,
    prf,
    roc_auc,
)
from .tuning import TuningGrids, tune_baselines

__version__ = "0.1.0"
