"""Record linkage via Electre Tri ordinal sorting."""

from .calibration import (
    LpSolution,
    TrainingSet,
    calibrate,
    estimate_lambda,
    estimate_profiles,
    estimate_thresholds,
)
from .core import (
    Alternative,
    Category,
    Criterion,
    ElectreModel,
    ProfileSet,
    assign,
    assign_optimistic,
    assign_pessimistic,
    classify_batch,
    credibilities,
    credibility,
    criterion_codes,
    global_concordance,
    outranks,
    partial_concordance,
    partial_discordance,
)
from .evaluation import EvalReport, evaluate, lambda_sweep, split
from .fellegi_sunter import FsModel, fit_fs, fs_decide
from .ingest import LinkageSchema, RecordTable, census_schema, load_table, toy_schema, true_links
from .linkage import PairBlock, build_pairs, label_pairs
from .metrics import Comparator, jaro, jaro_winkler, levenshtein, levenshtein_normalized

__version__ = "0.1.0"
