"""GNN surrogate models for physics simulations on mesh / surface geometry."""

from .graph import (Graph, BatchedGraph, build_from_mesh, build_surface_chain,
                    merge_batch)
from .features import (AirfoilEncoding, FeatureDesignEncoding, Normalizer,
                       encode_edges, encode_nodes_airfoil,
                       encode_nodes_feature_design, compute_node_degree)
from .mlp import Mlp, MlpConfig, he_init
from .model import GnnConfig, GnnModel, build_model, predict
from .training import AdamState, PlateauSchedule, TrainConfig, TrainLog, fit
from .evaluation import (EvalReport, evaluate_graph_level, evaluate_node_level,
                         relative_l2)
from .datasets import (Featurizer, GraphRecord, Sample, SyntheticSpec,
                       generate_synthetic, parse_selig, read_dataset,
                       write_dataset)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
