"""guardsim: deterministic simulation of security-protocol attacks and
network-guardian defenses over explicit topologies."""

from .agents import AttackerAgent, AttackFunction, HonestAgent, RoleScript
from .cases import enumerate_interaction_cases
from .guardian import (Distinguisher, Guardian, InterferencePlan,
                       InvariantSpec, is_defense_mechanism,
                       topological_advantage)
from .knowledge import KnowledgeSet, analyze, derivable
from .matrix import defense_matrix
from .montecarlo import monte_carlo_fp
from .network import Envelope, NetworkState
from .scenario import Outcome, ScenarioConfig, evaluate, export_builtin, run_scenario
from .simulator import Simulator
from .terms import (AgentId, AsymEnc, AsymKey, Atom, CommEnc, Lifetime,
                    Nonce, Pair, Password, Succ, SymEnc, SymKey, Timestamp,
                    comm_enc, inverse_key, pair, render, succ, wire_eq)
from .topology import Topology, base_topology

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
