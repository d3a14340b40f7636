"""Scenario configs, run orchestration and outcome classification."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from .agents import (KIND_CHECKS, ExpectStep, FreshMint, HonestAgent, PBind,
                     PConst, PRef, PSymEnc, RoleScript, SendStep, TConst,
                     TFresh, TRef, TSymEnc, plist, tlist)
from .network import DeadlockError
from .simulator import BudgetExceeded, SimResult
from .terms import SymKey, render
from .topology import ConfigError, base_topology
from .trace import Trace

EXIT_OK = 0
EXIT_ATTACK_SUCCEEDED = 2
EXIT_CONFIG_ERROR = 64
EXIT_DEADLOCK = 65
EXIT_BUDGET = 66


@dataclass
class SessionReport:
    agent: str
    session: int
    status: str            # complete | aborted | active
    deceived: bool


@dataclass
class Outcome:
    sessions: List[SessionReport]
    false_positives: int
    false_negatives: int
    interference_count: int
    classification: str            # AttackSucceeded | Defended | NoAttack
    defense_class_observed: str    # Total | Partial | None
    victim: str

    @property
    def exit_code(self) -> int:
        return EXIT_ATTACK_SUCCEEDED if self.classification == "AttackSucceeded" \
            else EXIT_OK

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "defense_class_observed": self.defense_class_observed,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "interference_count": self.interference_count,
            "victim": self.victim,
            "sessions": [
                {"agent": s.agent, "session": s.session, "status": s.status,
                 "deceived": s.deceived} for s in self.sessions],
        }


def evaluate(result: SimResult, victim: str, attack_present: bool,
             success_extra=None) -> Outcome:
    """Classify a finished run.

    A session is deceived when it completed after consuming a masqueraded
    message that its claimed sender never genuinely produced for that
    protocol slot (re-delivering the peer's own current message where it
    belongs is a relay, not an attack); a protocol may add its own
    compromise check (e.g. a leaked secret).  A false negative is a
    deceived victim session in a guarded run; a false positive is
    interference during a run with no attack."""
    from .terms import wire_view
    honest_sends = result.network.honest_sends()

    def genuine(claimed: str, body, session: int, msg: int) -> bool:
        return (claimed, wire_view(body), session, msg) in honest_sends

    sessions: List[SessionReport] = []
    victim_deceived = 0
    guardian_name = result.guardian.name if result.guardian else None
    for name, agent in sorted(result.honest.items()):
        for sid in sorted(agent.sessions):
            sess = agent.sessions[sid]

            def bad(c):
                if not c.env.injected or \
                        c.env.true_sender == c.env.claimed_sender:
                    return False
                if genuine(c.env.claimed_sender, c.env.body,
                           sess.net_session, c.msg):
                    return False  # genuine relay, not deception
                if c.env.true_sender == guardian_name:
                    # a guardian fake only deceives when it accidentally
                    # validates a session under attack (value collision)
                    return attack_present
                return True

            deceived = sess.status == "complete" and any(
                bad(c) for c in sess.consumed)
            sessions.append(SessionReport(agent=name, session=sid,
                                          status=sess.status,
                                          deceived=deceived))
            if name == victim and deceived:
                victim_deceived += 1
    extra = bool(success_extra and success_extra(result))
    deceived_total = victim_deceived + (1 if extra else 0)

    guardian = result.guardian
    interference = guardian.interference_count if guardian else 0
    fired = interference > 0 or result.aborted_by_guardian
    fp = interference if (guardian and not attack_present) else 0
    fn = deceived_total if (guardian and attack_present) else 0

    if attack_present and deceived_total:
        classification = "AttackSucceeded"
    elif attack_present and guardian and fired:
        classification = "Defended"
    else:
        classification = "NoAttack"

    if guardian is None:
        observed = "None"
    elif deceived_total == 0:
        observed = "Total"
    elif fired:
        observed = "Partial"
    else:
        observed = "None"

    return Outcome(sessions=sessions, false_positives=fp,
                   false_negatives=fn, interference_count=interference,
                   classification=classification,
                   defense_class_observed=observed, victim=victim)


@dataclass
class ScenarioConfig:
    protocol: object               # builtin name or inline dict
    topology: Optional[str] = None
    guardian: bool = True
    attack: Optional[str] = "classic"
    seed: int = 0
    nonce_bits: int = 64
    max_steps: int = 64

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("a scenario must be a JSON object")
        known = {"protocol", "topology", "guardian", "attack", "seed",
                 "nonce_bits", "max_steps"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        if "protocol" not in data:
            raise ConfigError("scenario needs a protocol")
        for name in ("seed", "nonce_bits", "max_steps"):
            # bool is an int subclass, but `true` is no count
            value = data.get(name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        if not isinstance(data.get("guardian", True), bool):
            raise ConfigError("guardian must be true or false")
        for name in ("topology", "attack"):
            value = data.get(name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string or null, "
                                  f"not {value!r}")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"protocol": self.protocol, "topology": self.topology,
                "guardian": self.guardian, "attack": self.attack,
                "seed": self.seed, "nonce_bits": self.nonce_bits,
                "max_steps": self.max_steps}


@dataclass
class RunResult:
    trace: Trace
    outcome: Outcome
    sim: SimResult
    exit_code: int


def run_scenario(config: ScenarioConfig) -> RunResult:
    from .protocols import builtin
    if config.nonce_bits < 0:
        raise ConfigError("nonce_bits must not be negative")
    if isinstance(config.protocol, str):
        case = builtin(config.protocol)
        wiring = case.wire(kind=config.topology, guardian=config.guardian,
                           attack=config.attack, seed=config.seed,
                           nonce_bits=config.nonce_bits)
        victim = wiring.victim
        extra = case.success_extra
        attack_present = bool(config.attack)
    elif isinstance(config.protocol, dict):
        try:
            wiring = _wire_inline(config)
        except KeyError as exc:
            raise ConfigError(f"inline protocol lacks field {exc}") from None
        victim = wiring.victim
        extra = None
        attack_present = False
    else:
        raise ConfigError("protocol must be a builtin name or an inline spec")

    sim = wiring.simulator(seed=config.seed, nonce_bits=config.nonce_bits,
                           max_rounds=config.max_steps * 4)
    try:
        result = sim.run()
    except BudgetExceeded:
        return RunResult(trace=sim.trace, outcome=None, sim=None,
                         exit_code=EXIT_BUDGET)
    if not attack_present:
        stuck = [s for a in result.honest.values()
                 for s in a.sessions.values() if s.status == "active"]
        if stuck and not result.aborted_by_guardian:
            raise DeadlockError(
                f"honest-only run stalled with {len(stuck)} open sessions")
    outcome = evaluate(result, victim, attack_present, extra)
    return RunResult(trace=result.trace, outcome=outcome, sim=result,
                     exit_code=outcome.exit_code)


def export_builtin(name: str, topology: Optional[str] = None,
                   seed: int = 0) -> dict:
    """A builtin case study as a scenario config dict (the generic CLI
    path can re-run every builtin)."""
    from .protocols import builtin
    case = builtin(name)
    cfg = ScenarioConfig(protocol=name,
                         topology=topology or case.home_topology,
                         guardian=True, attack=case.attack_names[0],
                         seed=seed)
    return cfg.to_dict()


def write_trace_file(result: SimResult, path: str) -> None:
    """Line-delimited JSON action log, one line per entry of the run's
    record: seq, action, identities, body, observers (of an envelope
    leaving the wire) and rollbacks (of an erase)."""
    with open(path, "w") as fh:
        for index, ev in enumerate(result.network.history, start=1):
            env = ev.env
            fh.write(json.dumps({
                "seq": index,
                "action": ev.kind,
                "claimed_sender": env.claimed_sender if env else None,
                "true_sender": env.true_sender if env else None,
                "receiver": env.receiver if env else None,
                "body": render(env.body) if env else None,
                "observers": (env.observers
                              if ev.kind in ("erase", "deliver") else []),
                "rollbacks": list(ev.rollbacks),
            }, sort_keys=True) + "\n")


# -- inline protocol specs (honest roles only) -------------------------------

def _sequence(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, not {value!r}")
    return value


def _senc_parts(spec) -> list:
    parts = spec["senc"]
    if not isinstance(parts, list) or len(parts) != 2:
        raise ConfigError(f"senc takes [payload, key], not {parts!r}")
    return parts


def _constant(spec, constants):
    name = spec["key"]
    if not isinstance(name, str) or name not in constants:
        raise ConfigError(f"unknown constant {name!r}")
    return constants[name]


def _parse_template(spec, constants):
    if isinstance(spec, dict):
        if "fresh" in spec:
            kind = spec.get("kind", "nonce")
            if kind not in FreshMint.KINDS:
                raise ConfigError(f"unknown fresh kind {kind!r}; known: "
                                  f"{list(FreshMint.KINDS)}")
            return TFresh(binding=spec["fresh"], kind=kind,
                          label=spec.get("label", "N_{agent}"))
        if "ref" in spec:
            return TRef(spec["ref"])
        if "key" in spec:
            return TConst(_constant(spec, constants))
        if "senc" in spec:
            payload, key = _senc_parts(spec)
            return TSymEnc(_parse_template(payload, constants),
                           _parse_template(key, constants))
        if "list" in spec:
            return tlist(*[_parse_template(t, constants)
                           for t in _sequence(spec["list"], "list")])
    raise ConfigError(f"bad template {spec!r}")


def _parse_pattern(spec, constants):
    if isinstance(spec, dict):
        if "bind" in spec:
            kind = spec.get("kind", "any")
            if kind not in KIND_CHECKS:
                raise ConfigError(f"unknown pattern kind {kind!r}; known: "
                                  f"{sorted(KIND_CHECKS)}")
            return PBind(spec["bind"], kind)
        if "ref" in spec:
            return PRef(spec["ref"])
        if "key" in spec:
            return PConst(_constant(spec, constants))
        if "senc" in spec:
            payload, key = _senc_parts(spec)
            return PSymEnc(_parse_pattern(payload, constants),
                           _parse_pattern(key, constants))
        if "list" in spec:
            return plist(*[_parse_pattern(p, constants)
                           for p in _sequence(spec["list"], "list")])
    raise ConfigError(f"bad pattern {spec!r}")


def _parse_script(name, steps, constants, agents):
    parsed = []
    for step in _sequence(steps, f"{name} steps"):
        if not isinstance(step, dict):
            raise ConfigError(f"bad role step {step!r}")
        if "send" in step:
            if not isinstance(step["to"], str) or step["to"] not in agents:
                raise ConfigError(f"{name} sends to {step['to']!r}, "
                                  f"which names no agent")
            parsed.append(SendStep(receiver=step["to"],
                                   body=_parse_template(step["send"], constants),
                                   msg=step["msg"]))
        elif "expect" in step:
            parsed.append(ExpectStep(pattern=_parse_pattern(step["expect"],
                                                            constants),
                                     msg=step["msg"]))
        else:
            raise ConfigError(f"bad role step {step!r}")
    return RoleScript(name=name, steps=tuple(parsed))


def _wire_inline(config: ScenarioConfig):
    from .protocols.base import Wiring
    inline = config.protocol
    constants = {}
    cdefs = inline.get("constants", {})
    if not isinstance(cdefs, dict):
        raise ConfigError("constants must be an object")
    for cname, cdef in cdefs.items():
        if isinstance(cdef, dict) and "symkey" in cdef:
            constants[cname] = SymKey(value=cdef["symkey"], label=cname)
        else:
            raise ConfigError(f"bad constant {cname!r}")
    roles = inline["agents"]
    if not isinstance(roles, dict) or len(roles) < 2:
        raise ConfigError("an inline protocol needs an object of at least "
                          "two agents")
    agents = {}
    initiators = []
    for name, role in roles.items():
        if not isinstance(role, dict):
            raise ConfigError(f"agent {name!r} must be an object")
        responders = [
            _parse_script(f"{name}-resp-{i}", steps, constants, roles)
            for i, steps in enumerate(_sequence(role.get("responder", []),
                                                f"{name} responders"))]
        agents[name] = HonestAgent(name, responder_scripts=responders)
        if "initiator" in role:
            script = _parse_script(f"{name}-init", role["initiator"],
                                   constants, roles)
            initiators.append((name, script, len(initiators) + 1))
    names = sorted(agents)
    victim = inline.get("victim", names[0])
    if victim not in names:
        raise ConfigError(f"victim {victim!r} names no agent")
    topo = base_topology(config.topology or "A", honest=tuple(names),
                         attackers=(), guardian=None)
    return Wiring(topology=topo, honest=list(agents.values()), attackers=[],
                  guardian=None, initiators=initiators, victim=victim)
