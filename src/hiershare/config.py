"""Scenario files: parsing, validation, and serialization.

Scenarios are JSON with an explicit schema version. Every big integer is a
decimal string so no reader can lose precision. Validation checks every
module precondition before a run starts and rejects unknown fields
outright; diagnostics name the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

from .algebra import FieldParams
from .curve import PROFILES, CurveParams, validate_curve
from .errors import HierShareError
from .sharing import EVAL_ROUND_KEY, EVAL_USER_ID, ThresholdFactor

SCHEMA_VERSION = 1

STRATEGIES = ("passive-stealer", "active-corruptor", "false-claimer", "scripted")
EVENT_KINDS = ("leave", "rejoin", "redeal")
LEAVE_POLICIES = ("abort", "finish")
FIELD_MODES = ("curve-order", "no-curve")


class ConfigError(HierShareError):
    """Scenario rejected; the message names the field at fault."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{where}: {message}")


def _take(data: dict, where: str, allowed: dict[str, bool]) -> None:
    """Reject unknown keys and missing required ones. ``allowed`` maps key
    name to whether it is required."""
    _require(isinstance(data, dict), where, "expected an object")
    unknown = set(data) - set(allowed)
    _require(not unknown, where, f"unknown field(s) {sorted(unknown)}")
    for key, required in allowed.items():
        if required:
            _require(key in data, where, f"missing required field {key!r}")


def _decimal(value, where: str) -> int:
    """Big integers travel as decimal strings; plain ints are tolerated."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected integer, got boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ConfigError(f"{where}: {value!r} is not a decimal integer") from None
    raise ConfigError(f"{where}: expected decimal integer string")


def _int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}")
    return value


@dataclass(frozen=True)
class AdversaryConfig:
    strategy: str = "passive-stealer"
    budget: int = 0
    targets: tuple[int, ...] = ()
    script: tuple[dict, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario; ``curve`` is None in no-curve mode."""

    name: str
    tf: ThresholdFactor
    tree: dict
    secret: int
    eval_mode: str
    epochs: int
    seed: int
    field: FieldParams
    curve: CurveParams | None = None
    renewal_enabled: bool = True
    leave_policy: str = "abort"
    events: tuple[dict, ...] = ()
    adversary: AdversaryConfig = dc_field(default_factory=AdversaryConfig)


def expand_tree(tree: dict) -> list[tuple[int, int]]:
    """BFS expansion of the nested tree spec into (id, parent_id) pairs.

    Ids are assigned in breadth-first order starting at 1, parent 0 meaning
    the root server; events and adversary targets reference this numbering.
    """
    pairs: list[tuple[int, int]] = []
    queue: list[tuple[dict, int]] = [(child, 0) for child in tree.get("children", [])]
    next_id = 1
    while queue:
        node, parent = queue.pop(0)
        uid = next_id
        next_id += 1
        pairs.append((uid, parent))
        queue.extend((child, uid) for child in node.get("children", []))
    return pairs


def _parse_tree(data, where: str) -> dict:
    """Validate the nested tree spec and copy it to plain dicts, parents
    before children and in document order, so the first error reported is
    the first in the file. Iterative: any depth parses."""
    root: dict = {}
    pending = [(data, where, root)]
    while pending:
        node, w, out = pending.pop()
        if not isinstance(node, dict):
            raise ConfigError(f"{w}: expected an object with a 'children' list")
        _take(node, w, {"children": False})
        children = node.get("children", [])
        _require(isinstance(children, list), w, "'children' must be a list")
        out["children"] = [{} for _ in children]
        kids = zip(children, [f"{w}.children[{i}]" for i in range(len(children))], out["children"])
        pending.extend(reversed(list(kids)))
    return root


def parse_curve_inline(data: dict, where: str) -> CurveParams:
    _take(
        data,
        where,
        {"name": False, "p": True, "a": True, "b": True, "gx": True, "gy": True, "order": True},
    )
    return CurveParams(
        name=data.get("name", "inline"),
        p=_decimal(data["p"], f"{where}.p"),
        a=_decimal(data["a"], f"{where}.a"),
        b=_decimal(data["b"], f"{where}.b"),
        gx=_decimal(data["gx"], f"{where}.gx"),
        gy=_decimal(data["gy"], f"{where}.gy"),
        order=_decimal(data["order"], f"{where}.order"),
    )


def _parse_adversary(data: dict, where: str, user_ids: set[int], id_to_parent: dict[int, int], max_epoch: int) -> AdversaryConfig:
    _take(data, where, {"strategy": False, "budget": False, "targets": False, "script": False})
    strategy = data.get("strategy", "passive-stealer")
    _require(strategy in STRATEGIES, f"{where}.strategy", f"must be one of {STRATEGIES}")
    budget = _int(data.get("budget", 0), f"{where}.budget", minimum=0)
    targets = tuple(data.get("targets", []))
    for t in targets:
        _require(t in user_ids, f"{where}.targets", f"unknown user {t}")

    script_raw = data.get("script", [])
    _require(isinstance(script_raw, list), f"{where}.script", "must be a list")
    _require(
        not script_raw or strategy == "scripted",
        f"{where}.script",
        "script entries require the 'scripted' strategy",
    )
    script: list[dict] = []
    compromised_at: dict[int, set[int]] = {}
    for i, entry in enumerate(script_raw):
        w = f"{where}.script[{i}]"
        _take(entry, w, {"epoch": True, "compromise": False, "tamper": False, "false_claims": False})
        epoch = _int(entry["epoch"], f"{w}.epoch", minimum=0)
        _require(epoch <= max_epoch, f"{w}.epoch", f"beyond scenario epochs ({max_epoch})")
        comp = entry.get("compromise", [])
        for uid in comp:
            _require(uid in user_ids, f"{w}.compromise", f"unknown user {uid}")
        _require(budget == 0 or len(comp) <= budget, f"{w}.compromise", "exceeds budget")
        compromised_at.setdefault(epoch, set()).update(comp)
        clean = {"epoch": epoch, "compromise": sorted(comp)}
        if "tamper" in entry:
            clean_tampers = []
            for j, tam in enumerate(entry["tamper"]):
                tw = f"{w}.tamper[{j}]"
                _take(tam, tw, {"parent": True, "children": False})
                parent = tam["parent"]
                _require(parent in compromised_at.get(epoch, set()), tw, f"tampering parent {parent} is not compromised that epoch")
                kids = tam.get("children", [])
                for kid in kids:
                    _require(id_to_parent.get(kid) == parent, tw, f"{kid} is not a child of {parent}")
                clean_tampers.append({"parent": parent, "children": sorted(kids)})
            clean["tamper"] = clean_tampers
        if "false_claims" in entry:
            clean_claims = []
            for j, fc in enumerate(entry["false_claims"]):
                fw = f"{w}.false_claims[{j}]"
                _take(fc, fw, {"accused": True, "claimers": True})
                accused = fc["accused"]
                for claimer in fc["claimers"]:
                    _require(id_to_parent.get(claimer) == accused, fw, f"{claimer} is not a child of {accused}")
                    _require(claimer in compromised_at.get(epoch, set()), fw, f"false claimer {claimer} is not compromised that epoch")
                clean_claims.append({"accused": accused, "claimers": sorted(fc["claimers"])})
            clean["false_claims"] = clean_claims
        script.append(clean)
    return AdversaryConfig(strategy=strategy, budget=budget, targets=targets, script=tuple(script))


def parse_scenario(data: dict, source: str = "<scenario>") -> ScenarioConfig:
    """Validate a scenario document against every module precondition."""
    _take(
        data,
        source,
        {
            "schema_version": True,
            "name": True,
            "field_mode": True,
            "field_prime": False,
            "curve": False,
            "tf": True,
            "tree": True,
            "secret": True,
            "eval_mode": False,
            "epochs": True,
            "renewal_enabled": False,
            "seed": True,
            "leave_policy": False,
            "events": False,
            "adversary": False,
        },
    )
    version = _int(data["schema_version"], f"{source}.schema_version")
    _require(version == SCHEMA_VERSION, f"{source}.schema_version", f"supported version is {SCHEMA_VERSION}")
    name = data["name"]
    _require(isinstance(name, str) and name != "", f"{source}.name", "must be a nonempty string")

    field_mode = data["field_mode"]
    _require(field_mode in FIELD_MODES, f"{source}.field_mode", f"must be one of {FIELD_MODES}")

    curve = None
    field = None
    if field_mode == "no-curve":
        _require("curve" not in data, f"{source}.curve", "not allowed in no-curve mode")
        _require("field_prime" in data, f"{source}.field_prime", "required in no-curve mode")
        field_prime = _decimal(data["field_prime"], f"{source}.field_prime")
        try:
            field = FieldParams(field_prime)
        except ValueError as exc:
            raise ConfigError(f"{source}.field_prime: {exc}") from None
    else:
        _require("field_prime" not in data, f"{source}.field_prime", "only allowed in no-curve mode")
        _require("curve" in data, f"{source}.curve", "required in curve-order mode")
        curve_spec = data["curve"]
        if isinstance(curve_spec, str):
            _require(curve_spec in PROFILES, f"{source}.curve", f"unknown profile {curve_spec!r}")
            curve = PROFILES[curve_spec]
        elif isinstance(curve_spec, dict):
            curve = parse_curve_inline(curve_spec, f"{source}.curve")
        else:
            raise ConfigError(f"{source}.curve: expected profile name or parameter object")

    tf_data = data["tf"]
    _take(tf_data, f"{source}.tf", {"num": True, "den": True})
    try:
        tf = ThresholdFactor(
            _int(tf_data["num"], f"{source}.tf.num"),
            _int(tf_data["den"], f"{source}.tf.den"),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}.tf: {exc}") from None

    tree = _parse_tree(data["tree"], f"{source}.tree")
    pairs = expand_tree(tree)
    _require(bool(pairs), f"{source}.tree", "hierarchy needs at least one user")
    user_ids = {uid for uid, _ in pairs}
    id_to_parent = dict(pairs)

    eval_mode = data.get("eval_mode", EVAL_ROUND_KEY if field_mode == "curve-order" else EVAL_USER_ID)
    _require(
        eval_mode in (EVAL_ROUND_KEY, EVAL_USER_ID),
        f"{source}.eval_mode",
        f"must be {EVAL_ROUND_KEY!r} or {EVAL_USER_ID!r}",
    )
    _require(
        not (field_mode == "no-curve" and eval_mode == EVAL_ROUND_KEY),
        f"{source}.eval_mode",
        "round-key eval points need a curve",
    )
    epochs = _int(data["epochs"], f"{source}.epochs", minimum=0)
    secret = _decimal(data["secret"], f"{source}.secret")
    seed = _decimal(data["seed"], f"{source}.seed")
    events = _parse_events(data.get("events", []), f"{source}.events", user_ids, epochs)
    adversary = _parse_adversary(
        data.get("adversary", {}), f"{source}.adversary", user_ids, id_to_parent, epochs
    )
    leave_policy = data.get("leave_policy", "abort")
    _require(leave_policy in LEAVE_POLICIES, f"{source}.leave_policy", f"must be one of {LEAVE_POLICIES}")

    if curve is not None:
        report = validate_curve(curve)
        _require(report.ok, f"{source}.curve", "; ".join(report.failures) or "invalid")
        field = FieldParams(curve.order)

    config = ScenarioConfig(
        name=name,
        field=field,
        curve=curve,
        tf=tf,
        tree=tree,
        secret=secret,
        eval_mode=eval_mode,
        epochs=epochs,
        renewal_enabled=bool(data.get("renewal_enabled", True)),
        seed=seed,
        leave_policy=leave_policy,
        events=events,
        adversary=adversary,
    )

    modulus = field.modulus
    _require(
        0 <= secret < modulus,
        f"{source}.secret",
        f"must lie in [0, {modulus})",
    )
    if eval_mode == EVAL_USER_ID:
        _require(
            len(user_ids) < modulus,
            f"{source}.tree",
            f"user-id eval points need fewer than {modulus} users",
        )
    return config


def _parse_events(data, where: str, user_ids: set[int], max_epoch: int) -> tuple[dict, ...]:
    _require(isinstance(data, list), where, "must be a list")
    events = []
    for i, entry in enumerate(data):
        w = f"{where}[{i}]"
        _take(entry, w, {"epoch": True, "kind": True, "user": False, "mid_round": False})
        kind = entry["kind"]
        _require(kind in EVENT_KINDS, f"{w}.kind", f"must be one of {EVENT_KINDS}")
        epoch = _int(entry["epoch"], f"{w}.epoch", minimum=0)
        _require(epoch <= max_epoch, f"{w}.epoch", f"beyond scenario epochs ({max_epoch})")
        clean = {"epoch": epoch, "kind": kind}
        if kind in ("leave", "rejoin"):
            _require("user" in entry, w, f"{kind} event needs a user")
            _require(entry["user"] in user_ids, f"{w}.user", f"unknown user {entry['user']}")
            clean["user"] = entry["user"]
            if kind == "leave":
                clean["mid_round"] = bool(entry.get("mid_round", False))
        else:
            _require("user" not in entry, w, "redeal events take no user")
            _require("mid_round" not in entry, w, "redeal events take no mid_round flag")
        events.append(clean)
    return tuple(events)


def serialize_scenario(config: ScenarioConfig) -> dict:
    """Inverse of parse_scenario; big integers become decimal strings, and
    a curve equal to a profile is written as the profile's name."""
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "field_mode": "no-curve" if config.curve is None else "curve-order",
        "tf": {"num": config.tf.numerator, "den": config.tf.denominator},
        "tree": config.tree,
        "secret": str(config.secret),
        "eval_mode": config.eval_mode,
        "epochs": config.epochs,
        "renewal_enabled": config.renewal_enabled,
        "seed": str(config.seed),
        "leave_policy": config.leave_policy,
        "adversary": {
            "strategy": config.adversary.strategy,
            "budget": config.adversary.budget,
            "targets": list(config.adversary.targets),
            "script": [dict(entry) for entry in config.adversary.script],
        },
    }
    if config.events:
        data["events"] = [dict(e) for e in config.events]
    c = config.curve
    profiles = [name for name, curve in PROFILES.items() if curve == c]
    if c is None:
        data["field_prime"] = str(config.field.modulus)
    elif profiles:
        data["curve"] = profiles[0]
    else:
        data["curve"] = {
            "name": c.name,
            "p": str(c.p),
            "a": str(c.a),
            "b": str(c.b),
            "gx": str(c.gx),
            "gy": str(c.gy),
            "order": str(c.order),
        }
    return data


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario must be a JSON object")
    return parse_scenario(data, source=path)


def bundled_scenario_names() -> list[str]:
    root = resources.files("hiershare").joinpath("data/scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> ScenarioConfig:
    root = resources.files("hiershare").joinpath("data/scenarios")
    text = root.joinpath(f"{name}.json").read_text(encoding="utf-8")
    return parse_scenario(json.loads(text), source=f"bundled:{name}")
