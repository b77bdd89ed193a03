"""Scenario files: parsing, validation, and serialization.

Scenarios are JSON with an explicit schema version. Every big integer is a
decimal string so no reader can lose precision. Validation checks the module
preconditions before a run starts and rejects unknown fields outright;
diagnostics name the offending field. One gap is open: the event list is not
replayed, so a leave that strands an internal node (no active child left)
and a redeal after it parse, and the run stops with ``InactiveSubtree``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

from .algebra import FieldParams
from .curve import PROFILES, CurveParams, validate_curve
from .errors import HierShareError
from .sharing import ThresholdFactor

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


def _ids(value, where: str) -> list[int]:
    """A list of user ids: integers, never booleans."""
    _require(isinstance(value, list), where, "must be a list")
    return [_int(uid, where) for uid in value]


def _flag(value, where: str) -> bool:
    _require(isinstance(value, bool), where, "expected true or false")
    return value


@dataclass(frozen=True)
class AdversaryConfig:
    strategy: str = "passive-stealer"
    budget: int = 0
    targets: tuple[int, ...] = ()
    script: tuple[dict, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario; ``curve`` is None in no-curve mode. The field
    mode fixes the evaluation points: round-key x-coordinates on a curve,
    user ids without one. The tree is ``parents``: user i + 1 hangs below
    ``parents[i]`` (0 is the root server), in the breadth-first numbering
    of ``expand_tree``."""

    name: str
    tf: ThresholdFactor
    parents: tuple[int, ...]
    secret: int
    epochs: int
    seed: int
    field: FieldParams
    curve: CurveParams | None = None
    renewal_enabled: bool = True
    leave_policy: str = "abort"
    events: tuple[dict, ...] = ()
    adversary: AdversaryConfig = dc_field(default_factory=AdversaryConfig)


def adversary_plan(config: ScenarioConfig, epoch: int) -> dict:
    """The adversary's plan for ``epoch`` as one merged script entry
    ``{"compromise", "tamper", "false_claims"}``, each occupied host listed
    once in ``compromise``, in ascending order. ``scripted`` merges the
    epoch's entries in file order. Every other strategy rotates through its
    pool (``targets``, or every user): epoch ``e`` occupies the ``w =
    min(budget, len(pool))`` pool entries from index ``e*w`` on, wrapping
    around. An ``active-corruptor`` tampers with each host's bundles to all
    its active children (empty ``children``); a ``false-claimer`` host
    accuses its own parent."""
    adversary = config.adversary
    if adversary.strategy == "scripted":
        entries = [entry for entry in adversary.script if entry["epoch"] == epoch]
    else:
        pool = adversary.targets or range(1, len(config.parents) + 1)
        width = min(adversary.budget, len(pool))
        hosts = sorted({pool[(epoch * width + i) % len(pool)] for i in range(width)})
        entry = {"compromise": hosts}
        if adversary.strategy == "active-corruptor":
            entry["tamper"] = [{"parent": h, "children": []} for h in hosts]
        elif adversary.strategy == "false-claimer":
            entry["false_claims"] = [{"accused": config.parents[h - 1], "claimers": [h]} for h in hosts]
        entries = [entry]
    return {
        "compromise": sorted({uid for entry in entries for uid in entry["compromise"]}),
        "tamper": [tamper for entry in entries for tamper in entry.get("tamper", ())],
        "false_claims": [claim for entry in entries for claim in entry.get("false_claims", ())],
    }


def expand_tree(tree: dict) -> list[tuple[int, int]]:
    """BFS expansion of the nested tree spec into (id, parent_id) pairs.

    Ids are assigned in breadth-first order starting at 1, parent 0 meaning
    the root server; events and adversary targets reference this numbering.
    """
    pairs: list[tuple[int, int]] = []
    queue: list[tuple[dict, int]] = [(child, 0) for child in tree.get("children", [])]
    for uid, (node, parent) in enumerate(queue, start=1):
        pairs.append((uid, parent))
        queue.extend((child, uid) for child in node.get("children", []))
    return pairs


def tree_spec(parents: tuple[int, ...]) -> dict:
    """Inverse of ``expand_tree``: the nested spec, with a ``children``
    list at every node, in which user i + 1 hangs below ``parents[i]``.
    Iterative, so any depth builds.

    ``parents`` must be a breadth-first numbering: each parent is 0 or an
    earlier user, and no parent is below the one before it. Anything else
    raises ValueError."""
    specs: list[dict] = [{"children": []}]
    previous = 0
    for uid, parent in enumerate(parents, start=1):
        if not previous <= parent < uid:
            raise ValueError(f"parent {parent} of user {uid} breaks the breadth-first numbering")
        specs.append({"children": []})
        specs[parent]["children"].append(specs[uid])
        previous = parent
    return specs[0]


def _spec_children(node) -> list | None:
    """The ``children`` list of a well-formed spec node (empty when absent),
    None for any other value: a node is an object with no other field."""
    children = node.get("children", []) if isinstance(node, dict) else None
    return children if isinstance(children, list) and node.keys() <= {"children"} else None


def _tree_parents(tree, where: str) -> tuple[int, ...]:
    """``expand_tree``'s parents, in one breadth-first walk that checks every
    node on the way. A malformed node hands over to ``_parse_tree``, which
    names the first error in document order."""
    nodes, parents = [tree], []
    for uid, node in enumerate(nodes):
        children = _spec_children(node)
        if children is None:
            _parse_tree(tree, where)
        if children:
            nodes += children
            parents += [uid] * len(children)
    return tuple(parents)


def _parse_tree(data, where: str) -> None:
    """The error path of ``_tree_parents``: check the spec parents first, in
    document order, so the first error reported is the first in the file.
    Iterative: any depth parses. A pending node carries its parent's entry
    and its index there; its path is spelled out only if it is refused."""
    pending: list[tuple] = [(data, None, 0)]
    while pending:
        entry = pending.pop()
        node = entry[0]
        children = _spec_children(node)
        if children is None:
            indices = []
            while entry[1] is not None:
                indices.append(entry[2])
                entry = entry[1]
            w = where + "".join(f".children[{i}]" for i in reversed(indices))
            _require(isinstance(node, dict), w, "expected an object with a 'children' list")
            _take(node, w, {"children": False})
            raise ConfigError(f"{w}: 'children' must be a list")
        if children:
            pending.extend((children[i], entry, i) for i in reversed(range(len(children))))


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


def _parse_adversary(data: dict, where: str, user_ids: range, parents: tuple[int, ...], max_epoch: int) -> AdversaryConfig:
    _take(data, where, {"strategy": False, "budget": False, "targets": False, "script": False})
    strategy = data.get("strategy", "passive-stealer")
    _require(strategy in STRATEGIES, f"{where}.strategy", f"must be one of {STRATEGIES}")
    budget = _int(data.get("budget", 0), f"{where}.budget", minimum=0)
    targets = tuple(_ids(data.get("targets", []), f"{where}.targets"))
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
        comp = _ids(entry.get("compromise", []), f"{w}.compromise")
        for uid in comp:
            _require(uid in user_ids, f"{w}.compromise", f"unknown user {uid}")
        compromised_at.setdefault(epoch, set()).update(comp)
        _require(budget == 0 or len(compromised_at[epoch]) <= budget, f"{w}.compromise", "exceeds budget")
        script.append({"epoch": epoch, "compromise": sorted(comp)})
    # Tampers and claims need their epoch's whole union, so entry order is free.
    for i, (entry, clean) in enumerate(zip(script_raw, script)):
        w = f"{where}.script[{i}]"
        compromised = compromised_at[clean["epoch"]]
        if "tamper" in entry:
            clean_tampers = []
            _require(isinstance(entry["tamper"], list), f"{w}.tamper", "must be a list")
            for j, tam in enumerate(entry["tamper"]):
                tw = f"{w}.tamper[{j}]"
                _take(tam, tw, {"parent": True, "children": False})
                parent = _int(tam["parent"], f"{tw}.parent")
                _require(parent in compromised, tw, f"tampering parent {parent} is not compromised that epoch")
                kids = _ids(tam.get("children", []), f"{tw}.children")
                for kid in kids:
                    _require(kid in user_ids and parents[kid - 1] == parent, tw, f"{kid} is not a child of {parent}")
                clean_tampers.append({"parent": parent, "children": sorted(kids)})
            clean["tamper"] = clean_tampers
        if "false_claims" in entry:
            clean_claims = []
            _require(isinstance(entry["false_claims"], list), f"{w}.false_claims", "must be a list")
            for j, fc in enumerate(entry["false_claims"]):
                fw = f"{w}.false_claims[{j}]"
                _take(fc, fw, {"accused": True, "claimers": True})
                accused = _int(fc["accused"], f"{fw}.accused")
                claimers = _ids(fc["claimers"], f"{fw}.claimers")
                for claimer in claimers:
                    _require(claimer in user_ids and parents[claimer - 1] == accused, fw, f"{claimer} is not a child of {accused}")
                    _require(claimer in compromised, fw, f"false claimer {claimer} is not compromised that epoch")
                clean_claims.append({"accused": accused, "claimers": sorted(claimers)})
            clean["false_claims"] = clean_claims
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
    _require(
        not {"/", "\\"} & set(name) and name not in (".", ".."),
        f"{source}.name",
        "must be a plain file name: no '/' or '\\', not '.' or '..'",
    )

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

    parents = _tree_parents(data["tree"], f"{source}.tree")
    _require(bool(parents), f"{source}.tree", "hierarchy needs at least one user")
    user_ids = range(1, len(parents) + 1)

    # The field mode fixes the evaluation points; older files may name them.
    eval_points = "round-key" if field_mode == "curve-order" else "user-id"
    _require(
        data.get("eval_mode", eval_points) == eval_points,
        f"{source}.eval_mode",
        f"{field_mode} evaluation points are {eval_points!r}, not {data.get('eval_mode')!r}",
    )
    epochs = _int(data["epochs"], f"{source}.epochs", minimum=0)
    secret = _decimal(data["secret"], f"{source}.secret")
    seed = _decimal(data["seed"], f"{source}.seed")
    events = _parse_events(data.get("events", []), f"{source}.events", user_ids, epochs)
    adversary = _parse_adversary(data.get("adversary", {}), f"{source}.adversary", user_ids, parents, epochs)
    leave_policy = data.get("leave_policy", "abort")
    _require(leave_policy in LEAVE_POLICIES, f"{source}.leave_policy", f"must be one of {LEAVE_POLICIES}")

    if curve is not None:
        report = validate_curve(curve)
        _require(report.ok, f"{source}.curve", "; ".join(report.failures) or "invalid")
        field = report.field_params

    config = ScenarioConfig(
        name=name,
        field=field,
        curve=curve,
        tf=tf,
        parents=parents,
        secret=secret,
        epochs=epochs,
        renewal_enabled=_flag(data.get("renewal_enabled", True), f"{source}.renewal_enabled"),
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
    if curve is None:
        _require(
            len(user_ids) < modulus,
            f"{source}.tree",
            f"user-id eval points need fewer than {modulus} users",
        )
    else:
        # The order's n - 1 nonidentity points pair up as ±P on one x. A
        # round key on an x that is 0 mod n would give evaluation point 0.
        distinct_x = (curve.order - 1) // 2 - _zero_x_pairs(curve)
        _require(
            len(user_ids) <= distinct_x,
            f"{source}.tree",
            f"{len(user_ids)} users need distinct round-key x-coordinates "
            f"nonzero mod the order; curve {curve.name!r} has {distinct_x}",
        )
    return config


def _zero_x_pairs(curve: CurveParams) -> int:
    """Point pairs ±(x, y), y != 0, whose x is 0 mod the order: one test by
    Euler's criterion per multiple of the order below p (at most two on
    secp256k1). Exact when every curve point lies in G's group (cofactor
    1, as on both profiles); ``validate_curve`` refuses an order so far
    below p that the cofactor must exceed 1, so the loop is a few steps."""
    p = curve.p
    return sum(
        pow(x**3 + curve.a * x + curve.b, (p - 1) // 2, p) == 1
        for x in range(0, p, curve.order)
    )


def _parse_events(data, where: str, user_ids: range, max_epoch: int) -> tuple[dict, ...]:
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
            user = _int(entry["user"], f"{w}.user")
            _require(user in user_ids, f"{w}.user", f"unknown user {user}")
            clean["user"] = user
            if kind == "leave":
                clean["mid_round"] = _flag(entry.get("mid_round", False), f"{w}.mid_round")
        else:
            _require("user" not in entry, w, "redeal events take no user")
            _require("mid_round" not in entry, w, "redeal events take no mid_round flag")
        events.append(clean)
    return tuple(events)


def serialize_scenario(config: ScenarioConfig) -> dict:
    """Inverse of parse_scenario; big integers become decimal strings, and
    a curve equal to a profile is written as the profile's name."""
    data = serialize_settings(config)
    data["tree"] = tree_spec(config.parents)
    return data


def serialize_settings(config: ScenarioConfig) -> dict:
    """``serialize_scenario`` without the ``tree`` (which a snapshot keeps
    in its node list alone)."""
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "field_mode": "no-curve" if config.curve is None else "curve-order",
        "tf": {"num": config.tf.numerator, "den": config.tf.denominator},
        "secret": str(config.secret),
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


def read_json(path: str, error: type[HierShareError] = ConfigError):
    """The JSON value in the file at ``path``. A file that cannot be
    opened, is not UTF-8, is not JSON or nests too deeply to parse raises
    ``error`` with a message naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError as exc:
        raise error(f"{path}: JSON nested too deeply to read ({exc})") from None


def load_scenario(path: str) -> ScenarioConfig:
    data = read_json(path)
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
