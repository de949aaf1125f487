"""Strategy configuration and cluster planning."""

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from idastra.errors import InvalidConfig
from idastra.ordering import OrderPolicy


class Axis(NamedTuple):
    """One strategy axis: its StrategyConfig field, its text form both
    ways, and its menu of named values (None for a numeric axis)."""
    name: str
    field: str
    parse: Callable
    format: Callable
    menu: tuple | None


def _parse_switch(text):
    if text not in ("on", "off"):
        raise ValueError("must be on or off")
    return text == "on"


# One row per axis, in config-token order.
AXIS_TABLE = {row.name: row for row in (
    Axis("distribution", "distribution", str, str,
         ("KumarRao", "BreadthFirst")),
    Axis("clusters", "clusters", int, str, None),
    Axis("load_balancing", "load_balancing", _parse_switch,
         lambda on: "on" if on else "off", ("on", "off")),
    Axis("polling", "polling", str, str, ("Neighbor", "Random")),
    Axis("fraction", "donation_fraction", float,
         lambda fraction: repr(float(fraction)), None),
    Axis("donate_from", "donate_from", str, str,
         ("HeadOfList", "TailOfList")),
    Axis("trigger", "anticipation_trigger", int, str, None),
    Axis("ordering", "ordering", OrderPolicy.from_token, OrderPolicy.token,
         ("Fixed", "Local", "Toida")),
)}

AXES = tuple(AXIS_TABLE) + ("all",)


def _parse(row, text):
    """Parse one axis value; a malformed text is an InvalidConfig."""
    try:
        return row.parse(text)
    except ValueError as exc:
        raise InvalidConfig(f"bad {row.name} value {text!r}: {exc}") \
            from None


@dataclass(frozen=True)
class StrategyConfig:
    distribution: str = "BreadthFirst"
    clusters: int = 1
    load_balancing: bool = True
    polling: str = "Neighbor"
    donation_fraction: float = 0.3
    donate_from: str = "TailOfList"
    anticipation_trigger: int = 0
    ordering: OrderPolicy = OrderPolicy.fixed()

    def with_value(self, axis, text):
        """New config with one strategy axis replaced by a text value."""
        row = AXIS_TABLE[axis]
        return replace(self, **{row.field: _parse(row, text)})

    def text(self, axis):
        """Text form of one strategy axis' value."""
        row = AXIS_TABLE[axis]
        return row.format(getattr(self, row.field))

    def token(self):
        """Canonical one-line text form (also the axis=all label)."""
        return ":".join(self.text(axis) for axis in AXIS_TABLE)

    @staticmethod
    def from_token(token):
        # the ordering text may itself contain a colon (Fixed:0123)
        texts = token.split(":", len(AXIS_TABLE) - 1)
        if len(texts) != len(AXIS_TABLE):
            raise InvalidConfig(f"bad config token {token!r}")
        return StrategyConfig(**{
            row.field: _parse(row, text)
            for row, text in zip(AXIS_TABLE.values(), texts)})

    def describe(self):
        """key=value lines, one per strategy axis."""
        return "\n".join(f"{axis}={self.text(axis)}" for axis in AXIS_TABLE)


def config_for_axis_value(axis, value, base=None):
    """Default config with one axis (or, for "all", everything) set."""
    base = base if base is not None else DEFAULT_CONFIG
    if axis == "all":
        return StrategyConfig.from_token(value)
    return base.with_value(axis, value)


# Defaults: breadth-first distribution, a single cluster, load balancing
# on with neighbor polling, 30% donated from the tail, trigger 0, and
# fixed identity ordering.
DEFAULT_CONFIG = StrategyConfig()


def validate_config(config, workers):
    """Check structural constraints; raises InvalidConfig."""
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    # text-valued axes are checked against their menus here; the parsers
    # of the other named axes already reject values off their menus
    for row in AXIS_TABLE.values():
        value = getattr(config, row.field)
        if row.parse is str and value not in row.menu:
            raise InvalidConfig(f"unknown {row.name} {value!r}")
    if not 1 <= config.clusters <= workers:
        raise InvalidConfig(
            f"clusters must be in 1..{workers}, got {config.clusters}")
    if not 0.0 <= config.donation_fraction <= 1.0:
        raise InvalidConfig(
            f"donation_fraction must be in [0, 1], got "
            f"{config.donation_fraction}")
    if config.anticipation_trigger < 0:
        raise InvalidConfig(
            f"anticipation_trigger must be >= 0, got "
            f"{config.anticipation_trigger}")
    if config.distribution == "KumarRao" and not config.load_balancing:
        raise InvalidConfig(
            "KumarRao distribution needs load balancing: idle workers "
            "could never acquire work")
    if config.ordering.kind == "Toida" and config.ordering.scores is None:
        raise InvalidConfig("Toida ordering selected without scores")
    return config


def plan_clusters(workers, clusters):
    """Split worker ids 0..P-1 into contiguous blocks whose sizes differ
    by at most one (larger blocks first)."""
    if not 1 <= clusters <= workers:
        raise InvalidConfig(
            f"clusters must be in 1..{workers}, got {clusters}")
    base, extra = divmod(workers, clusters)
    blocks = []
    start = 0
    for i in range(clusters):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks
