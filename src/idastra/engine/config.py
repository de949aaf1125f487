"""Strategy configuration and cluster planning."""

from dataclasses import dataclass, replace

from idastra.errors import InvalidConfig
from idastra.ordering import OrderPolicy

DISTRIBUTIONS = ("KumarRao", "BreadthFirst")
POLLING = ("Neighbor", "Random")
DONATE_FROM = ("HeadOfList", "TailOfList")


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

    def with_value(self, axis, value):
        """New config with one strategy axis replaced by a text value."""
        return replace(self, **{_AXIS_FIELD[axis]: _parse_axis(axis, value)})

    def token(self):
        """Canonical one-line text form (also the axis=all label)."""
        return ":".join([
            self.distribution,
            str(self.clusters),
            "on" if self.load_balancing else "off",
            self.polling,
            repr(float(self.donation_fraction)),
            self.donate_from,
            str(self.anticipation_trigger),
            self.ordering.token(),
        ])

    @staticmethod
    def from_token(token):
        parts = token.split(":")
        # the ordering token may itself contain a colon (Fixed:0123)
        if len(parts) == 9:
            parts = parts[:7] + [parts[7] + ":" + parts[8]]
        if len(parts) != 8:
            raise InvalidConfig(f"bad config token {token!r}")
        dist, clusters, lb, polling, frac, donate, trigger, ordering = parts
        if lb not in ("on", "off"):
            raise InvalidConfig(f"load_balancing must be on/off, got {lb!r}")
        try:
            cfg = StrategyConfig(
                distribution=dist,
                clusters=int(clusters),
                load_balancing=(lb == "on"),
                polling=polling,
                donation_fraction=float(frac),
                donate_from=donate,
                anticipation_trigger=int(trigger),
                ordering=OrderPolicy.from_token(ordering),
            )
        except ValueError as exc:
            raise InvalidConfig(f"bad config token {token!r}: {exc}") from None
        return cfg

    def describe(self):
        """key=value lines, one per strategy axis."""
        return "\n".join([
            f"distribution={self.distribution}",
            f"clusters={self.clusters}",
            f"load_balancing={'on' if self.load_balancing else 'off'}",
            f"polling={self.polling}",
            f"fraction={float(self.donation_fraction)!r}",
            f"donate_from={self.donate_from}",
            f"trigger={self.anticipation_trigger}",
            f"ordering={self.ordering.token()}",
        ])


_AXIS_FIELD = {
    "distribution": "distribution",
    "clusters": "clusters",
    "load_balancing": "load_balancing",
    "polling": "polling",
    "fraction": "donation_fraction",
    "donate_from": "donate_from",
    "trigger": "anticipation_trigger",
    "ordering": "ordering",
}

AXES = tuple(_AXIS_FIELD) + ("all",)


def _parse_axis(axis, value):
    if axis == "clusters":
        return int(value)
    if axis == "fraction":
        return float(value)
    if axis == "trigger":
        return int(value)
    if axis == "load_balancing":
        if value in ("on", "off"):
            return value == "on"
        raise InvalidConfig(f"load_balancing must be on/off, got {value!r}")
    if axis == "ordering":
        return OrderPolicy.from_token(value) if isinstance(value, str) else value
    return value


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
    if config.distribution not in DISTRIBUTIONS:
        raise InvalidConfig(f"unknown distribution {config.distribution!r}")
    if config.polling not in POLLING:
        raise InvalidConfig(f"unknown polling {config.polling!r}")
    if config.donate_from not in DONATE_FROM:
        raise InvalidConfig(f"unknown donate_from {config.donate_from!r}")
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


@dataclass(frozen=True)
class ExecutionMode:
    kind: str = "DeterministicSim"          # or "RealThreads"
    message_latency_ticks: int = 1

    def validate(self):
        if self.kind not in ("DeterministicSim", "RealThreads"):
            raise InvalidConfig(f"unknown mode {self.kind!r}")
        if self.message_latency_ticks < 0:
            raise InvalidConfig("message latency must be >= 0")
        return self
