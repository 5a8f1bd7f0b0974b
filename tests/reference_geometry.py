"""A near-station sensor configuration used by geometry property checks."""

from dataclasses import dataclass

from sinkcover.geometry import coverage_angle_halfwidth


@dataclass(frozen=True)
class LevelProbe:
    """A sampled near-station sensor configuration used by property checks.

    Bundles the outer sensor distance `a`, the inner distance `a_prime`,
    the pocket offset `delta` (half of a_prime), the covered half-angle
    `theta` at radius r + a_prime, and the sensing radius `r`.
    """

    a: float
    a_prime: float
    delta: float
    theta: float
    r: float

    @classmethod
    def from_distances(cls, a: float, a_prime: float, r: float) -> "LevelProbe":
        theta = coverage_angle_halfwidth(a, a_prime, r)
        return cls(a=a, a_prime=a_prime, delta=a_prime / 2.0, theta=theta, r=r)
