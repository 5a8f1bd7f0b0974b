"""Movement-minimizing mobile sensor coverage from k base stations.

Schedules sensors of sensing radius r from fixed stations so that every
point target is covered while the total movement distance is minimized.
The main solver discretizes placements into candidate sites, tiles the
plane into shifted square cells, solves each cell exactly by a strip-wise
dynamic program, and gives each cluster of targets its cheapest shift
round; with m rounds the cost is within a factor (1 + 4/m) of the optimum
over the candidate sites.  An exact branch-and-bound oracle provides
desk-scale ground truth.
"""

from .sites import Instance
from .oracle import exact_min_cost_cover, greedy_cover, grid_refine_audit
from .ptas import Placement, PtasConfig, Solution, solve, verify_solution
from .strip_dp import StateBudgetError
from .instances_io import (InstanceFormatError, gen_counterexample, gen_uniform,
                           read_instance, read_instance_file, read_solution,
                           write_instance, write_report, write_solution)

__version__ = "0.1.0"

__all__ = [
    "Instance", "InstanceFormatError", "Placement", "PtasConfig", "Solution",
    "StateBudgetError", "exact_min_cost_cover",
    "gen_counterexample", "gen_uniform", "greedy_cover", "grid_refine_audit",
    "read_instance", "read_instance_file", "read_solution",
    "solve", "verify_solution", "write_instance", "write_report",
    "write_solution",
]
