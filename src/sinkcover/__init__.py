"""Movement-minimizing mobile sensor coverage from k base stations.

Schedules sensors of sensing radius r from fixed stations so that every
point target is covered while the total movement distance is minimized.
The main solver discretizes placements into candidate sites, tiles the
plane into shifted square cells, solves each cell exactly by a strip-wise
dynamic program, and keeps the cheapest shift round; with m rounds the cost
is within a factor (1 + 4/m) of the optimum over the candidate sites.  An
exact branch-and-bound oracle provides desk-scale ground truth.
"""

from .geometry import (COVER_TOL, Point, circle_circle_intersections,
                       coverage_angle_halfwidth, covered_targets, dist,
                       nearest_point_on_circle, s_prime_location)
from .sites import (CandidateSite, Instance, generate_candidate_sites,
                    prune_dominated, site_weight)
from .grid import Cell, Grid, Strip, bounding_box, cells_for_shift, strips_of_cell
from .strip_dp import (CellInfeasible, CellSolution, DpCounters, auto_cap,
                       solve_cell)
from .oracle import (CensusReport, GridRefineReport, OracleResult,
                     exact_min_cost_cover, greedy_cover, grid_refine_audit,
                     strip_sensor_census)
from .ptas import (CapInfeasibleError, Placement, PtasConfig, ShiftAuditReport,
                   Solution, shift_average_audit, solve, verify_solution)
from .instances_io import (InstanceFormatError, SolutionFile, gen_counterexample,
                           gen_uniform, read_instance, read_instance_file,
                           read_report, read_solution, write_instance,
                           write_report, write_solution)
from .svg_render import render_svg

__version__ = "0.1.0"

__all__ = [
    "COVER_TOL", "CandidateSite", "CapInfeasibleError", "Cell", "CellInfeasible",
    "CellSolution", "CensusReport", "DpCounters", "Grid", "GridRefineReport",
    "Instance", "InstanceFormatError", "OracleResult", "Placement",
    "Point", "PtasConfig", "ShiftAuditReport", "Solution", "SolutionFile",
    "Strip", "auto_cap", "bounding_box", "cells_for_shift",
    "circle_circle_intersections", "coverage_angle_halfwidth",
    "covered_targets", "dist", "exact_min_cost_cover",
    "gen_counterexample", "gen_uniform", "generate_candidate_sites",
    "greedy_cover", "grid_refine_audit", "nearest_point_on_circle",
    "prune_dominated", "read_instance", "read_instance_file", "read_report",
    "read_solution", "render_svg", "s_prime_location", "shift_average_audit",
    "site_weight", "solve", "solve_cell", "strip_sensor_census",
    "strips_of_cell", "verify_solution", "write_instance", "write_report",
    "write_solution",
]
